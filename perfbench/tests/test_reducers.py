"""Tests for the benchmark's reducers: percentiles and their sample-count
rule, span self time, and calibration normalisation.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import calib  # noqa: E402
from stats import (  # noqa: E402
    median,
    percentile,
    self_time_by_name,
    self_times,
    supports,
    tail,
)


def test_percentile_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7], 99) == 7


def test_median_even_and_odd():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def test_p99_needs_ten_samples_beyond_it():
    assert not supports(999, 99)
    assert supports(1000, 99)
    assert supports(20, 50)
    with pytest.raises(ValueError):
        tail(list(range(999)), 99)
    assert tail(list(range(1000)), 99) == 989


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0, 100, None, 1),   # children: 10..40 and 50..90
        ("child", 10, 40, 0, 1),     # child: 20..30
        ("grandchild", 20, 30, 1, 1),
        ("child", 50, 90, 0, 1),
    ]
    assert self_times(spans) == [100 - 30 - 40, 30 - 10, 10, 40]
    assert self_time_by_name(spans) == {
        "root": (1, 30),
        "child": (2, 60),
        "grandchild": (1, 10),
    }


def test_self_times_sum_to_root_duration():
    spans = [
        ("a", 0, 1000, None, 1),
        ("b", 100, 600, 0, 1),
        ("c", 200, 300, 1, 1),
        ("d", 350, 500, 1, 1),
        ("e", 700, 900, 0, 1),
    ]
    assert sum(self_times(spans)) == 1000


def test_factor_rescales_to_reference_host():
    ref = calib.REF_KERNEL_NS
    assert calib.factor(ref, ref) == 1.0
    # A host running the kernel at half speed reports half the raw time.
    assert calib.factor(2 * ref, 2 * ref) == pytest.approx(0.5)
    # The window's factor uses the mean of the kernels on either side.
    assert calib.factor(ref, 3 * ref) == pytest.approx(0.5)


def test_window_clock_normalises_each_window(monkeypatch):
    kernels = iter([2 * calib.REF_KERNEL_NS] * 4)
    monkeypatch.setattr(calib, "kernel_ns", lambda: next(kernels))
    clock = calib.WindowClock(window_ops=2)
    clock.start()
    clock.op("write", lambda: None)
    clock.op("write", lambda: None)  # closes the window, opens another
    clock.stop()  # nothing pending: no kernel
    assert len(clock.raw_samples["write"]) == 2
    for raw, cal in zip(clock.raw_samples["write"], clock.samples["write"]):
        assert cal == pytest.approx(raw * 0.5)
    assert clock.calibrated_ns == pytest.approx(clock.raw_ns * 0.5)
    assert clock.raw_ns >= sum(clock.raw_samples["write"])


def test_kernel_is_deterministic():
    assert calib.reference_kernel(1000) == calib.reference_kernel(1000)
