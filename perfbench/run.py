"""End-to-end benchmark: online backup under logical-op traffic,
recovery cycles and a file-backed B-tree.

Run from the repository root:

    python3 perfbench/run.py --workload oltp_online_backup --seed 1 \\
        --seconds 30 --trace 0

Prints one line per metric (value, unit, sample count) and, as the last
line, one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a run whose layer entry points are wrapped (see
tracing.py).  Every timing is in reference-host units (see calib.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space for the file backend, inside the checkout.
DATA_ROOT = os.path.join(ROOT, ".perfbench_data")


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def end_to_end(work, raw: bool = False) -> dict:
    """Every end-to-end metric as (value, unit, samples); ``raw=True``
    reduces the uncalibrated timings instead (for the audit record)."""
    from stats import median, tail

    res, clock = work.res, work.clock
    per_cycle = [
        work.cycle_ops / ((raw_ns if raw else ns) / 1e9)
        for _, ns, raw_ns in res.cycle_traffic
    ]
    samples = clock.raw_samples if raw else clock.samples
    writes = samples["write"]
    reads = samples["read"]
    rec = res.recovery_raw if raw else res.recovery
    setup = res.setup_raw_ns if raw else res.setup_ns
    out = {
        "setup_s": (median(setup) / 1e9, "s", len(setup)),
        "ops_per_s": (median(per_cycle), "1/s", len(per_cycle)),
        "write_p50_us": (median(writes) / 1e3, "us", len(writes)),
        "write_p99_us": (tail(writes, 99) / 1e3, "us", len(writes)),
        "read_p50_us": (median(reads) / 1e3, "us", len(reads)),
        "read_p99_us": (tail(reads, 99) / 1e3, "us", len(reads)),
        "backup_window_s": (
            median(res.backup_windows_ns) / 1e9, "s",
            len(res.backup_windows_ns),
        ),
        "log_bytes_per_op": (res.counts["log_bytes_per_op"], "B", 1),
        "space_amp": (res.counts["space_amp"], "ratio", 1),
    }
    for kind in ("crash_recover", "media_recover", "ttfq",
                 "instant_restore", "pitr"):
        out[f"{kind}_ms"] = (median(rec[kind]) / 1e6, "ms", len(rec[kind]))
    out["peak_rss_mb"] = (res.counts["peak_rss_mb"], "MB", 1)
    ok = (res.attempted - res.failed) / res.attempted
    out["ok_frac"] = (ok, "ratio", res.attempted)
    return out


def audit(work) -> dict:
    """The kernel's own spread and the raw side of every calibrated
    timing, so the normalisation can be audited."""
    from stats import median, spread

    kernels = work.clock.kernels
    record = {
        "kernel_median_ns": median(kernels),
        "kernel_iqr_frac": spread(kernels) if len(kernels) > 3 else 0.0,
        "kernels": len(kernels),
    }
    if work.clock.samples:
        raw = end_to_end(work, raw=True)
        del raw["backup_window_s"]  # only kept calibrated
        record["raw"] = {name: value for name, (value, _, _) in raw.items()}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        help="write the per-run record here (and, traced, the spans to "
        "RECORD.spans.jsonl)",
    )
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(WORKLOADS)}")
    shutil.rmtree(DATA_ROOT, ignore_errors=True)
    work = WORKLOADS[args.workload](args.seed, DATA_ROOT)
    try:
        if args.trace:
            from tracing import traced_run

            spans = args.record and args.record + ".spans.jsonl"
            metrics = traced_run(work, args.seconds, spans)  # sets up itself
        else:
            work.setup()
            work.run(args.seconds)
            metrics = end_to_end(work)
        record = {"workload": args.workload, "seed": args.seed,
                  "audit": audit(work), "mismatches": work.res.mismatches}
    finally:
        work.close()
        shutil.rmtree(DATA_ROOT, ignore_errors=True)
    for name, (value, unit, n) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit:6s} n={n}")
    print(json.dumps(record["audit"]), file=sys.stderr)
    if args.record:
        with open(args.record, "w") as handle:
            json.dump(record, handle, indent=1)
    res = work.res
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
