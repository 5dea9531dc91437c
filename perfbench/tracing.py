"""The traced run: per-layer numbers from spans around layer entry points.

Wrappers are installed on the program's public layer entry points from
here, at class level, only in the traced run and only for the traced
cycles; the program itself is unchanged.  Each call records a span
``(name, start_ns, end_ns, parent index, op id)`` in memory; self time
is span time minus the time of its direct children (stats.self_times).

Cycles ``TRACED_CYCLES`` are traced, the others are not.  Per-layer
numbers come from the traced cycles only, a fixed set, so the counts
among them repeat exactly for a seed.  The tracing overhead compares the
traced cycles' calibrated traffic time with the same cycles of an
untraced run of the same workload and seed, made first in the same
process with no wrapper installed at all.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import threading
import time
from typing import Callable, Dict, List, Optional

from stats import median, self_time_by_name
from workloads import dir_bytes

TRACED_CYCLES = (1, 3)

#: (module, class or None, attribute, span name).  Module-level
#: functions imported by name elsewhere are patched in every importer.
TARGETS = [
    ("repro.db", "Database", "execute", "db.execute"),
    ("repro.db", "Database", "read", "db.read"),
    ("repro.db", "Database", "recover", "db.recover"),
    ("repro.db", "Database", "media_recover", "db.media_recover"),
    ("repro.db", "Database", "begin_instant_restore", "db.instant_begin"),
    ("repro.db", "Database", "finish_instant_restore", "db.instant_finish"),
    ("repro.db", "Database", "restore_to_lsn", "db.pitr"),
    ("repro.cache.cache_manager", "CacheManager", "execute", "cache.execute"),
    ("repro.cache.cache_manager", "CacheManager", "install_node",
     "cache.install"),
    ("repro.recovery.refined_write_graph", "DynamicWriteGraph",
     "add_operation", "write_graph.add"),
    ("repro.recovery.refined_write_graph", "DynamicWriteGraph",
     "installable_nodes", "write_graph.installable"),
    ("repro.wal.log_manager", "LogManager", "append", "wal.append"),
    ("repro.wal.log_manager", "LogManager", "force", "wal.force"),
    ("repro.wal.multi_log", "MultiLogManager", "append", "wal.append"),
    ("repro.wal.multi_log", "MultiLogManager", "force", "wal.force"),
    ("repro.cache.cache_manager", None, "with_retries", "faults.with_retries"),
    ("repro.core.backup_engine", None, "with_retries", "faults.with_retries"),
    ("repro.core.backup_engine", "BackupEngine", "copy_some", "backup.copy"),
    ("repro.storage.stable_db", "StableDatabase", "write_page",
     "storage.stable_write"),
    ("repro.storage.stable_db", "StableDatabase", "write_pages_atomically",
     "storage.stable_write"),
    ("os", None, "fsync", "storage.fsync"),
    ("repro.recovery.redo", "RedoReplayer", "replay", "redo.replay"),
    ("repro.recovery.parallel_redo", "ParallelRedoReplayer", "replay",
     "redo.replay"),
    ("repro.recovery.instant_restore", "RestoreManager", "begin",
     "instant.begin"),
    ("repro.recovery.instant_restore", "RestoreManager", "ensure_restored",
     "instant.ensure"),
    ("repro.archive.manager", "ArchiveManager", "run_incremental",
     "archive.incremental"),
    ("repro.archive.manager", "ArchiveManager", "compact", "archive.compact"),
    ("repro.btree.btree", "BTree", "search", "btree.search"),
    ("repro.btree.btree", "BTree", "insert", "btree.insert"),
]

#: The oracle subscribes a bound method to the log when the database is
#: built, so its wrapper must be in place before set-up; it stays
#: installed and records only while tracing is on.
ORACLE = ("repro.sim.oracle", "Oracle", "apply_record", "oracle.apply")


class SpanRecorder:
    """In-memory spans; one call stack per thread."""

    def __init__(self):
        self.spans: List[list] = []
        self.enabled = False
        self.op_id = 0
        self.op_types: Dict[str, int] = {}
        self._local = threading.local()
        self._saved: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            if name == "db.execute":
                if not stack:
                    recorder.op_id += 1
                kind = type(args[1]).__name__
                recorder.op_types[kind] = recorder.op_types.get(kind, 0) + 1
            span = [name, time.perf_counter_ns(), 0,
                    stack[-1] if stack else None, recorder.op_id]
            index = len(recorder.spans)
            recorder.spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        traced.__wrapped_by_perfbench__ = fn
        return traced

    def _patch(self, module_name, cls_name, attr, name) -> None:
        import importlib

        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install_oracle(self) -> None:
        self._patch(*ORACLE)

    def install(self) -> None:
        for target in TARGETS:
            self._patch(*target)
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        while len(self._saved) > 1:  # the oracle wrapper stays
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def metric_snapshot(work) -> dict:
    from dataclasses import fields

    m = work.db.metrics
    snap = {
        f.name: getattr(m, f.name)
        for f in fields(m)
        if isinstance(getattr(m, f.name), (int, float))
    }
    snap["ops"] = work.ops_done
    snap["log_bytes"] = work.log_bytes_total()
    snap["disk"] = dir_bytes(work.data_dir)
    return snap


def untraced_traffic(work) -> Dict[int, float]:
    """Calibrated traffic time per cycle of an untraced run of the same
    workload and seed, cycles 0 to max(TRACED_CYCLES): the baseline of
    the tracing overhead.  Its correctness checks count in ``work``'s."""
    plain = type(work)(work.seed, os.path.dirname(work.data_dir))
    plain.setup_reps = 1
    plain.min_cycles = max(TRACED_CYCLES) + 1
    try:
        plain.setup()
        plain.run(0)
    finally:
        plain.close()
        shutil.rmtree(plain.data_dir, ignore_errors=True)
    work.res.attempted += plain.res.attempted
    work.res.failed += plain.res.failed
    work.res.mismatches += plain.res.mismatches
    return {cycle: ns for cycle, ns, _ in plain.res.cycle_traffic}


def traced_run(work, seconds: float, spans_path: Optional[str] = None) -> dict:
    """Set up and run ``work`` with cycles TRACED_CYCLES traced, after
    an untraced run of the same cycles; write the spans as JSON lines to
    ``spans_path`` if given."""
    baseline = untraced_traffic(work)
    recorder = SpanRecorder()
    recorder.install_oracle()
    work.setup()
    traffic: Dict[str, float] = {}  # counter deltas over traced traffic
    failure: Dict[str, float] = {}  # ... and over traced failure segments
    last: Dict[str, dict] = {}
    retained: List[int] = []

    def add(into: Dict[str, float], now: dict, then: dict) -> None:
        for key, value in now.items():
            into[key] = into.get(key, 0) + value - then[key]

    def on_cycle(cycle: int, phase: str) -> None:
        if cycle not in TRACED_CYCLES:
            return
        now = metric_snapshot(work)
        if phase == "start":
            recorder.install()
        elif phase == "traffic-end":
            add(traffic, now, last["snap"])
            retained.append(len(work.db.log))
        else:
            add(failure, now, last["snap"])
            recorder.uninstall()
        last["snap"] = now

    work.run(seconds, on_cycle=on_cycle, min_cycles=max(TRACED_CYCLES) + 2)
    if spans_path is not None:
        with open(spans_path, "w") as handle:
            for name, start, end, parent, op_id in recorder.spans:
                handle.write(json.dumps([name, start, end, parent, op_id]))
                handle.write("\n")
    return per_layer(work, recorder, traffic, failure, retained, baseline)


def per_layer(work, recorder: SpanRecorder, d: Dict[str, float],
              f: Dict[str, float], retained: List[int],
              baseline: Dict[int, float]) -> dict:
    """Reduce the traced cycles' spans and counter deltas (``d`` over
    traffic, ``f`` over failure segments) to the per-layer metrics, each
    as (value, unit, samples behind it); ``baseline`` is the untraced
    run's calibrated traffic time per cycle."""
    spans = recorder.spans
    by_name = self_time_by_name(spans)
    durations: Dict[str, List[int]] = {}
    child_calls: Dict[tuple, int] = {}  # (parent name, child name)
    replay_in: Dict[int, int] = {}  # parent index -> replay ns under it
    for name, start, end, parent, _ in spans:
        durations.setdefault(name, []).append(end - start)
        if parent is not None:
            key = (spans[parent][0], name)
            child_calls[key] = child_calls.get(key, 0) + 1
            if name == "redo.replay":
                replay_in[parent] = replay_in.get(parent, 0) + end - start

    def calls(name):
        return by_name.get(name, (0, 0))[0]

    def self_ns(name):
        return by_name.get(name, (0, 0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    def med_ms(ns: List[int]):
        return (median(ns) / 1e6 if ns else 0.0, "ms", len(ns))

    def per_call_us(name):
        return (ratio(self_ns(name) / 1e3, calls(name)), "us", calls(name))

    ops = d.get("ops", 0)

    def per_op(amount, unit):
        return (ratio(amount, ops), unit, ops)

    # Media recovery split into replay (child spans) and the rest.
    media = [i for i, s in enumerate(spans) if s[0] == "db.media_recover"]
    replay_in_media = [replay_in.get(i, 0) for i in media]
    media_self = [
        spans[i][2] - spans[i][1] - r for i, r in zip(media, replay_in_media)
    ]
    outcomes = [o[1:] for o in work.res.outcomes if o[0] in TRACED_CYCLES]
    recs = [o for o in outcomes if o[0] == "crash_recover"]
    replayed = sum(o[1] for o in recs)
    skipped = sum(o[2] for o in recs)
    pitr = [o for o in outcomes if o[0] == "pitr"]
    all_replayed = sum(o[1] for o in outcomes)
    decisions = d.get("flush_decisions_during_backup", 0)
    iwof = d.get("iwof_during_backup", 0)
    steps = work.config.steps
    closed_form = (  # section 5, extra logging per flush decision
        1 / 6 + 1 / (2 * steps) - 1 / (6 * steps * steps)
        if work.policy == "tree"
        else 0.5 * (1 + 1 / steps)
    )
    searches = calls("btree.search")
    inserts = calls("btree.insert")
    # Restores done on the querying thread while it answered the first
    # query (background workers start only after it).
    first_query = [q[1:] for q in work.res.first_query
                   if q[0] in TRACED_CYCLES]
    ensure_first = sum(
        1 for s in spans for t0, t1 in first_query
        if s[0] == "instant.ensure" and s[3] is not None and t0 <= s[1] <= t1
    )
    generations = [g[1:] for g in work.res.generations
                   if g[0] in TRACED_CYCLES]
    backups = d.get("backups_completed", 0)
    traced_ns = sum(t for c, t, _ in work.res.cycle_traffic
                    if c in TRACED_CYCLES)
    plain_ns = sum(baseline[c] for c in TRACED_CYCLES)
    fast = f.get("redo_ops_fast_path", 0)
    coord = f.get("redo_ops_coordinated", 0)
    hits = d.get("cache_hits", 0)
    lookups = hits + d.get("cache_misses", 0)
    copies = calls("backup.copy")
    return {
        "cache.execute_self_us": per_call_us("cache.execute"),
        "cache.install_ms_per_kop": (
            ratio(self_ns("cache.install") / 1e6, ops / 1000), "ms", ops),
        "cache.flushes_per_op": per_op(d.get("page_flushes", 0), "count"),
        "cache.hit_ratio": (ratio(hits, lookups), "ratio", lookups),
        "write_graph.self_us_per_op": per_op(
            (self_ns("write_graph.add") + self_ns("write_graph.installable"))
            / 1e3, "us"),
        "wal.append_self_us": per_call_us("wal.append"),
        "wal.forces_per_op": per_op(calls("wal.force"), "count"),
        "wal.force_self_us": per_call_us("wal.force"),
        "wal.iwof_bytes_frac": (
            ratio(d.get("iwof_bytes", 0), d.get("log_bytes", 0)), "ratio",
            calls("wal.append")),
        "wal.retained_records": (
            ratio(sum(retained), len(retained)), "count", len(retained)),
        "oracle.self_us_per_op": per_op(self_ns("oracle.apply") / 1e3, "us"),
        "faults.with_retries_calls_per_op": per_op(
            calls("faults.with_retries"), "count"),
        "policy.iwof_per_decision": (
            ratio(iwof, decisions), "ratio", decisions),
        "policy.iwof_vs_closed_form": (
            ratio(ratio(iwof, decisions), closed_form), "ratio", decisions),
        "backup.copy_self_ms": (
            ratio(self_ns("backup.copy") / 1e6, backups), "ms", backups),
        "backup.pages_per_s": (ratio(
            d.get("backup_pages_copied", 0),
            self_ns("backup.copy") / 1e9), "1/s", copies),
        "backup.bulk_reads_per_backup": (
            ratio(d.get("backup_bulk_reads", 0), backups), "count", backups),
        "storage.stable_write_self_us": per_call_us("storage.stable_write"),
        "storage.fsyncs_per_op": per_op(calls("storage.fsync"), "count"),
        "storage.fsync_self_us": per_call_us("storage.fsync"),
        "storage.bytes_written_per_op": per_op(d.get("disk", 0), "B"),
        "redo.records_per_recovery": (
            ratio(replayed, len(recs)), "count", len(recs)),
        "redo.us_per_record": (
            ratio(self_ns("redo.replay") / 1e3, all_replayed), "us",
            all_replayed),
        "redo.fast_path_share": (
            ratio(fast, fast + coord), "ratio", fast + coord),
        "redo.skipped_frac": (
            ratio(skipped, replayed + skipped), "ratio", replayed + skipped),
        "media.restore_ms": med_ms(media_self),
        "media.replay_ms": med_ms(replay_in_media),
        "instant.begin_ms": med_ms(durations.get("instant.begin", [])),
        "instant.pages_to_first_query": (
            ratio(ensure_first, len(first_query)), "count", len(first_query)),
        "instant.drain_ms": med_ms(durations.get("db.instant_finish", [])),
        "archive.generation_ms": med_ms(
            durations.get("archive.incremental", [])),
        "archive.copied_per_dirtied": (
            ratio(sum(copied for copied, _ in generations),
                  sum(dirtied for _, dirtied in generations)), "ratio",
            len(generations)),
        "archive.compact_ms": med_ms(durations.get("archive.compact", [])),
        "archive.pitr_replay_records": (
            ratio(sum(o[1] for o in pitr), len(pitr)), "count", len(pitr)),
        "btree.self_us_per_op": (ratio(
            (self_ns("btree.search") + self_ns("btree.insert")) / 1e3,
            searches + inserts), "us", searches + inserts),
        "btree.pages_per_lookup": (ratio(
            child_calls.get(("btree.search", "db.read"), 0), searches),
            "count", searches),
        "btree.splits_per_kinsert": (ratio(
            recorder.op_types.get("BTreeSplitMove", 0), inserts / 1000),
            "count", inserts),
        "trace.overhead_frac": (
            ratio(traced_ns, plain_ns) - 1 if plain_ns else 0.0, "ratio",
            len(TRACED_CYCLES)),
        "trace.spans": (len(spans), "count", 1),
    }
