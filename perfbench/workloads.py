"""The three workloads and the cycle loop they share.

Every workload is a closed loop with one client: the next request is
issued when the previous one returns.  A run is a sequence of equal
cycles.  Each cycle issues a fixed batch of requests while online
backups run, takes a point-in-time cut half way, and ends with a
failure segment that times crash, media, instant and point-in-time
recovery and checks every recovered value against values the benchmark
itself read (or acknowledged) before the failure.  Superseded backups
are retired and the log truncated every cycle, so cycles stay the same
size however long the run is.

What differs between workloads is the share of the work each part gets
(see METRICS.md for why each was chosen):

* ``oltp_online_backup`` — long traffic batches under back-to-back
  online backups; recovery is a small share of the run.
* ``recovery_cycles`` — short batches; the failure segment dominates.
* ``kv_btree_file`` — a B-tree on the file backend: real fsync, two
  WAL streams, archive generations and compaction.
"""

from __future__ import annotations

import bisect
import gc
import os
import random
import resource
import shutil
import time
from typing import Callable, Dict, List, Optional

from calib import WindowClock

from repro import (
    BackupConfig,
    CopyOp,
    Database,
    GeneralLogicalOp,
    PhysicalWrite,
    PhysiologicalWrite,
)
from repro.archive.manifest import FileManifestStore
from repro.btree.btree import BTree
from repro.ids import PageId

#: The first cycle warms caches and lazy set-up; its samples are dropped.
WARMUP_CYCLES = 1
#: Count metrics are read over this cycle, so they repeat exactly for a
#: seed whatever the run length.
COUNT_CYCLE = 1
#: Peak RSS is read at the end of this cycle: memory still grows with
#: the number of backups taken (retired images stay referenced), so a
#: fixed point keeps the figure independent of the host's speed.
MEMORY_CYCLE = 2
#: Pages per read request in the page workloads (one range read).
READ_SPAN = 16
#: Zipf exponent of the page workloads' target pages.
ZIPF_SKEW = 0.99


def scrambled(items: list) -> list:
    """A fixed, seed-independent order: which page or key is hot stays
    the same across seeds, so only the request stream varies with the
    seed (and runs on different seeds compare like with like)."""
    out = list(items)
    random.Random(0x5EED).shuffle(out)
    return out


def zipf_cdf(n: int, s: float) -> List[float]:
    """Cumulative weights of ranks 1..n under Zipf(s)."""
    total, cdf = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank ** s
        cdf.append(total)
    return cdf


def zipf_rank(rng: random.Random, cdf: List[float]) -> int:
    return bisect.bisect_left(cdf, rng.random() * cdf[-1])


class PageMix:
    """Seeded request stream over record pages.

    25% ``PhysicalWrite``, 30% ``PhysiologicalWrite`` (insert a record),
    30% ``CopyOp``, 15% two-read ``GeneralLogicalOp`` (concatenate two
    pages' records into a third), targets skewed by Zipf(ZIPF_SKEW).
    Every page value is a record tuple.  The stream tracks an upper bound on each
    page's record count and turns a concatenation that could exceed
    ``MAX_RECORDS`` into a physical write, so values stay bounded and
    cycles stay equal-sized.
    """

    MAX_RECORDS = 12

    def __init__(self, pages: List[PageId], seed: int):
        self.rng = random.Random(seed)
        self.pages = scrambled(pages)  # rank -> page
        self.cdf = zipf_cdf(len(self.pages), ZIPF_SKEW)
        self.size = {p: 1 for p in self.pages}
        self.serial = 0

    def pick(self) -> PageId:
        return self.pages[zipf_rank(self.rng, self.cdf)]

    def pick_other(self, *taken: PageId) -> PageId:
        while True:
            page = self.pick()
            if page not in taken:
                return page

    def batch(self, count: int) -> list:
        rng, size, ops = self.rng, self.size, []
        for _ in range(count):
            self.serial += 1
            n = self.serial
            roll = rng.random()
            target = self.pick()
            if roll < 0.25:
                ops.append(PhysicalWrite(target, ((n % 4, n),)))
                size[target] = 1
            elif roll < 0.55:
                ops.append(
                    PhysiologicalWrite(target, "insert_record", (n % 4, n))
                )
                size[target] = min(size[target] + 1, self.MAX_RECORDS)
            elif roll < 0.85:
                source = self.pick_other(target)
                ops.append(CopyOp(source, target))
                size[target] = size[source]
            else:
                a = self.pick_other(target)
                b = self.pick_other(target, a)
                bound = size[a] + size[b]
                if bound > self.MAX_RECORDS:
                    ops.append(PhysicalWrite(target, ((n % 4, n),)))
                    size[target] = 1
                else:
                    ops.append(
                        GeneralLogicalOp([a, b], [target], "concat_sorted")
                    )
                    size[target] = bound
        return ops


class Results:
    """Everything a run measured, before reduction."""

    def __init__(self, clock: WindowClock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.setup_ns: List[float] = []
        self.setup_raw_ns: List[int] = []
        #: Calibrated ns per recovery kind.
        self.recovery: Dict[str, List[float]] = {}
        self.recovery_raw: Dict[str, List[int]] = {}
        self.backup_windows_ns: List[float] = []
        self.counts: Dict[str, float] = {}
        #: (cycle, calibrated traffic ns, raw traffic ns) per cycle.
        self.cycle_traffic: List[tuple] = []
        self.mismatches: List[str] = []
        #: (cycle, kind, records replayed, records skipped) per recovery.
        self.outcomes: List[tuple] = []
        #: (cycle, start ns, first answer ns) per instant restore.
        self.first_query: List[tuple] = []
        #: (cycle, pages copied, pages dirtied) per incremental generation.
        self.generations: List[tuple] = []

    def check(self, what: str, bad: int) -> None:
        self.attempted += 1
        if bad:
            self.failed += 1
            self.mismatches.append(f"{what}: {bad} wrong value(s)")

    def add_recovery(self, kind: str, cal_ns: float, raw_ns: int) -> None:
        self.recovery.setdefault(kind, []).append(cal_ns)
        self.recovery_raw.setdefault(kind, []).append(raw_ns)

    def reset_samples(self) -> None:
        """Drop everything sampled so far (end of warm-up)."""
        clock = self.clock
        clock.samples.clear()
        clock.raw_samples.clear()
        self.recovery.clear()
        self.recovery_raw.clear()
        self.backup_windows_ns.clear()
        self.cycle_traffic.clear()


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


class Workload:
    """Shared cycle loop; subclasses supply the database and traffic."""

    name = ""
    setup_reps = 9  # set-up repetitions; setup_s is their median
    # Fewest cycles a run makes, whatever --seconds says: enough for the
    # count metrics and for 1000 samples behind every p99.
    min_cycles = 3
    window_ops = 256
    cycle_ops = 1000
    backend = "memory"

    def __init__(self, seed: int, data_root: str):
        self.seed = seed
        self.data_dir = os.path.join(data_root, self.name)
        self.clock = WindowClock(self.window_ops)
        self.res = Results(self.clock)
        self.db: Optional[Database] = None
        self.ops_done = 0
        self.log_bytes_out = 0  # bytes removed by truncation so far
        self.cycle = 0

    # ---------------------------------------------------------- set-up
    def build(self) -> Database:
        raise NotImplementedError

    def setup(self) -> None:
        """Build the starting state ``setup_reps`` times; keep the last."""
        for _ in range(self.setup_reps):
            if self.db is not None:
                self.db.close()
                self.db = None
            if self.backend == "file":
                shutil.rmtree(self.data_dir, ignore_errors=True)
            db, cal, raw = self.clock.timed(self.build)
            self.db = db
            self.res.setup_ns.append(cal)
            self.res.setup_raw_ns.append(raw)

    def close(self) -> None:
        if self.db is not None:
            self.db.close()

    # ----------------------------------------------------- log accounting
    def truncate(self) -> None:
        log = self.db.log
        before = log.stats.bytes
        self.db.truncate_log()
        self.log_bytes_out += before - log.stats.bytes

    def log_bytes_total(self) -> int:
        return self.db.log.stats.bytes + self.log_bytes_out

    # ------------------------------------------------------------- timing
    def timed(self, kind: str, fn: Callable, *args):
        """Time one recovery (kernels before and after) and keep its
        replay counts."""
        result, cal, raw = self.clock.timed(fn, *args)
        self.res.add_recovery(kind, cal, raw)
        if hasattr(result, "replayed"):
            self.res.outcomes.append(
                (self.cycle, kind, result.replayed, result.skipped)
            )
        return result

    def time_instant_restore(self, first_query: Callable) -> None:
        """Media failure, then an instant restore timed from begin to
        finish; ``ttfq`` is begin to the first query answered."""
        self.db.media_failure()
        ttfq = self.timed("instant_restore", self.instant_restore, first_query)
        cal = self.res.recovery["instant_restore"][-1]
        raw = self.res.recovery_raw["instant_restore"][-1]
        self.res.add_recovery("ttfq", ttfq * cal / raw, ttfq)

    def instant_restore(self, first_query: Callable) -> int:
        """Begin an instant restore, answer one query, then restore the
        rest on two background workers and drain.  Returns the raw ns to
        the first answer.  The workers start after the first query so
        that it does not race them for the restore lock."""
        db = self.db
        t0 = time.perf_counter_ns()
        manager = db.begin_instant_restore(verify=False, eager=False)
        first_query()
        t1 = time.perf_counter_ns()
        manager.start_background(workers=2)
        db.finish_instant_restore()
        self.res.first_query.append((self.cycle, t0, t1))
        return t1 - t0

    # -------------------------------------------------------------- cycle
    def run(self, seconds: float, on_cycle=None, min_cycles: int = 0) -> None:
        """Run cycles until ``seconds`` of wall time have passed and at
        least ``max(min_cycles, self.min_cycles)`` cycles ran.
        ``on_cycle(cycle, phase)`` is called with phase "start",
        "traffic-end" and "end"."""
        deadline = time.monotonic() + seconds
        min_cycles = max(min_cycles, self.min_cycles)
        cycle = 0
        while cycle < min_cycles or time.monotonic() < deadline:
            self.cycle = cycle
            if on_cycle is not None:
                on_cycle(cycle, "start")
            log_before, ops_before = self.log_bytes_total(), self.ops_done
            start_ns, start_raw = self.clock.calibrated_ns, self.clock.raw_ns
            self.clock.start()
            self.traffic()
            self.clock.stop()
            traffic = (
                self.clock.calibrated_ns - start_ns,
                self.clock.raw_ns - start_raw,
            )
            if cycle == COUNT_CYCLE:
                ops = self.ops_done - ops_before
                self.res.counts["log_bytes_per_op"] = (
                    self.log_bytes_total() - log_before
                ) / ops
                self.res.counts["space_amp"] = self.space_amp()
            if on_cycle is not None:
                on_cycle(cycle, "traffic-end")
            self.res.cycle_traffic.append((cycle, *traffic))
            self.failures()
            if on_cycle is not None:
                on_cycle(cycle, "end")
            if cycle == MEMORY_CYCLE:
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self.res.counts["peak_rss_mb"] = peak_kib / 1024.0
            if cycle + 1 == WARMUP_CYCLES:
                self.res.reset_samples()
            # Collect between cycles, untimed, so the heap (and the peak
            # RSS) does not depend on where collections happened to fall.
            gc.collect()
            cycle += 1

    def traffic(self) -> None:
        raise NotImplementedError

    def failures(self) -> None:
        raise NotImplementedError

    def space_amp(self) -> float:
        raise NotImplementedError


class PageWorkload(Workload):
    """Memory-backend page workloads (oltp_online_backup, recovery_cycles)."""

    partitions = 8
    partition_pages = 512
    redo_workers = 1
    backup_every = 4  # requests between backup steps
    backup_pages = 16  # pages per backup step
    checkpoint_every = 256
    back_to_back = True
    policy = "general"

    def __init__(self, seed: int, data_root: str):
        super().__init__(seed, data_root)
        self.pages = [
            PageId(p, s)
            for p in range(self.partitions)
            for s in range(self.partition_pages)
        ]
        self.mix = PageMix(self.pages, seed)
        self.config = BackupConfig(steps=8, workers=1)
        self.backup_started_ns: Optional[float] = None
        self.cut_lsn = 0
        self.cut_values: Dict[PageId, object] = {}
        self.pinned = None  # backup the cycle's archive chain stands on

    def build(self) -> Database:
        db = Database(
            pages_per_partition=[self.partition_pages] * self.partitions,
            policy=self.policy,
            redo_workers=self.redo_workers,
        )
        for i, page in enumerate(self.pages):
            db.execute(PhysicalWrite(page, ((0, i),)))
        db.checkpoint()
        return db

    # -------------------------------------------------------- backups
    def start_backup(self) -> None:
        self.db.start_backup(self.config)
        self.backup_started_ns = self.clock.elapsed_ns()

    def backup_step(self) -> None:
        db = self.db
        if not db.backup_in_progress():
            if not self.back_to_back:
                return
            self.start_backup()
        db.backup_step(self.backup_pages)
        if not db.backup_in_progress():
            self.res.backup_windows_ns.append(
                self.clock.elapsed_ns() - self.backup_started_ns
            )
            self.retire_superseded()

    def retire_superseded(self) -> None:
        db = self.db
        latest = db.latest_backup()
        for backup in db.retention.retained_backups():
            if backup is not latest and backup is not self.pinned:
                db.retire_backup(backup)
        self.truncate()

    # -------------------------------------------------------- traffic
    def traffic(self) -> None:
        db, op = self.db, self.clock.op
        batch = self.mix.batch(self.cycle_ops)
        if not self.back_to_back:
            self.start_backup()
        half = len(batch) // 2
        for i, request in enumerate(batch):
            if i == half:
                self.take_cut()
            if i % self.backup_every == 0:
                self.backup_step()
            if i % self.checkpoint_every == 0:
                db.checkpoint()
            op("write", db.execute, request)
        self.ops_done += len(batch)
        self.res.attempted += len(batch)

    def take_cut(self) -> None:
        """Point-in-time cut: remember the values (untimed) and stand
        the archive chain on the newest sealed backup."""
        self.clock.stop()
        db = self.db
        self.cut_lsn = db.log.end_lsn
        self.cut_values = {p: db.read(p) for p in self.pages}
        self.pinned = db.latest_backup()
        db.archive = None
        db.attach_archive(self.config)
        self.clock.start()

    # ------------------------------------------------------- failures
    def mismatches(self, expected: Dict[PageId, object]) -> int:
        read = self.db.read
        return sum(1 for p, v in expected.items() if read(p) != v)

    def failures(self) -> None:
        db, clock = self.db, self.clock
        gc.collect()  # leave the traffic's collection debt out of reads
        clock.start()
        before = {}
        for i in range(0, len(self.pages), READ_SPAN):
            span = self.pages[i:i + READ_SPAN]
            before.update(zip(span, clock.op("read", self.read_range, span)))
        clock.stop()

        db.crash()
        self.timed("crash_recover", db.recover, False)
        self.res.check("crash_recover", self.mismatches(before))

        db.media_failure()
        self.timed("media_recover", db.media_recover, None, None, False)
        self.res.check("media_recover", self.mismatches(before))

        hottest = self.mix.pages[0]
        self.time_instant_restore(lambda: db.read(hottest))
        self.res.check("instant_restore", self.mismatches(before))

        self.timed("pitr", db.restore_to_lsn, self.cut_lsn)
        self.res.check("pitr", self.mismatches(self.cut_values))
        db.recover(verify=False)  # roll forward past the cut again
        self.res.check("pitr_roll_forward", self.mismatches(before))

        self.pinned = None
        self.retire_superseded()

    def read_range(self, pages: List[PageId]) -> list:
        read = self.db.read
        return [read(p) for p in pages]

    def space_amp(self) -> float:
        """Bytes held (one copy of the live values, the retained backup
        images and the retained log) per byte of live page values, sizes
        measured as ``repr`` length (the memory backend has no files)."""
        db = self.db
        live = sum(len(repr(db.read(p))) for p in self.pages)
        held = live
        for backup in db.retention.retained_backups():
            held += sum(len(repr(v.value)) for v in backup.pages().values())
        held += db.log.stats.bytes
        return held / live


class OltpOnlineBackup(PageWorkload):
    name = "oltp_online_backup"
    min_cycles = 6  # 256 read requests per cycle
    window_ops = 256
    # Four whole backups (256 steps x 4 requests each) per cycle, so
    # every failure segment meets the same backup state.
    cycle_ops = 4096


class RecoveryCycles(PageWorkload):
    name = "recovery_cycles"
    min_cycles = 10  # 128 read requests per cycle
    partition_pages = 256
    redo_workers = 2
    window_ops = 128
    cycle_ops = 600
    backup_every = 2
    back_to_back = False


class KvBtreeFile(Workload):
    """B-tree on the file backend, two WAL streams, archive ticks."""

    name = "kv_btree_file"
    backend = "file"
    policy = "tree"
    setup_reps = 5
    window_ops = 128
    cycle_ops = 1600
    universe = 4096
    order = 16
    pages = 1024
    tick_every = 32
    # Requests between checkpoints, offset by half from the cycle start.
    # Every 50th request (2%) carries a checkpoint, so p99 lies inside
    # the checkpoint-affected mode rather than on its edge.
    checkpoint_every = 50

    def __init__(self, seed: int, data_root: str):
        super().__init__(seed, data_root)
        self.rng = random.Random(seed)
        self.keys = scrambled(range(self.universe))  # Pareto rank -> key
        self.preload = [(k, ("v0", k)) for k in self.keys[0::2]]
        self.model: Dict[int, tuple] = {}
        self.tree: Optional[BTree] = None
        self.serial = 0
        self.config = BackupConfig(
            backend="file",
            incremental_every=400,
            pages_per_tick=8,
        )
        self.cut_lsn = 0
        self.cut_model: Dict[int, tuple] = {}
        self.chain_no = 0
        self.pending: list = []
        self.issued = 0
        self.wrong_reads = 0

    def build(self) -> Database:
        db = Database(
            pages_per_partition=[self.pages],
            policy=self.policy,
            backend="file",
            data_dir=self.data_dir,
            log_streams=2,
        )
        tree = BTree(db, order=self.order).create()
        for key, payload in self.preload:
            tree.insert(key, payload)
        db.checkpoint()
        self.tree = tree
        self.model = dict(self.preload)
        return db

    def requests(self, count: int) -> list:
        rng, out = self.rng, []
        for _ in range(count):
            rank = min(int(rng.paretovariate(1.16)) - 1, self.universe - 1)
            key = self.keys[rank]
            if rng.random() < 0.5:
                out.append((key, None))
            else:
                self.serial += 1
                out.append((key, ("v", self.serial)))
        return out

    def search(self, key: int) -> None:
        if self.tree.search(key) != self.model.get(key):
            self.wrong_reads += 1

    def issue(self) -> None:
        if not self.pending:
            return
        key, payload = self.pending.pop()
        self.ops_done += 1
        self.res.attempted += 1
        self.issued += 1
        if payload is None:
            self.clock.op("read", self.search, key)
        else:
            self.clock.op("write", self.tree.insert, key, payload)
            self.model[key] = payload
        if self.issued % self.checkpoint_every == self.checkpoint_every // 2:
            self.db.checkpoint()

    def archive_tick(self, archive) -> None:
        db = self.db
        dirtied = len(db.updated_since_backup | db.cm.rec.dirty_pages())
        produced = archive.tick(tick=self.issue)
        if produced is not None:
            self.res.generations.append(
                (self.cycle, produced.copied_count(), dirtied)
            )

    def traffic(self) -> None:
        db = self.db
        self.pending = self.requests(self.cycle_ops)[::-1]
        self.issued = 0
        self.wrong_reads = 0
        # A new chain each cycle: checkpoint, then a full generation
        # swept while traffic runs; the previous chain is retired.
        previous = db.archive.chain() if db.archive is not None else []
        db.checkpoint()
        db.archive = None
        self.chain_no += 1
        archive = db.attach_archive(
            self.config,
            manifest_store=FileManifestStore(
                os.path.join(self.data_dir, f"chain{self.chain_no:04d}")
            ),
            adopt=False,
        )
        started = self.clock.elapsed_ns()
        archive.run_full(tick=self.issue)
        self.res.backup_windows_ns.append(self.clock.elapsed_ns() - started)
        for backup in reversed(previous):
            db.retire_backup(backup)
        self.truncate()
        half = len(self.pending) // 2
        cut_taken = False
        while self.pending:
            if not cut_taken and len(self.pending) <= half:
                self.take_cut()
                cut_taken = True
            self.issue()
            if self.issued % self.tick_every == 0:
                self.archive_tick(archive)
        self.res.failed += self.wrong_reads
        if self.wrong_reads:
            self.res.mismatches.append(f"search: {self.wrong_reads} wrong")

    def take_cut(self) -> None:
        self.clock.stop()
        self.cut_lsn = self.db.log.end_lsn
        self.cut_model = dict(self.model)
        self.clock.start()

    def mismatches(self, expected: Dict[int, tuple]) -> int:
        """Re-open the tree and count keys whose payload differs from
        what was acknowledged (missing keys count too)."""
        self.tree = BTree.attach(self.db, order=self.order)
        got = dict(self.tree.items())
        return sum(1 for k, v in expected.items() if got.get(k) != v) + sum(
            1 for k in got if k not in expected
        )

    def failures(self) -> None:
        db = self.db
        expected = dict(self.model)

        db.crash()
        self.timed("crash_recover", db.recover, False)
        self.res.check("crash_recover", self.mismatches(expected))

        # Point-in-time restore needs the links sealed before the cut,
        # so the chain is compacted only afterwards.
        self.timed("pitr", db.restore_to_lsn, self.cut_lsn)
        self.res.check("pitr", self.mismatches(self.cut_model))
        db.recover(verify=False)
        self.res.check("pitr_roll_forward", self.mismatches(expected))
        if db.archive.links():
            self.timed("compact", db.archive.compact)

        db.media_failure()
        self.timed("media_recover", db.media_recover, None, None, False)
        self.res.check("media_recover", self.mismatches(expected))

        hottest = self.keys[0]
        self.time_instant_restore(
            lambda: BTree.attach(db, order=self.order).search(hottest)
        )
        self.res.check("instant_restore", self.mismatches(expected))

    def space_amp(self) -> float:
        """Data-directory bytes per byte of live key/payload pairs."""
        live = sum(len(repr(item)) for item in self.model.items())
        return dir_bytes(self.data_dir) / live


WORKLOADS = {
    w.name: w for w in (OltpOnlineBackup, RecoveryCycles, KvBtreeFile)
}
