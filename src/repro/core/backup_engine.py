"""The on-line backup engine (section 3): the paper's contribution.

A :class:`BackupRun` sweeps the stable database in backup order, in N
coarse steps per partition.  The cache manager is bypassed for the copy
itself — pages are read straight from S — and the only synchronization is
the per-partition backup latch taken exclusively when D/P move (the
"loosely coupled" design of section 1.4).

Incremental backups (section 6.1) pass an ``update_set``: only those
pages are copied, the progress frontier still sweeping the full position
space so the flush policies stay meaningful.  A page outside the set that
is flushed while still "pending" would silently miss the backup, so the
run either (a) treats it as Done — forcing Iw/oF (conservative), or
(b) with ``dynamic_extend`` adds it to the copy set on the spot, since
the frontier has yet to reach it.

Section 3.4 observes that disjoint partitions with partition-local D/P
bounds "permit us to back up partitions in parallel".
:class:`ParallelBackupRun` realizes that: planning (and every D/P move)
stays on the coordinating thread, the planned span *reads* fan out to a
``concurrent.futures.ThreadPoolExecutor`` taking the per-partition latch
shared, and the span *records* into B happen back on the coordinator in
plan order — so a parallel sweep produces a byte-identical sealed backup
to the serial batched sweep while overlapping the per-span device time of
independent partitions (and, on multi-core hosts, their CRC work).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait as futures_wait
from typing import Dict, List, Optional, Set

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cache.cache_manager import CacheManager
from repro.errors import BackupError, BackupInProgressError, TornWriteError
from repro.ids import PageId
from repro.obs import events as ev
from repro.sim.faults import with_retries
from repro.storage.backup_db import BackupDatabase


class BackupRun:
    """State of one in-progress backup sweep."""

    def __init__(
        self,
        cm: "CacheManager",
        backup: BackupDatabase,
        steps: int,
        update_set: Optional[Set[PageId]] = None,
        dynamic_extend: bool = True,
        batched: bool = True,
    ):
        self.cm = cm
        self.backup = backup
        self.steps = steps
        self.layout = cm.layout
        self.dynamic_extend = dynamic_extend
        # Batched sweeps copy contiguous runs of pages per partition with
        # one bulk read per run; the serial path copies page-at-a-time in
        # strict round-robin order.  Both produce the same backup content
        # (only the copy *order* differs within a single copy_some call).
        self.batched = batched
        # None means full backup: copy everything.
        self.copy_set: Optional[Set[PageId]] = (
            set(update_set) if update_set is not None else None
        )
        self.skipped_pages = 0
        self._boundaries: Dict[int, List[int]] = {}
        self._step_index: Dict[int, int] = {}
        self._cursor: Dict[int, int] = {}
        # Pages (copied or skipped) the frontier has yet to pass, summed
        # over all partitions — makes ``finished_copying`` O(1) instead of
        # a per-call scan over every partition cursor.
        self._remaining_total = self.layout.total_pages()
        self._sealed = False
        if cm.tracer.enabled:
            cm.tracer.emit(
                ev.BACKUP_BEGIN,
                backup_id=backup.backup_id,
                steps=steps,
                batched=batched,
                incremental=self.copy_set is not None,
                scan_start=backup.media_scan_start_lsn,
            )
        for partition in range(self.layout.num_partitions):
            boundaries = self.layout.step_boundaries(partition, steps)
            self._boundaries[partition] = boundaries
            self._step_index[partition] = 0
            self._cursor[partition] = 0
            with cm.progress_transaction(partition) as progress:
                progress.begin(boundaries[0])
        if self.copy_set is not None:
            self.cm.copy_set_filter = self.will_copy

    # ------------------------------------------------------------- filtering

    def will_copy(self, page_id: PageId) -> bool:
        """Will this page's location be captured by the sweep?

        Called by the cache manager under the partition's shared latch,
        so the progress values are stable while we consult them.
        """
        if self.copy_set is None or page_id in self.copy_set:
            return True
        if not self.dynamic_extend:
            return False
        progress = self.cm.progress[page_id.partition]
        position = self.layout.position(page_id)
        if progress.active and position >= progress.pending:
            # Frontier has not reached it: extend the copy set.
            self.copy_set.add(page_id)
            return True
        return False

    # --------------------------------------------------------------- copying

    @property
    def is_sealed(self) -> bool:
        return self._sealed

    @property
    def finished_copying(self) -> bool:
        return self._remaining_total <= 0

    def copy_some(self, pages: int = 1, batched: Optional[bool] = None) -> int:
        """Copy up to ``pages`` pages of the sweep.

        Returns the number of pages actually copied (skipped pages — those
        outside an incremental copy set — do not count but do advance the
        frontier).

        The batched path (the run's default, overridable per call) copies
        the same page set a serial round-robin sweep would, but as
        contiguous per-partition runs with one bulk read and one step
        check per run; step boundaries still move D/P under the exclusive
        latch at exactly the same frontier positions.  Use
        ``batched=False`` for strict page-at-a-time round-robin order
        (e.g. when exploring interleavings).
        """
        if self._sealed:
            raise BackupError("backup already sealed")
        use_batched = self.batched if batched is None else batched
        with self.cm.tracer.span(
            "backup.sweep", pages=pages, batched=use_batched
        ):
            if use_batched:
                return self._copy_batched(pages)
            return self._copy_serial(pages)

    # -------------------------------------------------------- serial copying

    def _copy_serial(self, pages: int) -> int:
        """Page-at-a-time round-robin sweep (the paper's Figure 3 loop)."""
        copied = 0
        while copied < pages and self._remaining_total > 0:
            advanced = False
            for partition in range(self.layout.num_partitions):
                if copied >= pages:
                    break
                if self._copy_next(partition):
                    advanced = True
                    cursor = self._cursor[partition]
                    page_id = PageId(partition, cursor - 1)
                    if self.copy_set is None or page_id in self.copy_set:
                        copied += 1
            if not advanced:
                break
        return copied

    def _copy_next(self, partition: int) -> bool:
        """Copy (or skip) the next page of ``partition``; advance steps."""
        size = self.layout.partition_size(partition)
        cursor = self._cursor[partition]
        if cursor >= size:
            return False
        progress = self.cm.progress[partition]
        if cursor >= progress.pending:
            # Current step's doubt region exhausted: advance under latch.
            self._advance_step(partition)
        page_id = PageId(partition, cursor)
        if self.copy_set is None or page_id in self.copy_set:
            metrics = self.cm.metrics
            version = with_retries(
                lambda: self.cm.stable.read_page(page_id), metrics=metrics
            )
            with_retries(
                lambda: self.backup.record_page(page_id, version),
                metrics=metrics,
            )
            metrics.backup_pages_copied += 1
        else:
            self.skipped_pages += 1
        self._cursor[partition] = cursor + 1
        self._remaining_total -= 1
        return True

    # ------------------------------------------------------- batched copying

    def _copy_batched(self, pages: int) -> int:
        """Copy the same page set as ``_copy_serial`` via bulk runs.

        Planning first reproduces the serial round-robin schedule with
        pure integer arithmetic (advancing cursors and step boundaries at
        identical frontier positions), accumulating contiguous
        per-partition spans; the pages are then copied with one bulk
        stable read and one bulk backup record per span.  No cache
        manager activity can interleave inside a single call, so the
        resulting backup content is identical to the serial path's.
        """
        spans: List[tuple] = []
        if self.copy_set is None:
            copied = self._plan_full(pages, spans)
        else:
            copied = self._plan_filtered(pages, spans)
        if not spans:
            return copied
        stable = self.cm.stable
        metrics = self.cm.metrics
        for partition, start, stop in spans:
            entries = with_retries(
                lambda: stable.read_pages(
                    [PageId(partition, slot) for slot in range(start, stop)]
                ),
                metrics=metrics,
            )
            self._record_span(entries)
            metrics.backup_pages_copied += stop - start
            metrics.backup_bulk_reads += 1
        return copied

    def _record_span(self, entries) -> None:
        """Record one bulk span into B, surviving torn span writes.

        A torn write lands only a prefix (the device reports how much);
        the remainder is re-issued from the already-read versions — the
        backup process still holds its copy buffer, so no re-read of S is
        needed and the span's content is unchanged.  After a resumed
        span the whole span is verified against its integrity envelopes:
        a tear is exactly when a device may have written garbage, so the
        claim "torn spans are detected by checksums" is made true here
        rather than assumed.
        """
        metrics = self.cm.metrics
        entries = list(entries)
        start = 0
        torn = False
        while start < len(entries):
            try:
                with_retries(
                    lambda: self.backup.record_pages(entries[start:]),
                    metrics=metrics,
                )
                break
            except TornWriteError as tear:
                start += tear.landed
                metrics.torn_spans_resumed += 1
                torn = True
        if torn:
            self.backup.verify_pages(pid for pid, _ver in entries)

    def _plan_full(self, budget: int, spans: List[tuple]) -> int:
        """Plan a full-backup batch: round-robin budget split, O(steps).

        A serial sweep deals the budget one page per active partition per
        round, partitions dropping out as they exhaust; the final partial
        round favours lower-numbered partitions.  That allocation is
        computed here in closed form per phase, never per page.
        """
        capacity: Dict[int, int] = {}
        for partition in range(self.layout.num_partitions):
            cap = self.layout.partition_size(partition) - self._cursor[partition]
            if cap > 0:
                capacity[partition] = cap
        active = sorted(capacity)
        allocation: Dict[int, int] = {}
        remaining = budget
        while remaining > 0 and active:
            rounds = min(
                remaining // len(active),
                min(capacity[p] for p in active),
            )
            if rounds:
                for p in active:
                    allocation[p] = allocation.get(p, 0) + rounds
                    capacity[p] -= rounds
                remaining -= rounds * len(active)
                active = [p for p in active if capacity[p] > 0]
                continue
            # Partial final round: one page each, lowest partitions first.
            for p in active[:remaining]:
                allocation[p] = allocation.get(p, 0) + 1
            remaining = 0
        copied = 0
        for partition in sorted(allocation):
            count = allocation[partition]
            copied += count
            self._remaining_total -= count
            self._append_runs(partition, count, spans)
        return copied

    def _append_runs(
        self, partition: int, count: int, spans: List[tuple]
    ) -> None:
        """Split ``count`` pages from the partition's cursor into spans,
        advancing D/P under the exclusive latch exactly where the serial
        sweep would (whenever the frontier meets the pending boundary)."""
        pos = self._cursor[partition]
        progress = self.cm.progress[partition]
        left = count
        while left > 0:
            if pos >= progress.pending:
                self._advance_step(partition)
            run = min(left, progress.pending - pos)
            spans.append((partition, pos, pos + run))
            pos += run
            left -= run
        self._cursor[partition] = pos

    def _plan_filtered(self, budget: int, spans: List[tuple]) -> int:
        """Plan an incremental batch: the serial schedule page by page.

        Membership in the copy set must be tested per page, so the plan
        walks the round-robin schedule exactly — but only with integer
        work, coalescing consecutive copied pages into spans for the bulk
        read/record stage.
        """
        num_partitions = self.layout.num_partitions
        sizes = [
            self.layout.partition_size(p) for p in range(num_partitions)
        ]
        progress_map = self.cm.progress
        copy_set = self.copy_set
        open_spans: Dict[int, List[int]] = {}
        copied = 0
        while copied < budget and self._remaining_total > 0:
            advanced = False
            for partition in range(num_partitions):
                if copied >= budget:
                    break
                pos = self._cursor[partition]
                if pos >= sizes[partition]:
                    continue
                progress = progress_map[partition]
                if pos >= progress.pending:
                    self._advance_step(partition)
                if PageId(partition, pos) in copy_set:
                    span = open_spans.get(partition)
                    if span is not None and span[1] == pos:
                        span[1] = pos + 1
                    else:
                        if span is not None:
                            spans.append((partition, span[0], span[1]))
                        open_spans[partition] = [pos, pos + 1]
                    copied += 1
                else:
                    self.skipped_pages += 1
                self._cursor[partition] = pos + 1
                self._remaining_total -= 1
                advanced = True
            if not advanced:
                break
        for partition, span in open_spans.items():
            spans.append((partition, span[0], span[1]))
        return copied

    def _advance_step(self, partition: int) -> None:
        index = self._step_index[partition] + 1
        boundaries = self._boundaries[partition]
        if index >= len(boundaries):
            raise BackupError(
                f"partition {partition}: no further step boundaries"
            )
        with self.cm.progress_transaction(partition) as progress:
            progress.advance(boundaries[index])
            if self.cm.tracer.enabled:
                self.cm.tracer.emit(
                    ev.BACKUP_STEP_ADVANCE,
                    partition=partition,
                    step=progress.steps_taken,
                    done=progress.done,
                    pending=progress.pending,
                )
        self._step_index[partition] = index

    def seal(self) -> BackupDatabase:
        """Complete the backup: final D/P reset under the latches."""
        if self._sealed:
            raise BackupError("backup already sealed")
        if not self.finished_copying:
            raise BackupError("seal() before all pages were copied")
        self.backup.complete(self.cm.log.end_lsn)
        for partition in range(self.layout.num_partitions):
            with self.cm.progress_transaction(partition) as progress:
                progress.finish()
        if self.cm.copy_set_filter is self.will_copy:
            self.cm.copy_set_filter = None
        self._sealed = True
        self.cm.metrics.backups_completed += 1
        if self.cm.tracer.enabled:
            self.cm.tracer.emit(
                ev.BACKUP_COMPLETE,
                backup_id=self.backup.backup_id,
                completion_lsn=self.backup.completion_lsn,
                pages=self.cm.metrics.backup_pages_copied,
            )
        return self.backup

    def abort(self) -> None:
        self.backup.abort()
        for partition in range(self.layout.num_partitions):
            progress = self.cm.progress[partition]
            if progress.active:
                progress.abort()
        if self.cm.copy_set_filter is self.will_copy:
            self.cm.copy_set_filter = None
        self._sealed = True
        self.cm.metrics.backups_aborted += 1
        if self.cm.tracer.enabled:
            self.cm.tracer.emit(
                ev.BACKUP_ABORT, backup_id=self.backup.backup_id
            )


class ParallelBackupRun(BackupRun):
    """A batched sweep whose span reads run on a thread pool.

    The division of labour keeps the paper's protocol — and the backup
    image — deterministic:

    * **Planning** (``_plan_full`` / ``_plan_filtered``) runs on the
      coordinating thread, so every D/P advance happens under the
      exclusive latch in exactly the serial schedule's order.
    * **Span reads** are submitted to the pool.  Each worker takes the
      span's partition latch *shared* around its bulk read (coexisting
      with concurrent flushes, excluded by a D/P move) and accumulates
      I/O-retry accounting into a private metrics shard.
    * **Span records** into B are consumed on the coordinating thread in
      plan order — B's insertion order, and therefore the sealed image
      and its archive serialization, are byte-identical to the serial
      batched sweep's.

    Faults raised inside a worker (transients exhaust their retries,
    crashes, media failures) propagate to the coordinator via
    ``future.result()``; before re-raising, the remaining span futures
    are cancelled and awaited so no worker touches the stores while the
    caller unwinds into crash recovery.  Metric shards are absorbed
    deterministically on both paths.
    """

    def __init__(
        self,
        cm: "CacheManager",
        backup: BackupDatabase,
        steps: int,
        update_set: Optional[Set[PageId]] = None,
        dynamic_extend: bool = True,
        workers: int = 2,
    ):
        if workers < 1:
            raise BackupError("ParallelBackupRun needs workers >= 1")
        super().__init__(
            cm,
            backup,
            steps,
            update_set=update_set,
            dynamic_extend=dynamic_extend,
            batched=True,
        )
        self.workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix=f"backup-{self.backup.backup_id}",
            )
        return self._pool

    def _shutdown_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _read_span(self, span, shard):
        partition, start, stop = span
        stable = self.cm.stable
        with self.cm.latches[partition].shared():
            return with_retries(
                lambda: stable.read_pages(
                    [PageId(partition, slot) for slot in range(start, stop)]
                ),
                metrics=shard,
            )

    def _copy_batched(self, pages: int) -> int:
        spans: List[tuple] = []
        if self.copy_set is None:
            copied = self._plan_full(pages, spans)
        else:
            copied = self._plan_filtered(pages, spans)
        if not spans:
            return copied
        pool = self._ensure_pool()
        metrics = self.cm.metrics
        tasks = []
        for span in spans:
            shard = metrics.shard()
            tasks.append((span, shard, pool.submit(self._read_span, span, shard)))
        try:
            for (partition, start, stop), _shard, future in tasks:
                entries = future.result()
                self._record_span(entries)
                metrics.backup_pages_copied += stop - start
                metrics.backup_bulk_reads += 1
        except BaseException:
            # Quiesce the pool before unwinding: a worker still reading
            # while the caller runs crash recovery would race the stores.
            for _span, _shard, future in tasks:
                future.cancel()
            futures_wait([task[2] for task in tasks])
            raise
        finally:
            for _span, shard, _future in tasks:
                metrics.absorb(shard)
        return copied

    def seal(self) -> BackupDatabase:
        self._shutdown_pool()
        return super().seal()

    def abort(self) -> None:
        self._shutdown_pool()
        super().abort()


class ProcessPoolBackupRun(ParallelBackupRun):
    """A batched sweep whose span reads run in worker *processes*.

    Requires a file-backed stable database: the coordinator plans spans
    and captures picklable ``(path, [(slot, offset, length)])`` tasks
    under the shared partition latch
    (:meth:`~repro.storage.file_backend.FileStableDatabase.span_task`,
    which runs the same protocol-boundary checks as ``read_pages``);
    workers are shared-nothing — they ``pread`` and checksum-verify raw
    record bytes and return plain data, never exceptions.  Because the
    page files are append-only, the captured offsets remain a consistent
    snapshot no matter what is installed concurrently.  Records are
    consumed on the coordinator in plan order, so the sealed image is
    byte-identical to the serial and thread-parallel sweeps.
    """

    def __init__(
        self,
        cm: "CacheManager",
        backup: BackupDatabase,
        steps: int,
        update_set: Optional[Set[PageId]] = None,
        dynamic_extend: bool = True,
        workers: int = 2,
    ):
        super().__init__(
            cm,
            backup,
            steps,
            update_set=update_set,
            dynamic_extend=dynamic_extend,
            workers=workers,
        )
        if not hasattr(cm.stable, "span_task"):
            raise BackupError(
                "executor='process' requires a file-backed stable database "
                "(span tasks must be picklable shared-nothing file reads)"
            )

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # platforms without fork
                ctx = None
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=ctx
            )
        return self._pool

    def _submit_span(self, span, pool):
        from repro.storage.file_backend import read_span_file

        partition, start, stop = span
        stable = self.cm.stable
        with self.cm.latches[partition].shared():
            path, entries = with_retries(
                lambda: stable.span_task(partition, start, stop),
                metrics=self.cm.metrics,
            )
        return pool.submit(read_span_file, path, entries)

    def _copy_batched(self, pages: int) -> int:
        spans: List[tuple] = []
        if self.copy_set is None:
            copied = self._plan_full(pages, spans)
        else:
            copied = self._plan_filtered(pages, spans)
        if not spans:
            return copied
        pool = self._ensure_pool()
        metrics = self.cm.metrics
        stable = self.cm.stable
        tasks = [(span, self._submit_span(span, pool)) for span in spans]
        try:
            for (partition, start, stop), future in tasks:
                rows = future.result()
                self._record_span(stable.resolve_span(partition, rows))
                metrics.backup_pages_copied += stop - start
                metrics.backup_bulk_reads += 1
        except BaseException:
            for _span, future in tasks:
                future.cancel()
            futures_wait([task[1] for task in tasks])
            raise
        return copied


class BackupEngine:
    """Creates and tracks backup runs against one cache manager.

    ``storage`` (a :class:`~repro.storage.api.StorageBackend`) is the
    factory every backup image is created through — the file backend
    lands each image on its own append-only file.  Without one, plain
    in-memory :class:`BackupDatabase` images are constructed directly.
    """

    def __init__(self, cm: "CacheManager", storage=None):
        self.cm = cm
        self.storage = storage
        self.completed: List[BackupDatabase] = []
        self.active: Optional[BackupRun] = None
        self._next_id = 1
        # Optional FaultPlane propagated to every backup image created.
        self.faults = None

    def attach_faults(self, plane):
        """Attach a fault plane, propagated to every image created."""
        self.faults = plane
        return plane

    def _create_backup(self, scan_start, base_backup_id):
        if self.storage is not None:
            backup = self.storage.create_backup(
                self._next_id, scan_start, base_backup_id=base_backup_id
            )
        else:
            backup = BackupDatabase(
                self._next_id, scan_start, base_backup_id=base_backup_id
            )
        backup.attach_faults(self.faults)
        self._next_id += 1
        return backup

    def allocate_backup(self, scan_start, base_backup_id=None):
        """Create an engine-numbered backup image outside a sweep.

        The archive compactor's entry point: a merged generation is not
        produced by a D/P sweep, but it must still come from the same id
        space, the same storage backend, and the same fault plane as
        swept images (so BACKUP_RECORD faults fire during compaction
        writes too).  The caller records pages and seals it explicitly.
        """
        return self._create_backup(scan_start, base_backup_id)

    def start_backup(
        self,
        steps: int = 8,
        update_set: Optional[Set[PageId]] = None,
        base_backup: Optional[BackupDatabase] = None,
        dynamic_extend: bool = True,
        batched: bool = True,
        workers: int = 1,
        executor: str = "thread",
    ) -> BackupRun:
        if self.active is not None and not self.active.is_sealed:
            raise BackupInProgressError("a backup is already in progress")
        if workers > 1 and not batched:
            raise BackupError(
                "parallel sweeps (workers > 1) require batched=True"
            )
        if executor not in ("thread", "process"):
            raise BackupError(f"unknown sweep executor {executor!r}")
        scan_start = self.cm.rec.truncation_point(self.cm.log.end_lsn)
        # The scan start may not exceed end_lsn + 1; for media recovery we
        # additionally never scan later than the backup's own start point.
        scan_start = min(scan_start, self.cm.log.end_lsn + 1)
        backup = self._create_backup(
            scan_start,
            base_backup.backup_id if base_backup is not None else None,
        )
        if workers > 1 and executor == "process":
            run: BackupRun = ProcessPoolBackupRun(
                self.cm,
                backup,
                steps,
                update_set=update_set,
                dynamic_extend=dynamic_extend,
                workers=workers,
            )
        elif workers > 1:
            run = ParallelBackupRun(
                self.cm,
                backup,
                steps,
                update_set=update_set,
                dynamic_extend=dynamic_extend,
                workers=workers,
            )
        else:
            run = BackupRun(
                self.cm,
                backup,
                steps,
                update_set=update_set,
                dynamic_extend=dynamic_extend,
                batched=batched,
            )
        self.active = run
        return run

    def copy_some(self, pages: int = 1) -> int:
        if self.active is None or self.active.is_sealed:
            raise BackupError("no backup in progress")
        copied = self.active.copy_some(pages)
        if self.active.finished_copying:
            self.completed.append(self.active.seal())
            self.active = None
        return copied

    def run_to_completion(self, pages_per_tick: int = 8, tick=None) -> BackupDatabase:
        """Drive the active backup to completion, optionally invoking
        ``tick()`` between copy batches (for interleaved workloads)."""
        if self.active is None:
            raise BackupError("no backup in progress")
        while self.active is not None:
            self.copy_some(pages_per_tick)
            if tick is not None and self.active is not None:
                tick()
        return self.completed[-1]

    def discard(self, backup: BackupDatabase) -> None:
        """Forget a sealed image (a retired backup): drop it from
        ``completed`` and release it from the storage backend."""
        if backup in self.completed:
            self.completed.remove(backup)
        if self.storage is not None:
            self.storage.release(backup)

    def abort_active(self) -> None:
        if self.active is not None and not self.active.is_sealed:
            self.active.abort()
        self.active = None

    def latest_backup(self) -> Optional[BackupDatabase]:
        return self.completed[-1] if self.completed else None


class ParallelBackupEngine(BackupEngine):
    """A :class:`BackupEngine` whose runs sweep on a thread pool.

    Convenience front for the concurrent subsystem: every
    :meth:`start_backup` defaults to ``workers`` pool threads (pass
    ``workers=`` explicitly to override per run, ``workers=1`` for a
    plain serial run).  ``Database`` routes here automatically when a
    :class:`~repro.core.config.BackupConfig` carries ``workers > 1``.
    """

    def __init__(self, cm: "CacheManager", workers: int = 4, storage=None):
        if workers < 1:
            raise BackupError("ParallelBackupEngine needs workers >= 1")
        super().__init__(cm, storage=storage)
        self.workers = workers

    def start_backup(
        self,
        steps: int = 8,
        update_set: Optional[Set[PageId]] = None,
        base_backup: Optional[BackupDatabase] = None,
        dynamic_extend: bool = True,
        batched: bool = True,
        workers: Optional[int] = None,
        executor: str = "thread",
    ) -> BackupRun:
        return super().start_backup(
            steps,
            update_set=update_set,
            base_backup=base_backup,
            dynamic_extend=dynamic_extend,
            batched=batched,
            workers=self.workers if workers is None else workers,
            executor=executor,
        )
