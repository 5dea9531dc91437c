"""The touched-only recovery finish equals a full scan, on every flavour.

Recovery audits for POISON and writes back only the pages replay added
or replaced (``repro.recovery.settle``).  This file runs twin databases
through the same seeded history and failure, one with the real finish
and one with a test-local full-scan reference — every page of the
recovery state audited with ``contains_poison`` and written back — and
requires identical outcomes: ``RecoveryOutcome`` fields (poisoned and
quarantined order included), ``RESTORE_DROP``/``QUARANTINE`` events,
``pages_dropped_out_of_layout``, and the final stable store (values and
page LSNs).  Both twins must also end with no damaged stable page and
no POISON in any store.

Histories are adversarial for the audit: ops that raise on a lost input
(their targets become POISON), ops that carry a lost input along inside
their result (nested POISON), bit-rotted stable/backup pages (quarantine
seeds, or garbage inputs where a flavour does not screen its image), and
log records that write a page outside the layout.

The write-count pins at the end check the payoff: recovery writes what
the slice changed, not the whole database.
"""

import contextlib
import random
import shutil
import tempfile
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import incremental, partial_recovery
from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import PageId
from repro.obs import events as ev
from repro.obs.tracer import Tracer
from repro.ops.logical import CopyOp, GeneralLogicalOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.ops.registry import as_records, default_registry
from repro.recovery import (
    crash_recovery,
    instant_restore,
    media_recovery,
    selective_redo,
)
from repro.recovery.redo import contains_poison

PARTITIONS, SLOTS = 2, 8
PAGES = [PageId(p, s) for p in range(PARTITIONS) for s in range(SLOTS)]
#: A page no layout here holds; only raw log records write it.
OUTSIDE = PageId(0, 99)
FLAVOURS = (
    "crash", "media", "chain", "pitr", "selective", "partition", "instant",
)
BACKENDS = ("memory", "file")
#: Every module whose recovery finish goes through ``settle``.
SETTLE_USERS = (
    crash_recovery, media_recovery, incremental, selective_redo,
    partial_recovery, instant_restore,
)


# Their records use keys no other op does (-2, -1), so record pages
# stay sortable by (key, payload).
def _strict(value):
    """A transform that raises unless its input is a record page."""
    if isinstance(value, tuple) and as_records(value) is value:
        return ((-2, len(value)),)
    raise TypeError(f"not a record page: {value!r}")


def _wrap(value):
    """A transform that carries its input along inside its result."""
    return ((-1, value),)


for _name, _fn in (("settle_strict", _strict), ("settle_wrap", _wrap)):
    if _name not in default_registry:
        default_registry.register(_name, _fn)


def full_scan(state, before, seeds=()):
    """The reference: every entry of the recovery state is touched."""
    return list(state)


@contextlib.contextmanager
def reference_finish():
    with contextlib.ExitStack() as stack:
        for module in SETTLE_USERS:
            stack.enter_context(
                mock.patch.object(module, "touched_pages", full_scan)
            )
        yield


# ------------------------------------------------------------ histories


def make_ops(rng, count, confined):
    """``count`` ops over PAGES; ``confined`` keeps each op inside its
    target's partition (partition recovery's precondition)."""
    ops = []
    for n in range(count):
        target = rng.choice(PAGES)
        pool = [
            p for p in PAGES
            if p != target
            and (not confined or p.partition == target.partition)
        ]
        roll = rng.random()
        if roll < 0.2:
            ops.append(PhysicalWrite(target, ((n % 3, n),)))
        elif roll < 0.4:
            ops.append(
                PhysiologicalWrite(target, "insert_record", (n % 3, n))
            )
        elif roll < 0.6:
            ops.append(CopyOp(rng.choice(pool), target))
        elif roll < 0.7:
            a, b = rng.sample(pool, 2)
            ops.append(GeneralLogicalOp([a, b], [target], "concat_sorted"))
        elif roll < 0.85:
            ops.append(
                GeneralLogicalOp([rng.choice(pool)], [target], "settle_wrap")
            )
        else:
            ops.append(
                GeneralLogicalOp([rng.choice(pool)], [target], "settle_strict")
            )
    return ops


class Run:
    """One seeded history on one database (one twin)."""

    def __init__(self, backend, plan):
        self.plan = plan
        self.rng = random.Random(plan["seed"])
        self.dirs = []
        self.tracer = Tracer()
        self.db = Database(
            pages_per_partition=[SLOTS] * PARTITIONS,
            policy="general",
            tracer=self.tracer,
            backend=backend,
            data_dir=self._dir() if backend == "file" else None,
        )
        for i, page in enumerate(PAGES):
            self.db.execute(PhysicalWrite(page, ((0, i),)))
        self.db.checkpoint()

    def _dir(self):
        path = tempfile.mkdtemp(prefix="settle-")
        self.dirs.append(path)
        return path

    def close(self):
        self.db.close()
        for path in self.dirs:
            shutil.rmtree(path, ignore_errors=True)

    def traffic(self, count, confined=False, source=None):
        db, rng = self.db, self.rng
        outside_at = (
            rng.randrange(count) if self.plan["outside"] and count else -1
        )
        for i, op in enumerate(make_ops(rng, count, confined)):
            tag = source if source and rng.random() < 0.3 else ""
            db.execute(op, source=tag)
            if i == outside_at:
                # Written straight to the log: no layout slot holds it.
                db.log.append(PhysicalWrite(OUTSIDE, ((9, i),)))
            if self.plan["installs"] and rng.random() < 0.25:
                db.install_some(rng.randint(1, 3), rng)

    def victims(self, candidates):
        candidates = sorted(candidates)
        count = min(self.plan["damage"], len(candidates))
        return self.rng.sample(candidates, count)

    def rot_images(self, images, candidates=None):
        pool = set(candidates) if candidates is not None else None
        pages = {
            pid for image in images for pid in image.copy_order()
            if pool is None or pid in pool
        }
        for pid in self.victims(pages):
            for image in images:
                if pid in image.copy_order():
                    image._rot_cell(pid)

    def full_backup(self, confined=False):
        db = self.db
        db.start_backup(BackupConfig(steps=4))
        while db.backup_in_progress():
            db.backup_step(4)
            self.traffic(2, confined)
        return db.latest_backup()

    # ---------------------------------------------------------- flavours

    def crash(self):
        db, n = self.db, self.plan["ops"]
        self.traffic(n)
        # No backup and a truncated log: damage can only be quarantined.
        db.checkpoint()
        db.truncate_log()
        self.traffic(n)
        for pid in self.victims(PAGES):
            db.stable._rot_cell(pid)
        db.crash()
        return db.recover()

    def media(self):
        self.full_backup()
        self.traffic(self.plan["ops"])
        self.rot_images([self.db.latest_backup()])
        self.db.media_failure()
        return self.db.media_recover()

    def instant(self):
        self.full_backup()
        self.traffic(self.plan["ops"])
        self.rot_images([self.db.latest_backup()])
        db = self.db
        db.media_failure()
        db.begin_instant_restore(eager=False)
        db.read(PAGES[self.rng.randrange(len(PAGES))])
        return db.finish_instant_restore()

    def _chain(self):
        archive = self.db.attach_archive(BackupConfig(steps=4))
        archive.run_full()
        self.traffic(self.plan["ops"])
        archive.run_incremental()
        return archive

    def chain(self):
        archive = self._chain()
        self.traffic(self.plan["ops"])
        self.rot_images(archive.chain())
        self.db.media_failure()
        return self.db.media_recover_chain(archive.chain())

    def pitr(self):
        archive = self._chain()
        self.traffic(self.plan["ops"] // 2)
        cut = self.db.log.end_lsn
        self.traffic(self.plan["ops"])
        self.rot_images(archive.chain())
        return self.db.restore_to_lsn(cut)

    def selective(self):
        self.full_backup()
        self.traffic(self.plan["ops"], source="bad")
        # Selective redo does not screen its image: rot feeds garbage
        # (and raising inputs) to the replayed ops.
        self.rot_images([self.db.latest_backup()])
        return self.db.selective_recover("bad")

    def partition(self):
        self.full_backup(confined=True)
        self.traffic(self.plan["ops"], confined=True)
        self.rot_images(
            [self.db.latest_backup()],
            [pid for pid in PAGES if pid.partition == 0],
        )
        self.db.fail_partition(0)
        return self.db.recover_partition(0)

    # ------------------------------------------------------------ result

    def observe(self, outcome):
        db = self.db
        stores = [v.value for v in db.stable.snapshot().values()]
        for image in db.engine.completed:
            stores.extend(v.value for _, v in image.iter_pages())
        return {
            "outcome": (
                outcome.kind, outcome.replayed, outcome.skipped,
                outcome.poisoned, outcome.quarantined,
                [(p, repr(a), repr(b)) for p, a, b in outcome.diffs],
            ),
            "events": [
                (e.kind, dict(e.fields)) for e in self.tracer.events
                if e.kind in (ev.RESTORE_DROP, ev.QUARANTINE)
            ],
            "dropped": db.metrics.pages_dropped_out_of_layout,
            "stable": {
                pid: (repr(v.value), v.page_lsn)
                for pid, v in db.stable.snapshot().items()
            },
            "damaged": db.stable.damaged_pages(),
            "poison_free": not any(contains_poison(v) for v in stores),
        }


def recover_twin(flavour, backend, plan, reference):
    run = Run(backend, plan)
    try:
        with reference_finish() if reference else contextlib.nullcontext():
            outcome = getattr(run, flavour)()
        return run.observe(outcome)
    finally:
        run.close()


plans = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "ops": st.integers(4, 24),
    "damage": st.integers(0, 3),
    "outside": st.booleans(),
    "installs": st.booleans(),
})


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("flavour", FLAVOURS)
@given(plan=plans)
@settings(max_examples=12, deadline=None)
def test_touched_only_finish_matches_full_scan(flavour, backend, plan):
    touched = recover_twin(flavour, backend, plan, reference=False)
    full = recover_twin(flavour, backend, plan, reference=True)
    assert touched == full
    assert touched["damaged"] == []
    assert touched["poison_free"]


def test_poisoned_selective_page_is_formatted():
    """A replayed op that raises on a rotted backup input leaves POISON
    in selective redo's state; the store gets the initial value, as in
    crash and media recovery, never the sentinel."""
    db = Database(pages_per_partition=[4], policy="general")
    src, dst = PageId(0, 0), PageId(0, 1)
    db.execute(PhysicalWrite(src, ((0, 0),)))
    db.execute(PhysicalWrite(dst, ((0, 1),)))
    db.checkpoint()  # the backup's redo span starts after the writes
    db.start_backup(BackupConfig(steps=2))
    backup = db.run_backup()
    db.execute(GeneralLogicalOp([src], [dst], "settle_strict"))
    backup._rot_cell(src)
    outcome = db.selective_recover("nobody")
    assert outcome.poisoned == [dst]
    assert db.stable.read_page(dst).value is None


# ----------------------------------------------------------- write counts


def _quiescent_db(backend, pages, path):
    db = Database(
        pages_per_partition=[pages], policy="general", backend=backend,
        data_dir=path,
    )
    for slot in range(pages):
        db.execute(PhysicalWrite(PageId(0, slot), ((0, slot),)))
    db.checkpoint()
    return db


def _count_stores(stable):
    """Count every cell store on ``stable`` (restores and installs)."""
    counter = [0]
    original = stable._store_version

    def counted(pid, version):
        counter[0] += 1
        original(pid, version)

    stable._store_version = counted
    return counter


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_recovery_writes_only_changed_pages(backend, tmp_path):
    written = {}
    for pages in (128, 512):
        for changed in (1, 5):
            path = str(tmp_path / f"d{pages}-{changed}")
            db = _quiescent_db(backend, pages, path)
            for slot in range(changed):
                db.execute(PhysicalWrite(PageId(0, slot), ((1, slot),)))
            db.crash()
            writes = db.stable.page_writes
            before = getattr(db.stable, "bytes_written", 0)
            assert db.recover().ok
            assert db.stable.page_writes - writes == changed
            written[pages, changed] = (
                getattr(db.stable, "bytes_written", 0) - before
            )
            db.close()
    if backend == "file":
        # Bytes written grow with the slice, not with the database
        # (records differ only in their checksum digits).
        for changed in (1, 5):
            small, large = written[128, changed], written[512, changed]
            assert abs(large - small) <= 2 * changed
        assert written[128, 5] > 4 * written[128, 1] > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_media_recovery_writes_restore_plus_changed(backend, tmp_path):
    pages, changed = 64, 6
    db = _quiescent_db(backend, pages, str(tmp_path))
    db.start_backup(BackupConfig(steps=4))
    db.run_backup()
    for slot in range(changed):
        db.execute(PhysicalWrite(PageId(0, slot), ((1, slot),)))
    db.media_failure()
    stores = _count_stores(db.stable)
    writes = db.stable.page_writes
    assert db.media_recover().ok
    # Each restored page lands once; only the replayed pages again.
    assert stores[0] == pages + changed
    assert db.stable.page_writes - writes == changed
    db.close()
