"""Readers of a blind-overwritten logical result install before its writer.

A blind write of page T unexposes the value a logical op L wrote there:
L's node drops T from its flush set and can install without flushing
it.  That frees the read-write edges that kept L's *inputs* on disk at
their old values, so a later writer of an input may flush.  After a
crash, redo replays L against the newer input and writes garbage into
T.  The blind write repairs T itself, but any replayed reader of T
would have copied the garbage into pages the blind write never touches.
The refined write graph therefore orders T's live readers before L's
node when it drops T (identity writes, which change no value, and
blind-only holders, whose replay reads nothing, are left alone).

The scenario tests drive a skewed copy / concat / insert / blind-write
mix with periodic ``install_some`` and check oracle-exact recovery, by
crash recovery and by media recovery from back-to-back online backups.
"""

import bisect
import random

import pytest

from repro.core.config import BackupConfig
from repro.db import Database
from repro.ids import PageId
from repro.ops.logical import CopyOp, GeneralLogicalOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite

SEEDS = range(8)
MAX_RECORDS = 12


def skewed_mix(seed, pages, count):
    """Zipf(0.99) mix: 25% blind writes, 30% record inserts, 30% copies,
    15% two-input concatenations (a blind write when the result would
    exceed MAX_RECORDS records)."""
    rng = random.Random(seed)
    ranked = list(pages)
    random.Random(0x5EED).shuffle(ranked)
    cdf, total = [], 0.0
    for rank in range(1, len(ranked) + 1):
        total += 1.0 / rank ** 0.99
        cdf.append(total)

    def pick(*taken):
        while True:
            page = ranked[bisect.bisect_left(cdf, rng.random() * total)]
            if page not in taken:
                return page

    size = {p: 1 for p in ranked}
    ops = []
    for n in range(1, count + 1):
        roll = rng.random()
        target = pick()
        if roll < 0.25:
            ops.append(PhysicalWrite(target, ((n % 4, n),)))
            size[target] = 1
        elif roll < 0.55:
            ops.append(PhysiologicalWrite(target, "insert_record", (n % 4, n)))
            size[target] = min(size[target] + 1, MAX_RECORDS)
        elif roll < 0.85:
            source = pick(target)
            ops.append(CopyOp(source, target))
            size[target] = size[source]
        else:
            a = pick(target)
            b = pick(target, a)
            if size[a] + size[b] > MAX_RECORDS:
                ops.append(PhysicalWrite(target, ((n % 4, n),)))
                size[target] = 1
            else:
                ops.append(GeneralLogicalOp([a, b], [target], "concat_sorted"))
                size[target] = size[a] + size[b]
    return ops


def loaded_db(partitions, partition_pages):
    db = Database(
        pages_per_partition=[partition_pages] * partitions, policy="general"
    )
    pages = [
        PageId(p, s) for p in range(partitions) for s in range(partition_pages)
    ]
    for i, page in enumerate(pages):
        db.execute(PhysicalWrite(page, ((0, i),)))
    db.checkpoint()
    return db, pages


def run_mix(seed, partitions, partition_pages, count, backups):
    db, pages = loaded_db(partitions, partition_pages)
    rng = random.Random(seed)
    config = BackupConfig(steps=8)
    for i, op in enumerate(skewed_mix(seed, pages, count)):
        if backups and i % 4 == 0:
            if not db.backup_in_progress():
                db.start_backup(config)
            db.backup_step(16)
        db.execute(op)
        if i % 64 == 63:
            db.install_some(16, rng)
    return db


def test_reader_installs_before_unexposed_writer():
    S1, S2, T, U = (PageId(0, s) for s in range(4))
    db = Database(pages_per_partition=[4], policy="general")
    for page in (S1, S2, T, U):
        db.execute(PhysicalWrite(page, ((0, page.slot),)))
    db.checkpoint()
    db.execute(GeneralLogicalOp([S1, S2], [T], "concat_sorted"))
    db.execute(CopyOp(T, U))               # reads the concat result
    db.execute(PhysicalWrite(S2, ((9, 9),)))  # overwrites a concat input
    db.execute(PhysicalWrite(T, ((7, 7),)))   # unexposes the concat result
    # Flushing S2 requires the concat's node to install first; the copy
    # that read its result must have installed (flushing U) before that.
    db.flush_page(S2)
    assert db.stable.read_page(U).value == db.read(U)
    db.crash()
    outcome = db.recover()
    assert outcome.ok, outcome.diffs


@pytest.mark.parametrize("seed", SEEDS)
def test_install_some_crash_recovers(seed):
    db = run_mix(seed, 8, 64, 2048, backups=False)
    db.crash()
    outcome = db.recover()
    assert outcome.ok, outcome.diffs[:3]


@pytest.mark.parametrize("seed", SEEDS)
def test_online_backup_media_recovers(seed):
    db = run_mix(seed, 8, 64, 2048, backups=True)
    db.media_failure()
    outcome = db.media_recover()
    assert outcome.ok, outcome.diffs[:3]


@pytest.mark.slow
@pytest.mark.parametrize(
    "seed,count,backups", [(4, 8192, False), (1, 4096, True)]
)
def test_full_size_mix_recovers(seed, count, backups):
    """The 8x512-page shape at seeds that lost data before the fix."""
    db = run_mix(seed, 8, 512, count, backups)
    if backups:
        db.media_failure()
        outcome = db.media_recover()
    else:
        db.crash()
        outcome = db.recover()
    assert outcome.ok, outcome.diffs[:3]
