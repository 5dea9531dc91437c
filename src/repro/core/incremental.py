"""Incremental backup support (section 6.1).

The engine itself takes incremental backups when handed an ``update_set``
(the pages updated since the base backup); this module supplies the
restore side: overlaying a chain [full, inc₁, inc₂, …] and rolling
forward from the *base full backup's* media-log scan start (see
``run_media_recovery_chain`` for why the widest window is required).

Soundness sketch (matching the paper's two aspects):

1. every page not updated since the base carries its base-backup value;
2. every page updated since the base is in some incremental's copy set
   and was either captured fuzzily by that sweep or its operations are at
   or after that sweep's scan-start truncation point — the same Iw/oF and
   progress-tracking machinery as a full backup guarantees order.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import NoBackupError, RecoveryError
from repro.ids import LSN, NULL_LSN, PageId
from repro.obs.events import (
    CHAIN_FALLBACK,
    CORRUPTION_DETECTED,
    RECOVERY_PHASE,
)
from repro.obs.tracer import NULL_TRACER
from repro.recovery.explain import RecoveryOutcome
from repro.recovery.parallel_redo import make_replayer
from repro.recovery.redo import POISON
from repro.recovery.settle import settle, touched_pages
from repro.storage.backup_db import BackupDatabase
from repro.storage.page import PageVersion
from repro.storage.stable_db import StableDatabase
from repro.wal.log_manager import LogManager


def validate_chain(chain: Sequence[BackupDatabase]) -> None:
    """Check a restore chain: full base, then incrementals in order."""
    if not chain:
        raise NoBackupError("empty backup chain")
    for backup in chain:
        if not backup.is_complete:
            raise NoBackupError(
                f"backup {backup.backup_id} is {backup.status.value}"
            )
    base = chain[0]
    if getattr(base, "base_backup_id", None) is not None:
        raise RecoveryError(
            f"chain base {base.backup_id} is itself incremental"
        )
    previous = base
    for link in chain[1:]:
        base_id = getattr(link, "base_backup_id", None)
        if base_id is None:
            raise RecoveryError(
                f"backup {link.backup_id} is a full backup, not a link"
            )
        if link.media_scan_start_lsn < previous.media_scan_start_lsn:
            raise RecoveryError(
                f"chain out of order: {link.backup_id} starts before "
                f"{previous.backup_id}"
            )
        previous = link


def run_media_recovery_chain(
    stable: StableDatabase,
    chain: Sequence[BackupDatabase],
    log: LogManager,
    to_lsn: Optional[LSN] = None,
    oracle: Optional[Mapping[PageId, Any]] = None,
    initial_value: Any = None,
    tracer=None,
    redo_workers: int = 1,
    metrics=None,
) -> RecoveryOutcome:
    """Restore from a full+incremental chain and roll forward.

    Roll-forward starts at the **base full backup's** media-log scan
    start, not the last link's: a page whose update was unflushed when
    an earlier link fuzzily copied it is covered only by that earlier
    link's media-log window, and the update may have been flushed (and
    thus truncated out of later links' windows) before the next link
    began.  The LSN redo test makes the wider scan cost-only, never
    wrong.
    """
    tracer = tracer or NULL_TRACER
    validate_chain(chain)
    last = chain[-1]
    target = log.end_lsn if to_lsn is None else to_lsn
    if last.completion_lsn is not None and target < last.completion_lsn:
        raise RecoveryError(
            f"cannot roll forward to LSN {target}: last chain link "
            f"completed at {last.completion_lsn}"
        )
    if tracer.enabled:
        tracer.emit(RECOVERY_PHASE, kind="media-chain", phase="begin",
                    links=len(chain), target_lsn=target)

    # Overlay the chain: later links override earlier ones.  Damaged
    # link versions (checksum failures) are skipped, so the page falls
    # back to an earlier link's copy — replay starts from the *base*
    # scan start, which covers every update a later copy reflected, so
    # the earlier copy plus redo is sound (cost-only, never wrong).  A
    # page damaged everywhere it appears has no intact source and is
    # seeded for quarantine.
    versions: Dict[PageId, PageVersion] = {}
    damaged_anywhere: set = set()
    for backup in chain:
        damaged = set(backup.damaged_pages())
        if damaged and tracer.enabled:
            tracer.emit(
                CORRUPTION_DETECTED, site="backup",
                backup_id=backup.backup_id,
                pages=[str(p) for p in sorted(damaged)],
            )
        damaged_anywhere |= damaged
        for pid, ver in backup.pages().items():
            if pid in damaged:
                continue
            versions[pid] = ver
    quarantine_seed: List[PageId] = sorted(
        pid for pid in damaged_anywhere if pid not in versions
    )
    healed_by_chain = sorted(
        pid for pid in damaged_anywhere if pid in versions
    )
    if damaged_anywhere and tracer.enabled:
        tracer.emit(
            CHAIN_FALLBACK, action="skip-damaged-link-pages",
            healed=[str(p) for p in healed_by_chain],
            unrepairable=[str(p) for p in quarantine_seed],
        )
    with tracer.span("recovery.media_chain.restore"):
        stable.restore_from(versions, initial_value=initial_value)
    if tracer.enabled:
        tracer.emit(RECOVERY_PHASE, kind="media-chain", phase="restore",
                    scan_start_lsn=chain[0].media_scan_start_lsn)

    state: Dict[PageId, PageVersion] = {
        pid: ver for pid, ver in stable.iter_pages()
    }
    before = dict(state)  # what the overlay restore just installed
    for pid in quarantine_seed:
        state[pid] = PageVersion(POISON, NULL_LSN)
    replayer = make_replayer(
        initial_value=initial_value,
        tracer=tracer,
        redo_workers=redo_workers,
        metrics=metrics,
    )
    with tracer.span("recovery.media_chain.redo"):
        stats = replayer.replay(
            log.merge_scan(chain[0].media_scan_start_lsn, target), state
        )
    if tracer.enabled:
        tracer.emit(RECOVERY_PHASE, kind="media-chain", phase="redo",
                    replayed=stats.ops_replayed, skipped=stats.ops_skipped)
    return settle(
        stable, state, touched_pages(state, before), stats,
        kind="media-chain", initial_value=initial_value,
        seeded=bool(quarantine_seed), expected=oracle, tracer=tracer,
        metrics=metrics,
    )
