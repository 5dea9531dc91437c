"""The recovery finish: audit and write back only what replay touched.

Every recovery flavour ends here: find the pages still carrying POISON,
report them as quarantined (damage was seeded) or poisoned (Figure 1's
unrecoverable backup), diff against the expected state, and install the
result into S.  Replay never mutates a :class:`PageVersion` in place, so
an entry that is still the very object of a shallow snapshot taken
before replay is one S (crash) or the restored image (media) already
holds; only the others — replay results, materialized pages and
quarantine seeds — are audited and written back.  That is exact because
POISON enters a recovery state only through replay results or seeds and
no path installs it: :func:`install_recovered_page` formats a poisoned
page to the initial value instead.
"""

from __future__ import annotations

from typing import Any, Collection, List, Mapping, MutableMapping, Optional

from repro.ids import NULL_LSN, PageId
from repro.obs.events import QUARANTINE, RECOVERY_PHASE, RESTORE_DROP
from repro.obs.tracer import NULL_TRACER
from repro.recovery.explain import RecoveryOutcome, diff_states
from repro.recovery.redo import contains_poison
from repro.storage.page import PageVersion


def touched_pages(
    state: Mapping[PageId, PageVersion],
    before: Mapping[PageId, PageVersion],
    seeds: Collection[PageId] = (),
) -> List[PageId]:
    """Entries replay added or replaced since ``before``, in state order.

    ``seeds`` adds pages whose entry ``before`` already holds but which
    must be audited anyway (instant restore keeps its POISON seeds in the
    base the final state is built from).
    """
    get = before.get
    return [
        pid
        for pid, version in state.items()
        if get(pid) is not version or pid in seeds
    ]


def install_recovered_page(
    stable,
    pid: PageId,
    version: PageVersion,
    initial_value: Any,
    tracer=None,
    metrics=None,
    kind: str = "media",
) -> bool:
    """Install one replayed page into stable, with drop/quarantine rules.

    Out-of-layout pages (a replayed logical op can touch identifiers the
    stable layout never held, e.g. in the degrade path) are **not**
    installed — but they are never dropped silently: a ``RESTORE_DROP``
    event and ``Metrics.pages_dropped_out_of_layout`` record each one.
    Pages whose value still carries POISON are formatted to the initial
    value rather than installing garbage.  Returns ``True`` iff the
    page's replayed value was installed as-is.
    """
    if not stable.layout.contains(pid):
        if metrics is not None:
            metrics.pages_dropped_out_of_layout += 1
        if tracer is not None and tracer.enabled:
            tracer.emit(
                RESTORE_DROP, page=str(pid), reason="out-of-layout",
                kind=kind,
            )
        return False
    if contains_poison(version.value):
        # Quarantined: format the cell rather than install garbage.
        stable.install_version(pid, PageVersion(initial_value, NULL_LSN))
        return False
    stable.install_version(pid, version)
    return True


def settle(
    stable,
    state: MutableMapping[PageId, PageVersion],
    touched: List[PageId],
    stats,
    *,
    kind: str,
    initial_value: Any = None,
    seeded: bool = False,
    expected: Optional[Mapping[PageId, Any]] = None,
    tracer=None,
    metrics=None,
    write_back: bool = True,
) -> RecoveryOutcome:
    """Audit the touched pages, verify, write back, and build the outcome.

    ``stats`` supplies ``ops_replayed``/``ops_skipped``.  ``seeded``
    (damage was seeded as POISON) turns surviving POISON into the
    quarantine report.  ``expected`` is the state to diff against;
    quarantined pages are excluded from the diff.  ``write_back=False``
    skips the installs (crash recovery's ``apply_to_stable=False``, and
    instant restore, which installs page by page as it goes).
    """
    tracer = NULL_TRACER if tracer is None else tracer
    poisoned = sorted(
        pid for pid in touched if contains_poison(state[pid].value)
    )
    quarantined: List[PageId] = []
    if seeded:
        # Every surviving POISON traces back to the seeded pages (the
        # seeds plus anything their loss transitively tainted).
        quarantined, poisoned = poisoned, []
        if tracer.enabled:
            for pid in quarantined:
                tracer.emit(QUARANTINE, page=str(pid), kind=kind)
    diffs: List = []
    if expected is not None:
        excluded = set(quarantined)
        diffs = [
            d
            for d in diff_states(state, expected, initial_value)
            if d[0] not in excluded
        ]
        if tracer.enabled:
            tracer.emit(RECOVERY_PHASE, kind=kind, phase="verify",
                        diffs=len(diffs), poisoned=len(poisoned),
                        quarantined=len(quarantined))
    if write_back:
        for pid in touched:
            install_recovered_page(
                stable, pid, state[pid], initial_value, tracer, metrics,
                kind=kind,
            )
    if tracer.enabled:
        tracer.emit(RECOVERY_PHASE, kind=kind, phase="complete",
                    ok=not poisoned and not diffs,
                    quarantined=len(quarantined))
    return RecoveryOutcome(
        state=state,
        replayed=stats.ops_replayed,
        skipped=stats.ops_skipped,
        poisoned=poisoned,
        diffs=diffs,
        kind=kind,
        quarantined=quarantined,
    )
