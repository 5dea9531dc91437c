"""Property-based tests (hypothesis) for the write-graph machinery."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.ids import PageId
from repro.ops.identity import IdentityWrite
from repro.ops.logical import CopyOp, GeneralLogicalOp
from repro.ops.physical import PhysicalWrite
from repro.ops.physiological import PhysiologicalWrite
from repro.recovery.installation_graph import InstallationGraph
from repro.recovery.refined_write_graph import DynamicWriteGraph
from repro.recovery.write_graph import (
    build_intersecting_writes_graph,
    topological_flush_order,
)
from repro.wal.log_manager import LogManager

N_PAGES = 8


def pid(slot):
    return PageId(0, slot)


slots = st.integers(min_value=0, max_value=N_PAGES - 1)


@st.composite
def operations(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return PhysicalWrite(pid(draw(slots)), draw(st.integers(0, 99)))
    if kind == 1:
        return PhysiologicalWrite(pid(draw(slots)), "increment")
    if kind == 2:
        src = draw(slots)
        dst = draw(slots.filter(lambda s: s != src))
        return CopyOp(pid(src), pid(dst))
    if kind == 3:
        return IdentityWrite(pid(draw(slots)), draw(st.integers(0, 99)))
    reads = draw(st.sets(slots, min_size=1, max_size=3))
    writes = draw(st.sets(slots, min_size=1, max_size=2))
    return GeneralLogicalOp(
        [pid(s) for s in reads], [pid(s) for s in writes], "concat_sorted"
    )


op_sequences = st.lists(operations(), min_size=1, max_size=40)


def logged(ops):
    log = LogManager()
    return [log.append(op) for op in ops]


class TestDynamicGraphInvariants:
    @given(op_sequences)
    @settings(max_examples=150, deadline=None)
    def test_always_acyclic_with_disjoint_vars(self, ops):
        graph = DynamicWriteGraph()
        for record in logged(ops):
            graph.add_operation(record)
            graph.check_acyclic()
            assert graph.vars_are_disjoint()

    @given(op_sequences)
    @settings(max_examples=100, deadline=None)
    def test_full_drain_possible(self, ops):
        """The graph can always be emptied in write-graph order."""
        graph = DynamicWriteGraph()
        for record in logged(ops):
            graph.add_operation(record)
        while len(graph):
            installable = graph.installable_nodes()
            assert installable, "acyclic graph must have a source node"
            graph.install_node(installable[0])

    @given(op_sequences)
    @settings(max_examples=100, deadline=None)
    def test_every_written_page_is_held(self, ops):
        graph = DynamicWriteGraph()
        written = set()
        for record in logged(ops):
            graph.add_operation(record)
            written |= record.op.writeset
        held = set()
        for node in graph.nodes():
            held |= node.vars
        # Pages removed from vars by blind writes are re-held by the
        # blind node, so every written page has a holder.
        assert written == held


class TestStaticGraphs:
    @given(op_sequences)
    @settings(max_examples=100, deadline=None)
    def test_w_is_acyclic_with_topological_order(self, ops):
        records = logged(ops)
        nodes = build_intersecting_writes_graph(records)
        order = topological_flush_order(nodes)
        assert len(order) == len(nodes)
        all_ops = set()
        for node in nodes:
            all_ops |= node.ops
        assert all_ops == {r.lsn for r in records}

    @given(op_sequences)
    @settings(max_examples=100, deadline=None)
    def test_install_in_flush_order_is_installation_prefix(self, ops):
        """Flushing W's nodes in topological order installs operations in
        installation-graph prefix order — the core theorem hookup."""
        records = logged(ops)
        graph = InstallationGraph(records)
        nodes = build_intersecting_writes_graph(records, graph)
        installed = set()
        for node in topological_flush_order(nodes):
            installed |= node.ops
            assert graph.is_prefix(installed), (
                f"prefix violated after node {node.node_id}"
            )

    @given(op_sequences)
    @settings(max_examples=100, deadline=None)
    def test_dynamic_drain_order_is_installation_prefix(self, ops):
        """Same property for the dynamic rW graph, including blind
        writes.  Identity writes are excluded: rW deliberately orders
        them independently (they change no value, so the raw
        installation-graph edges into them are vacuous)."""
        ops = [op for op in ops if not isinstance(op, IdentityWrite)]
        if not ops:
            return
        records = logged(ops)
        graph = InstallationGraph(records)
        dynamic = DynamicWriteGraph()
        for record in records:
            dynamic.add_operation(record)
        installed = set()
        while len(dynamic):
            node = dynamic.installable_nodes()[0]
            installed |= set(node.op_lsns)
            dynamic.install_node(node)
            assert graph.is_prefix(installed)


# ------------------------------------------------ installs then a crash


#: Few pages, so unexposing blind writes collide with live readers often.
crash_slots = st.integers(min_value=0, max_value=3)


@st.composite
def db_steps(draw):
    """A short run of Database steps: logged ops (no identity writes —
    the cache manager issues those itself, with the page's real value)
    or an ``install_some`` burst.  One kind is a motif that random
    streams over few pages rarely assemble: a logical op, a reader of
    its result, an overwrite of its input, then a blind overwrite of
    the result (which unexposes it)."""
    kind = draw(st.integers(0, 5))
    page = lambda: pid(draw(crash_slots))  # noqa: E731
    if kind == 0:
        return [PhysicalWrite(page(), ((0, draw(st.integers(0, 99))),))]
    if kind == 1:
        key = draw(st.integers(0, 3))
        return [PhysiologicalWrite(page(), "insert_record", (key, 1))]
    if kind == 2:
        src, dst = draw(st.lists(crash_slots, min_size=2, max_size=2,
                                 unique=True))
        return [CopyOp(pid(src), pid(dst))]
    if kind == 3:
        reads = draw(st.sets(crash_slots, min_size=1, max_size=3))
        writes = draw(st.sets(crash_slots, min_size=1, max_size=2))
        return [GeneralLogicalOp(
            [pid(s) for s in reads], [pid(s) for s in writes],
            "concat_sorted",
        )]
    if kind == 4:
        src, mid, dst = draw(st.lists(crash_slots, min_size=3, max_size=3,
                                      unique=True))
        return [
            CopyOp(pid(src), pid(mid)),
            CopyOp(pid(mid), pid(dst)),
            PhysicalWrite(pid(src), ((1, draw(st.integers(0, 99))),)),
            PhysicalWrite(pid(mid), ((2, draw(st.integers(0, 99))),)),
        ]
    return [(draw(st.integers(1, 4)), draw(st.integers(0, 999)))]


class TestInstallThenCrash:
    @given(st.lists(db_steps(), min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_crash_after_partial_installs_recovers(self, steps):
        """Whatever subset of the write graph was installed (and hence
        flushed) before the crash, redo from S reproduces the oracle."""
        import random

        from repro.db import Database

        db = Database(pages_per_partition=[4], policy="general")
        for step in (item for run in steps for item in run):
            if isinstance(step, tuple):
                count, seed = step
                db.install_some(count, random.Random(seed))
            else:
                db.execute(step)
        db.crash()
        outcome = db.recover()
        assert outcome.ok, outcome.diffs
