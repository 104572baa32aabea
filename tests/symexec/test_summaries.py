"""Unit tests for the summary tier (repro.symexec.summaries).

Covers the per-graph program/segment tables (validated in O(1) against
:attr:`SymGraph.version`, patched across a splice) and the composition
rules that decide which chains may be replayed.  The element programs
the tables compose are covered by ``test_compiled_models.py``.
"""

import pytest

from repro.click import parse_config
from repro.click.element import create_element
from repro.netmodel.examples import figure3_network
from repro.netmodel.symgraph import NetworkCompiler
from repro.symexec import (
    SummaryCache,
    SymbolicEngine,
    SymGraph,
    model_for,
)

PIPELINE = """
    src :: FromNetfront();
    src -> IPFilter(allow udp port 53)
        -> SetIPAddress(10.0.0.9)
        -> Counter()
        -> ToNetfront();
"""


def pipeline_graph():
    return SymGraph.from_click(parse_config(PIPELINE))


class TestGraphTables:
    def test_tables_revalidate_in_o1(self):
        cache = SummaryCache()
        graph = pipeline_graph()
        tables = cache.tables_for(graph)
        assert cache.tables_for(graph) is tables
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_graph_mutation_invalidates(self):
        cache = SummaryCache()
        graph = pipeline_graph()
        tables = cache.tables_for(graph)
        graph.add_node("extra", model_for("Discard"),
                       payload=create_element("Discard", "extra", []))
        rebuilt = cache.tables_for(graph)
        assert rebuilt is not tables
        assert cache.stats()["invalidations"] == 1

    def test_version_bumps_on_every_structural_mutation(self):
        graph = pipeline_graph()
        v0 = graph.version
        graph.add_node("x", model_for("Discard"),
                       payload=create_element("Discard", "x", []))
        v1 = graph.version
        graph.connect("src", 5, "x", 0)
        v2 = graph.version
        graph.remove_node("x")
        assert v0 < v1 < v2 < graph.version

    def test_trial_graft_invalidates_and_restores(self):
        net = figure3_network()
        compiled = NetworkCompiler(net).compile()
        cache = SummaryCache()
        tables = cache.tables_for(compiled.graph)
        platform = net.platforms()[0]
        config = parse_config(PIPELINE)
        address = platform.allocate_address()
        platform.deploy("trial", address, config)
        try:
            compiled.splice(platform.name, "trial", address, config)
            grafted = cache.tables_for(compiled.graph)
            assert grafted is not tables
            assert any(
                node.startswith("trial/")
                for node in grafted.programs
            )
            compiled.unsplice("trial")
        finally:
            platform.undeploy("trial")
            platform.release_address(address)
        ungrafted = cache.tables_for(compiled.graph)
        assert not any(
            node.startswith("trial/") for node in ungrafted.programs
        )


def table_view(tables):
    return (
        {node: program.__qualname__
         for node, program in tables.programs.items()},
        {entry: tuple(hop[:2] + hop[3:] for hop in hops)
         for entry, hops in tables.segments.items()},
    )


class TestTablesFollowASplice:
    def spliced(self):
        net = figure3_network()
        compiled = NetworkCompiler(net).compile()
        platform = net.platforms()[0]
        config = parse_config(PIPELINE)
        address = platform.allocate_address()
        platform.deploy("trial", address, config)
        return compiled, platform.name, address, config

    def test_touched_since_reports_what_changed(self):
        graph = pipeline_graph()
        version = graph.version
        assert graph.touched_since(version) == set()
        graph.add_node("x", model_for("Discard"),
                       payload=create_element("Discard", "x", []))
        graph.connect("src", 5, "x", 0)
        assert graph.touched_since(version) == {"x", "src"}
        later = graph.version
        graph.remove_node("x")
        assert graph.touched_since(later) == {"x", "src"}
        assert ("src", 5) not in graph.edges

    def test_touched_since_gives_up_past_its_log(self):
        graph = pipeline_graph()
        version = graph.version
        for index in range(graph._touch_log.maxlen):
            graph.add_node("n%d" % index, model_for("Discard"))
        assert graph.touched_since(version) is None
        assert graph.touched_since(graph.version - 3) is not None

    def test_patched_tables_equal_rebuilt_tables(self):
        compiled, platform, address, config = self.spliced()
        cache = SummaryCache()
        cache.tables_for(compiled.graph)
        compiled.splice(platform, "trial", address, config)
        patched = cache.tables_for(compiled.graph)
        assert table_view(patched) == table_view(
            SummaryCache().tables_for(compiled.graph)
        )
        compiled.unsplice("trial")
        restored = cache.tables_for(compiled.graph)
        assert table_view(restored) == table_view(
            SummaryCache().tables_for(compiled.graph)
        )
        stats = cache.stats()
        assert stats["patches"] == stats["invalidations"] == 2
        # Only the trial module's nodes were compiled for the patch.
        assert stats["nodes_summarized"] == len(restored.programs) + len(
            config.elements
        )

    def test_touching_a_summarized_node_rebuilds(self):
        graph = pipeline_graph()
        cache = SummaryCache()
        cache.tables_for(graph)
        # Rewiring *out of* a node that has a program may cut a chain
        # composed earlier: not patchable.
        summarized = next(
            node for node in cache.tables_for(graph).programs
            if (node, 0) in graph.edges
        )
        graph.add_node("x", model_for("Discard"),
                       payload=create_element("Discard", "x", []))
        graph.connect(summarized, 7, "x", 0)
        rebuilt = cache.tables_for(graph)
        assert cache.stats()["patches"] == 0
        assert table_view(rebuilt) == table_view(
            SummaryCache().tables_for(graph)
        )

    def test_departed_tenants_leave_no_programs(self):
        net = figure3_network()
        compiled = NetworkCompiler(net).compile()
        platform = net.platforms()[0]
        cache = SummaryCache()
        residents = set(cache.tables_for(compiled.graph).programs)
        for tenant in range(200):
            config = parse_config(
                PIPELINE.replace("10.0.0.9", "10.0.%d.9" % tenant)
            )
            address = platform.allocate_address()
            platform.deploy("trial", address, config)
            compiled.splice(platform.name, "trial", address, config)
            cache.tables_for(compiled.graph)
            compiled.unsplice("trial")
            platform.undeploy("trial")
            platform.release_address(address)
        assert set(cache.tables_for(compiled.graph).programs) == residents
        assert compiled.graph.elements == residents


class TestSegmentComposition:
    def test_pipeline_composes_into_a_chain(self):
        cache = SummaryCache()
        graph = pipeline_graph()
        tables = cache.tables_for(graph)
        # The edge out of src enters a 4-hop chain ending at the sink.
        entry = graph.edges[("src", 0)]
        hops = tables.segments[entry]
        assert len(hops) == 4
        assert [hop.node for hop in hops[:-1]] == [
            entry[0], hops[1].node, hops[2].node
        ]
        assert hops[-1].is_sink

    def test_interior_positions_are_entries_too(self):
        # A flow spilled back onto the worklist mid-chain must re-enter
        # the chain suffix, so every edge destination gets an entry.
        cache = SummaryCache()
        graph = pipeline_graph()
        tables = cache.tables_for(graph)
        assert len(tables.segments) == len(set(graph.edges.values()))

    def test_fanout_node_ends_the_chain(self):
        config = parse_config("""
            src :: FromNetfront();
            c :: IPClassifier(udp, -);
            a :: ToNetfront(); b :: Discard();
            src -> c; c[0] -> a; c[1] -> b;
        """)
        cache = SummaryCache()
        graph = SymGraph.from_click(config)
        tables = cache.tables_for(graph)
        entry = graph.edges[("src", 0)]
        # The classifier has two wired outputs: not chainable past it.
        assert entry not in tables.segments or \
            len(tables.segments[entry]) == 1

    def test_summary_engine_matches_plain_engine(self):
        from repro.symexec import canonical_flow

        config = parse_config(PIPELINE)
        graph = SymGraph.from_click(config)
        plain = SymbolicEngine(SymGraph.from_click(config))
        summarized = SymbolicEngine(graph, summaries=SummaryCache())
        canon = lambda e: (  # noqa: E731
            tuple(canonical_flow(f) for f in e.delivered),
            tuple(canonical_flow(f) for f in e.dropped),
            e.steps,
        )
        assert canon(summarized.inject("src")) == \
            canon(plain.inject("src"))


class TestInstrumentation:
    def test_counters_land_in_a_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        cache = SummaryCache()
        cache.instrument(registry)
        cache.tables_for(pipeline_graph())
        assert registry.counter("symexec_summary_misses_total").value == 1
        assert registry.counter(
            "symexec_summary_composes_total"
        ).value >= 1
