"""One symbolic description per element: the compiled model programs.

Every element class registers one model, a *compiler*:
``model_for(class_name)(element)`` binds the element's parsed
configuration into the program its graph node runs, on every path --
seed engine, generic worklist and segment replay.  These tests hold the
registry to every element class, pin which program a node runs, and
check that programs read the fast-path switch when they run, not when
they are compiled: a graph built in one mode explores exactly like a
graph built in the other.
"""

import pytest

from repro.click import parse_config
from repro.click.element import create_element, element_registry
from repro.netmodel import NetworkCompiler
from repro.netmodel.examples import figure3_network
from repro.policy import parse_requirement
from repro.symexec import SummaryCache, SymbolicEngine, SymGraph, model_for
from repro.symexec import models
from repro.symexec.tuning import seed_mode
from tests.click.test_batch_differential import SPECS, build_config
from tests.symexec.test_differential import (
    CLICK_SCENARIOS,
    NETWORK_SCENARIOS,
    canonical_exploration,
)


class TestRegistry:
    def test_every_class_compiles_its_node_program(self, monkeypatch):
        # A recording compiler per class: the graph must compile the
        # very element instance it keeps as the payload, and its node
        # must run -- and the engine call -- exactly what came back.
        assert set(SPECS) == set(element_registry())
        compiled = {}
        calls = []

        def recording(compile_element):
            def compile_recorded(element):
                program = compile_element(element)

                def recorded(ctx, node, port, flow):
                    calls.append(node)
                    return program(ctx, node, port, flow)

                compiled[element.name] = (element, recorded)
                return recorded

            return compile_recorded

        for class_name, compile_element in models.models_registry().items():
            monkeypatch.setitem(models._MODELS, class_name,
                                recording(compile_element))
        for class_name, spec in sorted(SPECS.items()):
            compiled.clear()
            config = parse_config(build_config(class_name, spec))
            graph = SymGraph.from_click(config)
            tables = SummaryCache().tables_for(graph)
            element, program = compiled["dut"]
            assert element.class_name == class_name
            assert graph.payloads["dut"] is element
            assert graph.models["dut"] is program
            assert "dut" in graph.elements
            assert tables.programs["dut"] is program
            if graph.sinks["dut"]:
                continue  # sinks end a flow without running a model
            entry = (spec.entries or ("src0",))[0]
            for mode_summaries in (None, SummaryCache()):
                del calls[:]
                SymbolicEngine(graph, summaries=mode_summaries).inject(entry)
                assert "dut" in calls, class_name
            with seed_mode():
                del calls[:]
                SymbolicEngine(graph).inject(entry)
                assert "dut" in calls, class_name

    def test_config_free_classes_share_one_program(self):
        def program(class_name, *args):
            return model_for(class_name)(
                create_element(class_name, "e", list(args))
            )

        assert program("Counter") is program("Counter")
        assert program("Counter") is program("Queue", "5")
        assert program("Tee", "2") is program("RoundRobinSwitch")
        assert program("Meter", "5") is program("RateLimiter", "5", "5")
        assert program("Discard") is program("Idle")

    def test_config_bound_classes_compile_per_instance(self):
        def program(class_name, *args):
            return model_for(class_name)(
                create_element(class_name, "e", list(args))
            )

        two, three = program("Paint", "2"), program("Paint", "3")
        assert two is not three
        assert two.__code__ is three.__code__
        # Copies of one body share one compiler.
        same_body = [
            [program("Multicast", "10.0.0.1"),
             program("LoadBalancer", "10.0.0.1", "10.0.0.2")],
            [program(name, arg) for name, arg in (
                ("SetIPAddress", "10.0.0.1"), ("SetIPSrc", "10.0.0.1"),
                ("SetTPDst", "80"), ("SetTPSrc", "80"),
                ("SetIPTTL", "9"), ("SetIPTOS", "4"),
            )],
            [program("EchoResponder"),
             program("GeoDNSServer", "10.0.0.1", "10.0.0.2"),
             program("ICMPPingResponder")],
        ]
        for programs in same_body:
            assert len({p.__code__ for p in programs}) == 1

    def test_every_element_node_is_made_by_one_method(self):
        # From-scratch compile, a splice and the topology's middlebox
        # all go through SymGraph.add_element.
        net = figure3_network()
        compiled = NetworkCompiler(net).compile()
        platform = net.platforms()[0]
        config = parse_config(
            "src :: FromNetfront(); src -> Counter() -> ToNetfront();"
        )
        address = platform.allocate_address()
        platform.deploy("trial", address, config)
        compiled.splice(platform.name, "trial", address, config)
        graph = compiled.graph
        element_nodes = {
            name for name, payload in graph.payloads.items()
            if hasattr(payload, "class_name")
        }
        assert graph.elements == element_nodes
        assert {"fw", "trial/src"} <= graph.elements
        compiled.unsplice("trial")
        assert graph.elements == {"fw"}

    def test_middlebox_node_runs_its_wrapped_program(self):
        graph = NetworkCompiler(figure3_network()).compile().graph
        tables = SummaryCache().tables_for(graph)
        assert tables.programs["fw"] is graph.models["fw"]
        assert graph.models["fw"].__qualname__.startswith(
            "_middlebox_model_factory"
        )


def work(exploration):
    """The canonical exploration plus its fork and prune counts: a
    program that read the switch when compiled would prune (and skip
    forks) in the wrong mode, which the flows alone cannot show."""
    return canonical_exploration(exploration) + (
        exploration.forks, exploration.pruned,
    )


def click_exploration(source, graph=None, summaries=None):
    config = parse_config(source)
    if graph is None:
        graph = SymGraph.from_click(config)
    engine = SymbolicEngine(graph, summaries=summaries)
    return work(engine.inject(config.sources()[0]))


def network_exploration(factory, requirement_text, compiled=None,
                        summaries=None):
    if compiled is None:
        compiled = NetworkCompiler(factory()).compile()
    requirement = parse_requirement(requirement_text)
    exploration = compiled.explore_from(
        requirement.origin.node, requirement.origin.flow,
        engine=compiled.engine(summaries=summaries),
    )
    return work(exploration)


#: The differential scenarios, plus one whose pruning happens inside a
#: program: a TTL set above 1 makes DecIPTTL's expiry branch provably
#: empty, which the fast path prunes and seed mode forks and discards.
SCENARIOS = dict(CLICK_SCENARIOS, **{
    "ttl-expiry-pruned": """
        src :: FromNetfront();
        d :: DecIPTTL();
        src -> SetIPTTL(64) -> d -> ToNetfront();
        d[1] -> Discard();
    """,
})


class TestCompileTimeVersusCallTime:
    """A program compiled under one mode explores under the other
    exactly like a program compiled there."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_click_graphs(self, name):
        source = SCENARIOS[name]
        built_fast = SymGraph.from_click(parse_config(source))
        with seed_mode():
            built_seed = SymGraph.from_click(parse_config(source))
            seed = click_exploration(source)
            assert click_exploration(source, built_fast) == seed
        fast = click_exploration(source, summaries=SummaryCache())
        assert click_exploration(
            source, built_seed, summaries=SummaryCache()
        ) == fast

    @pytest.mark.parametrize(
        "factory,requirement", NETWORK_SCENARIOS,
        ids=[req for _, req in NETWORK_SCENARIOS],
    )
    def test_network_graphs(self, factory, requirement):
        built_fast = NetworkCompiler(factory()).compile()
        with seed_mode():
            built_seed = NetworkCompiler(factory()).compile()
            seed = network_exploration(factory, requirement)
            assert network_exploration(
                factory, requirement, built_fast
            ) == seed
        fast = network_exploration(
            factory, requirement, summaries=SummaryCache()
        )
        assert network_exploration(
            factory, requirement, built_seed, summaries=SummaryCache()
        ) == fast
