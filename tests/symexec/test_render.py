"""Tests for the Figure 2-style trace renderer."""

from repro.click import parse_config
from repro.symexec import SymbolicEngine, SymGraph
from repro.symexec.render import format_exploration, format_trace

FIGURE2 = """
    client :: FromNetfront();
    fw :: IPFilter(allow udp);
    server :: EchoResponder();
    back :: ToNetfront();
    client -> fw -> server -> back;
"""


def explore(source):
    config = parse_config(source)
    engine = SymbolicEngine(SymGraph.from_click(config))
    return engine.inject(config.sources()[0])


class TestFormatTrace:
    def test_contains_all_hops(self):
        flow = explore(FIGURE2).delivered[0]
        text = format_trace(flow)
        for node in ("client", "fw", "server", "back"):
            assert node in text

    def test_constant_rendered_as_value(self):
        flow = explore("""
            src :: FromNetfront();
            s :: SetIPAddress(5.6.7.8);
            dst :: ToNetfront();
            src -> s -> dst;
        """).delivered[0]
        assert "5.6.7.8" in format_trace(flow)

    def test_proto_rendered_by_name(self):
        flow = explore(FIGURE2).delivered[0]
        assert "udp" in format_trace(flow)

    def test_change_marker_on_rewrites(self):
        flow = explore(FIGURE2).delivered[0]
        lines = format_trace(flow).splitlines()
        server_line = next(l for l in lines if l.startswith("server"))
        back_line = next(l for l in lines if l.startswith("back"))
        # The swap happens at the server: visible on the next hop row.
        assert "<" in back_line
        assert "<" not in server_line

    def test_variable_names_stable_within_trace(self):
        flow = explore(FIGURE2).delivered[0]
        text = format_trace(flow)
        # The swap reuses letters: ingress is `A B`, egress is `B A`.
        lines = text.splitlines()
        client = next(l for l in lines if l.startswith("client"))
        back = next(l for l in lines if l.startswith("back"))
        src_letter, dst_letter = client.split()[1:3]
        assert back.split()[1] == dst_letter  # egress src was dst
        assert back.split()[3] == src_letter  # egress dst was src

    def test_title_included(self):
        flow = explore(FIGURE2).delivered[0]
        assert format_trace(flow, title="hello").startswith("hello")


class TestFormatExploration:
    def test_multiple_flows_rendered(self):
        exploration = explore("""
            src :: FromNetfront();
            c :: IPClassifier(udp, tcp);
            a :: ToNetfront(); b :: ToNetfront();
            src -> c; c[0] -> a; c[1] -> b;
        """)
        text = format_exploration(exploration)
        assert "flow 1 of 2" in text and "flow 2 of 2" in text

    def test_flow_cap_respected(self):
        exploration = explore("""
            src :: FromNetfront();
            mc :: Multicast(10.0.0.1, 10.0.0.2, 10.0.0.3);
            dst :: ToNetfront();
            src -> mc -> dst;
        """)
        text = format_exploration(exploration, max_flows=2)
        assert "1 more flows" in text


class TestGoldenOutput:
    """Exact renderings, pinned character for character.

    These lock the whole surface at once -- column layout, variable
    lettering, constant formatting, protocol names, change markers --
    so an innocent-looking tweak to the renderer (or to trace
    recording in the engine) shows up as a readable diff.
    """

    GOLDEN_FIGURE2 = (
        "node    IP SRC  IP DST  PROT  DATA\n"
        "----------------------------------\n"
        "client  A       B       udp   C   \n"
        "fw      A       B       udp   C   \n"
        "server  A       B       udp   C   \n"
        "back    B <     A <     udp   C   "
    )

    GOLDEN_REWRITE = (
        "rewrite\n"
        "node  IP SRC  IP DST     PROT  DATA\n"
        "-----------------------------------\n"
        "src   A       B          C     D   \n"
        "s     A       B          C     D   \n"
        "dst   A       5.6.7.8 <  C     D   "
    )

    def test_figure2_trace_golden(self):
        flow = explore(FIGURE2).delivered[0]
        assert format_trace(flow) == self.GOLDEN_FIGURE2

    def test_rewrite_trace_golden(self):
        flow = explore("""
            src :: FromNetfront();
            s :: SetIPAddress(5.6.7.8);
            dst :: ToNetfront();
            src -> s -> dst;
        """).delivered[0]
        assert format_trace(flow, title="rewrite") == self.GOLDEN_REWRITE

    def test_exploration_wraps_same_golden_trace(self):
        text = format_exploration(explore(FIGURE2))
        assert text == "flow 1 of 1:\n" + self.GOLDEN_FIGURE2

    def test_golden_output_mode_independent(self):
        # Cold interval caches (every operation on the miss path) and
        # warm ones render the same trace.
        from repro.common.intervals import clear_result_cache

        clear_result_cache()
        cold = format_trace(explore(FIGURE2).delivered[0])
        warm = format_trace(explore(FIGURE2).delivered[0])
        assert cold == warm == self.GOLDEN_FIGURE2
