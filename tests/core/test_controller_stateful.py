"""Stateful property-based fuzzing of the controller.

Random interleavings of request / kill / migrate / adopt (to and from
a sibling controller) must preserve the controller's bookkeeping
invariants: flow rules mirror deployments, every module sits on exactly
one platform, assigned addresses are unique, platform tables never leak
rules for dead modules, every resilience invariant holds, and no
journal intent is ever left open.  ``p2`` has no uplink, so the
operator rule fails there: migrations onto it are refused after a full
trial.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core import ClientRequest, Controller, ROLE_CLIENT
from repro.netmodel.examples import CLIENT_ADDR
from repro.netmodel.topology import Network
from repro.resilience import DeploymentJournal, collect_violations

#: Module egress must reach the clients: true wherever a platform is
#: linked.
POLICY = "reach from $module udp -> client"


def small_network():
    net = Network("fuzz")
    net.add_internet()
    net.add_router("r")
    net.add_client_subnet("clients", "172.16.0.0/16")
    net.add_platform("p0", "192.0.2.0/24", capacity=3)
    net.add_platform("p1", "198.51.100.0/24", capacity=3)
    net.add_platform("p2", "203.0.113.0/24", capacity=3)
    net.link("internet", "r")
    net.link("r", "clients")
    net.link("r", "p0")
    net.link("r", "p1")
    net.compute_routes()
    return net


def make_request(name, stateful=False):
    body = (
        "FromNetfront() -> FlowMeter() "
        if stateful
        else "FromNetfront() -> IPFilter(allow udp) "
    )
    return ClientRequest(
        client_id="fuzzer",
        role=ROLE_CLIENT,
        config_source=body
        + "-> IPRewriter(pattern - - 172.16.15.133 - 0 0) "
          "-> ToNetfront();",
        owned_addresses=(CLIENT_ADDR,),
        module_name=name,
    )


class ControllerMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.controller, self.sibling = (
            Controller(small_network(), POLICY, journal=DeploymentJournal())
            for _ in range(2)
        )
        self.counter = 0
        self.live = set()

    @rule(stateful=st.booleans())
    def deploy(self, stateful):
        name = "m%d" % self.counter
        self.counter += 1
        result = self.controller.request(
            make_request(name, stateful=stateful)
        )
        if result.accepted:
            self.live.add(name)
        else:
            assert name not in self.controller.deployed

    @rule(index=st.integers(min_value=0, max_value=30))
    def kill(self, index):
        name = "m%d" % index
        killed = self.controller.kill(name)
        assert killed == (name in self.live)
        self.live.discard(name)

    @rule(index=st.integers(min_value=0, max_value=30),
          target_platform=st.sampled_from(["p0", "p1"]))
    def migrate(self, index, target_platform):
        name = "m%d" % index
        outcome = self.controller.migrate(name, target_platform)
        if name not in self.live:
            assert not outcome
        if outcome:
            assert self.controller.deployed[name].platform == (
                target_platform
            )

    @rule(index=st.integers(min_value=0, max_value=30))
    def failing_migrate(self, index):
        name = "m%d" % index
        record = self.controller.deployed.get(name)
        home = record.platform if record is not None else None
        assert not self.controller.migrate(name, "p2")
        if home is not None:
            assert self.controller.deployed[name].platform == home

    @rule(index=st.integers(min_value=0, max_value=30),
          home=st.booleans())
    def adopt(self, index, home):
        # Hand a module to the other controller the way a reshard does:
        # export, adopt, and only then kill the source copy.
        name = "m%d" % index
        src, dst = (
            (self.sibling, self.controller) if home
            else (self.controller, self.sibling)
        )
        if name not in src.deployed:
            return
        outcome = dst.adopt_module(src.export_module(name))
        if outcome:
            assert src.kill(name)
            if home:
                self.live.add(name)
            else:
                self.live.discard(name)
        else:
            assert name in src.deployed and name not in dst.deployed

    # -- invariants ------------------------------------------------------
    @invariant()
    def nothing_pending_nothing_violated(self):
        for controller in (
            getattr(self, "controller", None), getattr(self, "sibling", None)
        ):
            if controller is None:
                continue
            assert controller.journal.pending_intents() == []
            assert collect_violations(controller) == []

    @invariant()
    def flow_rules_mirror_deployments(self):
        controller = getattr(self, "controller", None)
        if controller is None:
            return
        expected = {
            (record.platform, record.address): module_id
            for module_id, record in controller.deployed.items()
        }
        assert controller.flow_rules == expected

    @invariant()
    def platforms_consistent(self):
        controller = getattr(self, "controller", None)
        if controller is None:
            return
        placed = {}
        for platform in controller.network.platforms():
            for module_id, (address, _cfg) in platform.modules.items():
                assert module_id not in placed, "module on 2 platforms"
                placed[module_id] = (platform.name, address)
            # The switch table only steers live modules.
            cookies = {r.cookie for r in platform.flow_table.rules}
            assert cookies == set(platform.modules)
            assert platform.capacity is None or (
                len(platform.modules) <= platform.capacity
            )
        assert set(placed) == set(controller.deployed)
        for module_id, record in controller.deployed.items():
            assert placed[module_id] == (
                record.platform, record.address,
            )

    @invariant()
    def addresses_unique(self):
        controller = getattr(self, "controller", None)
        if controller is None:
            return
        addresses = [
            record.address for record in controller.deployed.values()
        ]
        assert len(addresses) == len(set(addresses))


ControllerFuzz = ControllerMachine.TestCase
ControllerFuzz.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
