"""Compiling a network snapshot into a symbolic graph.

The controller verifies requests by "pretending it has instantiated the
client processing" (Section 4.3): it compiles the topology *plus* the
trial-deployed modules into one :class:`~repro.symexec.engine.SymGraph`
and runs reachability checks on it.  This module is that compiler.

Conventions:

* topology nodes keep their names; a module's elements become
  ``<module>/<element>`` vertices;
* a platform vertex demuxes arriving traffic to the module whose
  assigned address matches the destination (the OpenFlow rules the
  real controller installs on Open vSwitch), and forwards module egress
  out its uplink; a module hangs off two pseudo-ports of its platform,
  both derived from its address, so the numbering does not depend on
  who else is deployed or on how the model was built;
* endpoint vertices (hosts, client subnets, internet) are sinks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.common import fields as F
from repro.common.errors import VerificationError
from repro.common.intervals import FULL_RANGE, IntervalSet, SplitIndex
from repro.netmodel.topology import (
    ClientSubnet,
    Host,
    Internet,
    Middlebox,
    Network,
    Platform,
    Router,
)
from repro.policy.flowspec import FlowSpec, parse_flowspec
from repro.policy.grammar import (
    KIND_ADDRESS,
    KIND_CLIENT,
    KIND_ELEMENT,
    KIND_INTERNET,
    KIND_NAME,
    NodeRef,
)
from repro.symexec.engine import (
    Exploration,
    SymbolicEngine,
    SymFlow,
    SymGraph,
    TraceEntry,
)
from repro.symexec.models import flows_matching
from repro.symexec.tuning import OPT

#: Platform pseudo-port bases.  A module's slot is its assigned address
#: (unique on its platform, fixed for its life), so the bases sit above
#: the whole IPv4 space: the same module gets the same two ports from a
#: from-scratch compile and from a splice, and topology uplink ports
#: stay far below.
MODULE_INGRESS_BASE = 1 << 32
MODULE_EGRESS_BASE = 2 << 32

def _endpoint_model(ctx, node, port, flow):
    # Endpoints are sinks; the engine never calls their model.
    return []


def _router_model(ctx, node, port, flow):
    branches, split = ctx.graph.payloads[node].split()
    results = []
    # Fork only the branches the flow's destination can meet: a fork
    # of any other would be constrained to death at once.  The last
    # branch is not forked but taken by the flow itself, met or not:
    # when nothing survives, that dead flow is what the engine drops.
    variable = flow.packet.var(F.IP_DST)
    if variable is None:
        raise VerificationError("field %r not tracked" % (F.IP_DST,))
    last = len(branches) - 1
    for index in split.meeting(flow.domain(variable)):
        if index < last:
            out_port, allowed = branches[index]
            fork = flow.fork()
            if fork.constrain(variable, allowed):
                results.append((out_port, fork))
    if branches:
        out_port, allowed = branches[last]
        if flow.constrain(variable, allowed):
            results.append((out_port, flow))
    return results


def _middlebox_model_factory(element, program: Callable) -> Callable:
    """Wrap a middlebox element's compiled program with the mapping
    from its element ports to the two interfaces of its topology
    node."""
    two_sided = element.n_inputs == 2

    def middlebox_model(ctx, node, port, flow):
        element_port = port if two_sided else 0
        outputs = program(ctx, node, element_port, flow)
        results = []
        for out_port, out_flow in outputs:
            if two_sided:
                # Directional elements (StatefulFirewall, IngressFilter,
                # ChangeEnforcer): port number = traffic direction.
                # Direction d enters on interface d and leaves on the
                # opposite interface.
                iface = 1 - out_port if out_port in (0, 1) else out_port
            else:
                # Single-port elements placed on-path forward each
                # direction to the opposite interface.
                iface = 1 - port if port in (0, 1) else 0
            results.append((iface, out_flow))
        return results

    return middlebox_model


class _Demux(NamedTuple):
    """A platform's steering rules as the symbolic demux sees them,
    for one version of its flow table."""

    version: int
    #: (ingress pseudo-port, residual match, the residual's fields
    #: other than ``ip_dst``) per steering rule.
    branches: List[Tuple[
        int, Dict[str, IntervalSet], Tuple[Tuple[str, IntervalSet], ...]
    ]]
    #: The branches' ``ip_dst`` residuals (None where a rule does not
    #: test it).
    split: SplitIndex
    #: Destinations that leave via the uplink: not a co-located
    #: module's address.
    egress: IntervalSet


class _PlatformState:
    """Payload of a platform vertex."""

    def __init__(self, platform: Platform, uplink_port: int):
        self.platform = platform
        self.uplink_port = uplink_port
        #: Spliced module -> pseudo-port slot (its assigned address).
        self.slots: Dict[str, int] = {}
        #: Memoized :meth:`demux`; splice/un-splice reset it.
        self._demux: Optional[_Demux] = None

    def demux(self) -> _Demux:
        """The demux over the spliced modules' steering rules.

        Read from the platform's OpenFlow-style table, so the symbolic
        demux follows exactly the rules the controller installed.
        Memoized per flow-table version: every ``Platform.deploy`` and
        ``undeploy`` installs or removes the module's rule, which bumps
        the version, and an (un)splice resets the memo.
        """
        from repro.netmodel.flowtable import ACTION_TO_MODULE

        table = self.platform.flow_table
        demux = self._demux
        if demux is not None and demux.version == table._version:
            OPT.memo_hits += 1
            return demux
        slots = self.slots
        branches = []
        for action, residual in table.symbolic_branches():
            if action.kind != ACTION_TO_MODULE:
                continue
            slot = slots.get(action.target)
            if slot is not None:
                branches.append((
                    MODULE_INGRESS_BASE + slot, residual,
                    tuple(
                        item for item in residual.items()
                        if item[0] != F.IP_DST
                    ),
                ))
        demux = self._demux = _Demux(
            table._version,
            branches,
            SplitIndex([residual.get(F.IP_DST)
                        for _port, residual, _rest in branches]),
            FULL_RANGE.subtract(IntervalSet.from_values(
                addr for addr, _cfg in self.platform.modules.values()
            )),
        )
        return demux


def _platform_model(ctx, node, port, flow):
    state: _PlatformState = ctx.graph.payloads[node]
    demux = state.demux()
    results = []
    # Below zero for uplink arrivals, so it only ever matches on egress.
    own_ingress = port - MODULE_EGRESS_BASE + MODULE_INGRESS_BASE
    for index in demux.split.meeting(flow.field_domain(F.IP_DST)):
        ingress_port, residual, rest = demux.branches[index]
        if ingress_port == own_ingress:
            continue  # no self-hairpin: a module never feeds itself
        # The destination meets this branch; a fork that a protocol or
        # port test rules out would only be constrained to death.
        if any(flow.field_domain(name).intersect(allowed).is_empty()
               for name, allowed in rest):
            OPT.prunes += 1
            continue
        fork = flow.fork()
        if all(fork.constrain_field(name, allowed)
               for name, allowed in residual.items()):
            results.append((ingress_port, fork))
    if port >= MODULE_EGRESS_BASE:
        # Module egress not destined to a co-located module leaves via
        # the uplink; the upstream router takes over.
        if flow.constrain_field(F.IP_DST, demux.egress):
            results.append((state.uplink_port, flow))
    # Traffic arriving on the uplink that matches no module is dropped
    # (the platform only accepts module-addressed traffic).
    return results


class _Topology(NamedTuple):
    """What requirement resolution asks of a snapshot's topology."""

    internet: Tuple[str, ...]
    #: (name, owned addresses) per client subnet.
    clients: Tuple[Tuple[str, IntervalSet], ...]
    #: (name, owned addresses) per host and client subnet.
    endpoints: Tuple[Tuple[str, IntervalSet], ...]
    #: (name, pool) per platform.
    platforms: Tuple[Tuple[str, IntervalSet], ...]
    #: Every address owned inside the operator's network.
    internal: IntervalSet


class CompiledNetwork:
    """A symbolic graph for one network snapshot, plus its resolvers.

    The model is *maintained*, not only compiled: :meth:`splice` adds
    one module's branch behind its platform's demux and
    :meth:`unsplice` removes exactly what that splice added, so the
    owner (the controller) follows commits and kills without
    recompiling the residents.  A spliced model explores exactly like
    a from-scratch compile of the same snapshot -- pseudo-ports
    included, since a module's slot is its address.

    The topology facts requirement resolution needs (who is internet,
    client, endpoint or platform, and what they own) are gathered once
    per compiled network: any node, link or ownership change moves
    :meth:`Network.model_signature`, which makes the owner compile a
    new one, and a splice only adds modules inside a platform's pool.
    """

    def __init__(self, network: Network, graph: SymGraph):
        self.network = network
        self.graph = graph
        #: module name -> (platform name, assigned address, ClickConfig).
        self.modules: Dict[str, Tuple[str, int, object]] = {}
        #: module name -> the graph nodes its splice added.
        self._spliced: Dict[str, List[str]] = {}
        self._topology_facts: Optional[_Topology] = None

    # -- incremental updates ------------------------------------------------
    def splice(
        self, platform_name: str, module_id: str, address: int, config
    ) -> None:
        """Add one module's elements behind its platform's demux.

        The platform's steering rules are read live from its flow
        table, so the module must be deployed on the platform
        (``platform.deploy``) for traffic to reach it.  A failed splice
        leaves the model as it was.
        """
        from repro.click.element import create_element

        if module_id in self.graph.models or module_id in self.modules:
            raise VerificationError(
                "module %r already present in the model" % (module_id,)
            )
        graph = self.graph
        state: _PlatformState = graph.payloads[platform_name]
        ingress = MODULE_INGRESS_BASE + address
        if (platform_name, ingress) in graph.edges:
            raise VerificationError(
                "two modules on %r share address %d"
                % (platform_name, address)
            )
        entry_classes = ("FromNetfront", "FromDevice")
        exit_classes = ("ToNetfront", "ToDevice")
        sources = [
            name for name in config.sources()
            if config.elements[name].class_name in entry_classes
        ]
        sinks = [
            name for name in config.sinks()
            if config.elements[name].class_name in exit_classes
        ]
        if not sources or not sinks:
            raise VerificationError(
                "module %r needs a FromNetfront source and a ToNetfront "
                "sink to be spliced" % (module_id,)
            )
        prefix = module_id + "/"
        nodes: List[str] = []
        try:
            for name, decl in config.elements.items():
                # Not a sink even at a ToNetfront: egress re-enters the
                # platform.
                graph.add_element(prefix + name, create_element(
                    decl.class_name, name, decl.args))
                nodes.append(prefix + name)
            for edge in config.edges:
                graph.connect(prefix + edge.src, edge.src_port,
                              prefix + edge.dst, edge.dst_port)
            graph.connect(platform_name, ingress, prefix + sources[0], 0)
            for sink in sinks:
                graph.connect(
                    prefix + sink, 0,
                    platform_name, MODULE_EGRESS_BASE + address,
                )
        except BaseException:
            graph.remove_nodes(nodes)
            raise
        state.slots[module_id] = address
        state._demux = None
        self.modules[module_id] = (platform_name, address, config)
        self._spliced[module_id] = nodes

    def unsplice(self, module_id: str) -> None:
        """Remove exactly what :meth:`splice` added for ``module_id``
        (every edge it added touches one of the module's nodes)."""
        nodes = self._spliced.pop(module_id)
        platform_name = self.modules.pop(module_id)[0]
        state: _PlatformState = self.graph.payloads[platform_name]
        del state.slots[module_id]
        state._demux = None
        self.graph.remove_nodes(nodes)

    # -- engine -----------------------------------------------------------
    def engine(self, **kwargs) -> SymbolicEngine:
        """A fresh symbolic engine over the compiled graph."""
        return SymbolicEngine(self.graph, **kwargs)

    # -- topology -----------------------------------------------------------
    def _topology(self) -> _Topology:
        facts = self._topology_facts
        if facts is None:
            internet, clients, endpoints, platforms = [], [], [], []
            internal = IntervalSet.empty()
            for node in self.network.nodes.values():
                owned = node.owned_addresses()
                internal = internal.union(owned)
                if isinstance(node, Internet):
                    internet.append(node.name)
                elif isinstance(node, Platform):
                    platforms.append((node.name, owned))
                elif isinstance(node, (Host, ClientSubnet)):
                    endpoints.append((node.name, owned))
                    if isinstance(node, ClientSubnet):
                        clients.append((node.name, owned))
            facts = self._topology_facts = _Topology(
                tuple(internet), tuple(clients), tuple(endpoints),
                tuple(platforms), internal,
            )
        return facts

    # -- resolver ----------------------------------------------------------
    def resolver(self, ref: NodeRef) -> Callable[[TraceEntry], bool]:
        """Map a requirement node reference to a trace-entry matcher."""
        if ref.kind == KIND_INTERNET:
            names = set(self._topology().internet)
            return lambda entry: entry.node in names
        if ref.kind == KIND_CLIENT:
            names = {name for name, _owned in self._topology().clients}
            return lambda entry: entry.node in names
        if ref.kind == KIND_NAME:
            if ref.name not in self.network.nodes:
                raise VerificationError(
                    "requirement references unknown node %r" % (ref.name,)
                )
            return lambda entry: entry.node == ref.name
        if ref.kind == KIND_ELEMENT:
            wanted = "%s/%s" % (ref.name, ref.element)
            port = ref.port
            return (
                lambda entry: entry.node == wanted and entry.port == port
            )
        if ref.kind == KIND_ADDRESS:
            return self._address_matcher(ref)
        raise VerificationError("unresolvable node reference %r" % (ref,))

    def _address_matcher(self, ref: NodeRef):
        network_addr, plen = ref.prefix
        from repro.common.addr import prefix_range

        low, high = prefix_range(network_addr, plen)
        wanted = IntervalSet.from_interval(low, high)
        names = set()
        # Module addresses match the module's entry element.
        for module_name, (_platform, address, config) in \
                self.modules.items():
            if address in wanted:
                for element in config.sources():
                    names.add("%s/%s" % (module_name, element))
        topology = self._topology()
        for name, owned in topology.endpoints:
            if owned.overlaps(wanted):
                names.add(name)
        if not names:
            # Fall back to any platform owning part of the range.
            for name, owned in topology.platforms:
                if owned.overlaps(wanted):
                    names.add(name)
        return lambda entry: entry.node in names

    # -- injection -----------------------------------------------------------
    def injection_points(
        self, ref: NodeRef
    ) -> List[Tuple[str, Optional[IntervalSet]]]:
        """Graph nodes where an origin hop's traffic departs, plus the
        source-address constraint that node kind implies.

        Internet-origin traffic is constrained to sources *outside* the
        operator's address space: the operator applies ingress filtering
        on its Internet links (Section 7), so spoofed internal sources
        never enter from outside.
        """
        points: List[Tuple[str, Optional[IntervalSet]]] = []
        topology = self._topology()
        if ref.kind == KIND_INTERNET:
            outside = IntervalSet.from_interval(
                0, (1 << 32) - 1
            ).subtract(topology.internal)
            points = [(name, outside) for name in topology.internet]
        elif ref.kind == KIND_CLIENT:
            points = list(topology.clients)
        elif ref.kind == KIND_ADDRESS:
            network_addr, plen = ref.prefix
            from repro.common.addr import prefix_range

            low, high = prefix_range(network_addr, plen)
            wanted = IntervalSet.from_interval(low, high)
            for name, owned in topology.endpoints:
                if owned.overlaps(wanted):
                    points.append((name, wanted))
            if not points:
                # Unowned addresses originate in the internet.
                points = [(name, wanted) for name in topology.internet]
        elif ref.kind == KIND_NAME:
            points = [(ref.name, None)]
        elif ref.kind == KIND_ELEMENT:
            points = [("%s/%s" % (ref.name, ref.element), None)]
        if not points:
            raise VerificationError(
                "no injection point for origin %r" % (ref,)
            )
        return points

    def explore_from(
        self,
        ref: NodeRef,
        flow_spec: Optional[FlowSpec] = None,
        engine: Optional[SymbolicEngine] = None,
    ) -> Exploration:
        """Inject symbolic traffic departing an origin node and explore.

        One injection per (origin node, origin clause) pair; the merged
        exploration covers every case.
        """
        engine = engine or self.engine()
        merged = Exploration()
        for node_name, source_set in self.injection_points(ref):
            base = SymFlow(engine.fresh_packet())
            if source_set is not None and not base.constrain_field(
                F.IP_SRC, source_set
            ):
                continue
            if flow_spec is not None:
                seeds = flows_matching(base, flow_spec)
            else:
                seeds = [base]
            for seed in seeds:
                part = engine.inject_departure(node_name, seed)
                merge_explorations(merged, part)
        return merged


def merge_explorations(target: Exploration, part: Exploration) -> None:
    """Accumulate ``part`` into ``target`` (in place)."""
    for key, flows in part.arrivals.items():
        target.arrivals.setdefault(key, []).extend(flows)
    target.delivered.extend(part.delivered)
    target.dropped.extend(part.dropped)
    target.steps += part.steps
    target.forks += part.forks
    target.pruned += part.pruned
    target.memo_hits += part.memo_hits
    target.cow_copies += part.cow_copies


class NetworkCompiler:
    """Builds the :class:`CompiledNetwork` for a snapshot."""

    def __init__(self, network: Network):
        self.network = network

    def compile(self) -> CompiledNetwork:
        """Compile topology + deployed modules into one graph.

        Routers' tables must already be computed
        (:meth:`Network.compute_routes`).
        """
        graph = SymGraph()
        # 1. Topology vertices.
        for node in self.network.nodes.values():
            if isinstance(node, Router):
                graph.add_node(node.name, _router_model,
                               payload=node.table)
            elif isinstance(node, (Host, ClientSubnet, Internet)):
                graph.add_node(node.name, _endpoint_model, is_sink=True)
            elif isinstance(node, Middlebox):
                graph.add_element(node.name, node.make_element(),
                                  wrap=_middlebox_model_factory)
            elif isinstance(node, Platform):
                uplink = min(node.ports) if node.ports else 0
                graph.add_node(
                    node.name, _platform_model,
                    payload=_PlatformState(node, uplink),
                )
            else:
                raise VerificationError(
                    "cannot compile node %r of kind %r"
                    % (node.name, node.kind)
                )
        # 2. Topology links (both directions).
        for link in self.network.links:
            graph.connect(link.a, link.a_port, link.b, link.b_port)
            graph.connect(link.b, link.b_port, link.a, link.a_port)
        # 3. Deployed modules, spliced behind their platform's demux.
        compiled = CompiledNetwork(self.network, graph)
        for platform in self.network.platforms():
            for module_name in sorted(platform.modules):
                address, config = platform.modules[module_name]
                compiled.splice(
                    platform.name, module_name, address, config
                )
        return compiled
