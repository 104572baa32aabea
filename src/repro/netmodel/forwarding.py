"""A concrete forwarding plane over the topology.

The symbolic graph (:mod:`repro.netmodel.symgraph`) answers "what can
happen"; this module makes *actual packets* happen: routers forward by
LPM, operator middleboxes run their real Click elements, platforms
demux module-addressed traffic into per-module Click runtimes (whose
timer-driven elements -- batchers, shapers -- are honored), and module
egress re-enters the network.

Integration tests and the use cases use it to confirm that what static
analysis approved is what the dataplane does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.click.element import Element, create_element
from repro.click.packet import Packet
from repro.click.runtime import Runtime
from repro.common.errors import SimulationError
from repro.netmodel.topology import (
    ClientSubnet,
    Host,
    Internet,
    Middlebox,
    Network,
    Platform,
    Router,
)

#: Safety bound on forwarding hops (loops indicate a broken snapshot).
MAX_HOPS = 64


@dataclass
class Delivery:
    """One packet arriving at an endpoint."""

    node: str
    packet: Packet
    time: float
    path: Tuple[str, ...]


@dataclass
class ForwardingStats:
    """Counters for one plane instance."""

    forwarded: int = 0
    delivered: int = 0
    dropped_no_route: int = 0
    dropped_by_middlebox: int = 0
    dropped_by_platform: int = 0


class _ModuleInstance:
    """A deployed module's live Click runtime on a platform."""

    def __init__(self, name: str, address: int, config,
                 start_time: float):
        self.name = name
        self.address = address
        self.runtime = Runtime(config, start_time=start_time)
        self.entry = config.sources()[0]

    def inject(self, packet: Packet) -> None:
        self.runtime.inject(self.entry, packet)

    def drain(self) -> List[Packet]:
        """Packets emitted by the module since the last drain."""
        return [record.packet for record in self.runtime.take_output()]


class ForwardingPlane:
    """Drives concrete packets across a network snapshot.

    Middlebox elements and module runtimes are instantiated once per
    plane and keep state across packets, so stateful firewalls behave
    like the real thing.  Time advances via :meth:`run_until`, which
    fires module timers (batching!) and forwards whatever they release.
    """

    def __init__(self, network: Network):
        self.network = network
        self.now = 0.0
        self.stats = ForwardingStats()
        self.deliveries: List[Delivery] = []
        self._middlebox_elements: Dict[str, Element] = {}
        self._modules: Dict[str, List[_ModuleInstance]] = {}
        #: (a, b) -> one-way propagation delay, both directions.
        self._latency: Dict[Tuple[str, str], float] = {}
        for wire in network.links:
            self._latency[(wire.a, wire.b)] = wire.latency_s
            self._latency[(wire.b, wire.a)] = wire.latency_s
        for node in network.nodes.values():
            if isinstance(node, Middlebox):
                self._middlebox_elements[node.name] = node.make_element()
            elif isinstance(node, Platform):
                instances = []
                for module_name, (address, config) in sorted(
                    node.modules.items()
                ):
                    instances.append(_ModuleInstance(
                        module_name, address, config, self.now,
                    ))
                self._modules[node.name] = instances

    # -- public API ---------------------------------------------------------
    def send(
        self, from_node: str, packet: Packet, at: Optional[float] = None
    ) -> List[Delivery]:
        """Send ``packet`` from an endpoint; returns *new* deliveries.

        Packets buffered inside modules (batchers) are not delivered
        until :meth:`run_until` advances past their release time.
        """
        if at is not None:
            if at < self.now:
                raise SimulationError("cannot send in the past")
            self.run_until(at)
        origin = self.network.node(from_node)
        if not isinstance(origin, (Host, ClientSubnet, Internet)):
            raise SimulationError(
                "packets originate at endpoints, not %r" % (from_node,)
            )
        if len(origin.ports) != 1:
            raise SimulationError(
                "endpoint %r must have exactly one link" % (from_node,)
            )
        before = len(self.deliveries)
        (peer, peer_port), = origin.ports.values()
        self._forward(
            peer, peer_port, packet, [from_node],
            self._latency.get((from_node, peer), 0.0),
        )
        return self.deliveries[before:]

    def run_until(self, deadline: float) -> List[Delivery]:
        """Advance time, firing module timers; returns new deliveries."""
        if deadline < self.now:
            raise SimulationError("time cannot go backwards")
        before = len(self.deliveries)
        self.now = deadline
        for platform_name, instances in self._modules.items():
            for instance in instances:
                instance.runtime.run(until=deadline)
                self._drain_module(platform_name, instance)
        return self.deliveries[before:]

    # -- internals -------------------------------------------------------------
    def _forward(
        self, node_name: str, in_port: int, packet: Packet,
        path: List[str], latency: float = 0.0,
    ) -> None:
        if len(path) > MAX_HOPS:
            raise SimulationError(
                "forwarding loop: %s" % " -> ".join(path)
            )
        self.stats.forwarded += 1
        node = self.network.node(node_name)
        path = path + [node_name]
        if isinstance(node, (Host, ClientSubnet, Internet)):
            self.stats.delivered += 1
            self.deliveries.append(Delivery(
                node=node_name, packet=packet,
                time=self.now + latency,
                path=tuple(path),
            ))
            return
        if isinstance(node, Router):
            out_port = node.table.lookup(packet.ip_dst)
            if out_port is None or out_port not in node.ports:
                self.stats.dropped_no_route += 1
                return
            peer, peer_port = node.ports[out_port]
            self._forward(
                peer, peer_port, packet, path,
                latency + self._latency.get((node_name, peer), 0.0),
            )
            return
        if isinstance(node, Middlebox):
            self._through_middlebox(node, in_port, packet, path,
                                    latency)
            return
        if isinstance(node, Platform):
            self._into_platform(node, packet, path, latency)
            return
        raise SimulationError("cannot forward through %r" % (node_name,))

    def _through_middlebox(
        self, node: Middlebox, in_port: int, packet: Packet,
        path: List[str], latency: float = 0.0,
    ) -> None:
        element = self._middlebox_elements[node.name]
        element_port = in_port if element.n_inputs == 2 else 0
        outputs = element.push(element_port, packet)
        if not outputs:
            self.stats.dropped_by_middlebox += 1
            return
        for out_port, out_packet in outputs:
            if element.n_inputs == 2:
                # Directional element: direction d enters interface d
                # and leaves the opposite one (see symgraph adapter).
                iface = 1 - out_port if out_port in (0, 1) else out_port
            else:
                iface = 1 - in_port if in_port in (0, 1) else 0
            link = node.ports.get(iface)
            if link is None:
                self.stats.dropped_by_middlebox += 1
                continue
            peer, peer_port = link
            self._forward(
                peer, peer_port, out_packet, path,
                latency + self._latency.get((node.name, peer), 0.0),
            )

    def _into_platform(
        self, node: Platform, packet: Packet, path: List[str],
        latency: float = 0.0,
    ) -> None:
        from repro.netmodel.flowtable import (
            ACTION_DROP,
            ACTION_OUTPUT,
            ACTION_TO_MODULE,
        )

        rule = node.flow_table.lookup(packet)
        if rule is None or rule.action.kind == ACTION_DROP:
            self.stats.dropped_by_platform += 1
            return
        if rule.action.kind == ACTION_OUTPUT:
            link = node.ports.get(rule.action.target)
            if link is None:
                self.stats.dropped_by_platform += 1
                return
            peer, peer_port = link
            self._forward(
                peer, peer_port, packet, path,
                latency + self._latency.get((node.name, peer), 0.0),
            )
            return
        for instance in self._modules.get(node.name, []):
            if instance.name == rule.action.target:
                instance.inject(packet)
                self._drain_module(node.name, instance, path, latency)
                return
        self.stats.dropped_by_platform += 1

    def _drain_module(
        self,
        platform_name: str,
        instance: _ModuleInstance,
        path: Optional[List[str]] = None,
        latency: float = 0.0,
    ) -> None:
        node = self.network.node(platform_name)
        if not node.ports:
            return
        uplink_port = min(node.ports)
        egress_path = (path or [platform_name]) + [
            "%s/%s" % (platform_name, instance.name)
        ]
        for out_packet in instance.drain():
            # Hairpin to a co-located module, else out the uplink.
            for other in self._modules[platform_name]:
                if (
                    other is not instance
                    and out_packet.ip_dst == other.address
                ):
                    other.inject(out_packet)
                    self._drain_module(platform_name, other,
                                       egress_path, latency)
                    break
            else:
                peer, peer_port = node.ports[uplink_port]
                self._forward(
                    peer, peer_port, out_packet, egress_path,
                    latency + self._latency.get(
                        (platform_name, peer), 0.0
                    ),
                )

    # -- introspection ------------------------------------------------------------
    def module_runtime(self, module_name: str) -> Runtime:
        """The live Click runtime of a deployed module."""
        for instances in self._modules.values():
            for instance in instances:
                if instance.name == module_name:
                    return instance.runtime
        raise SimulationError("unknown module %r" % (module_name,))

    def middlebox_element(self, name: str) -> Element:
        """The live element instance of an operator middlebox."""
        return self._middlebox_elements[name]

    def deliveries_at(self, node: str) -> List[Delivery]:
        """Deliveries recorded at one endpoint."""
        return [d for d in self.deliveries if d.node == node]
