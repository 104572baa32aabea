"""The operator topology graph.

A :class:`Network` holds typed nodes connected by bidirectional links:

* :class:`Router` -- forwards by longest-prefix match,
* :class:`Middlebox` -- an operator middlebox, backed by a Click element
  class (stateful firewall, HTTP optimizer, web cache, NAT...),
* :class:`Platform` -- an In-Net processing platform with an address
  pool from which deployed modules get their unique addresses,
* :class:`ClientSubnet` -- the operator's residential clients,
* :class:`Host` -- a single addressed endpoint,
* :class:`Internet` -- everything outside the operator (default route).

``compute_routes()`` fills every router's table with shortest-path
routes toward every addressed node, which is the "snapshot of routing
tables" the controller verifies against (Section 4.3).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.common.addr import parse_prefix, prefix_range
from repro.common.errors import ConfigError
from repro.common.intervals import IntervalSet
from repro.netmodel.routing import RoutingTable


class Node:
    """Base class for topology nodes."""

    def __init__(self, name: str):
        self.name = name
        #: port number -> (peer node name, peer port).
        self.ports: Dict[int, Tuple[str, int]] = {}
        self._port_counter = itertools.count()

    def allocate_port(self) -> int:
        """Next unused port number on this node."""
        port = next(self._port_counter)
        while port in self.ports:
            port = next(self._port_counter)
        return port

    #: Addresses owned by this node (empty = none).
    def owned_addresses(self) -> IntervalSet:
        return IntervalSet.empty()

    @property
    def kind(self) -> str:
        return type(self).__name__.lower()

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self.name)


class Router(Node):
    """An IP router with an LPM routing table."""

    def __init__(self, name: str):
        super().__init__(name)
        self.table = RoutingTable()


class Host(Node):
    """A single endpoint with one address."""

    def __init__(self, name: str, address: int):
        super().__init__(name)
        self.address = address

    def owned_addresses(self) -> IntervalSet:
        return IntervalSet.single(self.address)


class ClientSubnet(Node):
    """The operator's residential/mobile client subnet."""

    def __init__(self, name: str, network: int, plen: int):
        super().__init__(name)
        self.network = network
        self.plen = plen

    def owned_addresses(self) -> IntervalSet:
        low, high = prefix_range(self.network, self.plen)
        return IntervalSet.from_interval(low, high)


class Internet(Node):
    """Everything outside the operator's network (default route)."""

    def owned_addresses(self) -> IntervalSet:
        # The internet owns whatever nobody inside owns; for routing we
        # install it as the default route rather than via this set.
        return IntervalSet.empty()


class Middlebox(Node):
    """An operator middlebox backed by a Click element class.

    ``element_class``/``element_args`` are instantiated once per
    verification (symbolically) and once per concrete run.  Two-interface
    elements (StatefulFirewall, ChangeEnforcer) map their element ports
    to topology ports directly; single-port elements placed on-path
    forward from each interface to the other.
    """

    def __init__(
        self,
        name: str,
        element_class: str,
        element_args: Tuple[str, ...] = (),
    ):
        super().__init__(name)
        self.element_class = element_class
        self.element_args = tuple(element_args)

    def make_element(self):
        """Instantiate the backing Click element."""
        from repro.click.element import create_element

        return create_element(self.element_class, self.name,
                              list(self.element_args))


class Platform(Node):
    """An In-Net processing platform.

    Deployed modules are tracked as ``module name -> (address, config)``;
    the platform owns its whole address pool, so routers deliver any
    pool address here and the platform's internal switch demuxes to the
    right module (the OpenFlow rules of Section 4.3).
    """

    def __init__(
        self,
        name: str,
        pool_network: int,
        pool_plen: int,
        capacity: Optional[int] = None,
    ):
        super().__init__(name)
        self.pool_network = pool_network
        self.pool_plen = pool_plen
        #: Maximum concurrently deployed modules (None = unbounded by
        #: policy; the address pool still bounds it physically).
        self.capacity = capacity
        #: Availability: a crashed platform is marked down by the
        #: failover engine so it stops being a placement candidate
        #: (see :mod:`repro.resilience`).
        self.up = True
        #: module name -> (assigned address, ClickConfig).
        self.modules: Dict[str, Tuple[int, object]] = {}
        self._next_offset = 1
        #: Addresses handed out but returned unused (failed/aborted
        #: placements); reused lowest-first before fresh offsets.
        self._released: set = set()
        #: Lifetime allocation accounting.  At control-plane quiesce
        #: (no trial placement in flight) every outstanding address
        #: must be bound to a deployed module, so
        #: ``allocated_total - released_total == len(modules)`` -- the
        #: leak invariant the chaos harness checks after every event.
        self.allocated_total = 0
        self.released_total = 0
        #: The platform switch's OpenFlow-style table; the controller's
        #: steering rules land here (Section 4.3).
        from repro.netmodel.flowtable import FlowTable

        self.flow_table = FlowTable()

    @property
    def has_capacity(self) -> bool:
        """Whether one more module fits under the capacity policy.

        A platform marked failed never has capacity: the controller's
        candidate loop and the migration target check both route
        through here, so a dead box silently drops out of placement.
        """
        if not self.up:
            return False
        return self.capacity is None or len(self.modules) < self.capacity

    def mark_failed(self) -> None:
        """Take the platform out of service (crash / maintenance).

        Callers that hold a :class:`Network` should also
        ``bump_epoch()`` so cached compiled models are invalidated;
        the failover engine does both.
        """
        self.up = False

    def mark_recovered(self) -> None:
        """Return the platform to service after repair."""
        self.up = True

    def outstanding_addresses(self) -> int:
        """Addresses handed out and not yet returned to the pool."""
        return self.allocated_total - self.released_total

    def address_outstanding(self, address: int) -> bool:
        """Whether the allocator counts ``address`` as handed out and
        not yet returned to the pool."""
        low = prefix_range(self.pool_network, self.pool_plen)[0]
        return (low <= address < low + self._next_offset
                and address not in self._released)

    def owned_addresses(self) -> IntervalSet:
        low, high = prefix_range(self.pool_network, self.pool_plen)
        return IntervalSet.from_interval(low, high)

    def allocate_address(self) -> int:
        """Next unused address from the pool (released ones first)."""
        in_use = {addr for addr, _cfg in self.modules.values()}
        while self._released:
            candidate = min(self._released)
            self._released.discard(candidate)
            if candidate not in in_use:
                self.allocated_total += 1
                return candidate
        low, high = prefix_range(self.pool_network, self.pool_plen)
        candidate = low + self._next_offset
        while candidate in in_use:
            candidate += 1
        if candidate > high:
            raise ConfigError(
                "platform %r address pool exhausted" % (self.name,)
            )
        self._next_offset = candidate - low + 1
        self.allocated_total += 1
        return candidate

    def adopt_address(self, address: int) -> None:
        """Register an externally assigned address as allocated.

        Journal replay re-installs modules with the exact addresses the
        original controller handed out; this keeps the allocation
        accounting (and hence the leak invariant) balanced without
        running the allocator.
        """
        low, high = prefix_range(self.pool_network, self.pool_plen)
        if not low <= address <= high:
            raise ConfigError(
                "address %d is not in platform %r's pool"
                % (address, self.name)
            )
        self._released.discard(address)
        self.allocated_total += 1

    def release_address(self, address: int) -> None:
        """Return an allocated-but-unused address to the pool.

        The controller calls this on every non-commit exit of a trial
        placement (rejection, verification failure, next-candidate);
        without it each failed attempt permanently shrinks the pool.
        """
        low, high = prefix_range(self.pool_network, self.pool_plen)
        if not low <= address <= high:
            raise ConfigError(
                "address %d is not in platform %r's pool"
                % (address, self.name)
            )
        in_use = {addr for addr, _cfg in self.modules.values()}
        if address in in_use:
            raise ConfigError(
                "address %d is still bound to a deployed module"
                % (address,)
            )
        self.released_total += 1
        if address == low + self._next_offset - 1:
            # Releasing the most recent allocation rewinds the cursor,
            # so a fully-rejected request leaves the pool byte-identical.
            self._next_offset -= 1
        else:
            self._released.add(address)

    def free_address_count(self) -> int:
        """Addresses :meth:`allocate_address` can still hand out.

        Leaked allocations (handed out, never deployed, never released)
        show up here as missing capacity -- the regression the
        controller's release-on-every-non-commit-exit discipline guards
        against.
        """
        low, high = prefix_range(self.pool_network, self.pool_plen)
        in_use = {addr for addr, _cfg in self.modules.values()}
        cursor = low + self._next_offset
        fresh = max(0, high - cursor + 1)
        fresh -= sum(1 for addr in in_use if addr >= cursor)
        fresh += sum(1 for addr in self._released if addr not in in_use)
        return fresh

    def deploy(
        self,
        module_name: str,
        address: int,
        config,
        proto: Optional[int] = None,
        port: Optional[int] = None,
    ) -> None:
        """Record a deployed module and install its steering rule.

        With ``proto``/``port`` set, only that traffic class is steered
        to the module (the paper's address/protocol/port combination).
        """
        if module_name in self.modules:
            raise ConfigError(
                "module %r already deployed on %r"
                % (module_name, self.name)
            )
        self.modules[module_name] = (address, config)
        from repro.netmodel.flowtable import module_steering_rule

        module_steering_rule(
            self.flow_table, address, module_name,
            proto=proto, port=port,
        )

    def undeploy(self, module_name: str) -> None:
        """Remove a deployed module and its flow rules."""
        self.modules.pop(module_name, None)
        self.flow_table.remove_by_cookie(module_name)

    def module_address(self, module_name: str) -> int:
        """Assigned address of a deployed module."""
        return self.modules[module_name][0]


class Link:
    """A bidirectional link between two node ports."""

    def __init__(
        self,
        a: str,
        a_port: int,
        b: str,
        b_port: int,
        latency_s: float = 0.0,
    ):
        self.a, self.a_port = a, a_port
        self.b, self.b_port = b, b_port
        #: One-way propagation delay (the forwarding plane sums these
        #: along the path into each delivery's timestamp).
        self.latency_s = latency_s

    def __repr__(self) -> str:
        return "Link(%s[%d] <-> %s[%d], %.1f ms)" % (
            self.a, self.a_port, self.b, self.b_port,
            self.latency_s * 1e3,
        )


class Network:
    """The operator's topology snapshot."""

    def __init__(self, name: str = "operator"):
        self.name = name
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []
        #: Model epoch: bumped by topology changes and by the controller
        #: on every *real* deploy, kill, and migration.  Trial
        #: placements never bump it, which is what lets compiled models
        #: and routing tables be reused across admission candidates.
        self._epoch = 0
        #: Signature of the route inputs the last time
        #: :meth:`compute_routes` actually ran (None = never).
        self._routes_signature = None

    # -- epochs ---------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Current model epoch (see :meth:`bump_epoch`)."""
        return self._epoch

    def bump_epoch(self) -> None:
        """Invalidate cached models derived from this snapshot.

        Called automatically on structural changes and by the
        controller when module placement *commits* (deploy, kill,
        migrate).  Consumers (the controller's compiled-network cache)
        compare epochs to decide whether a cached model is still valid.
        """
        self._epoch += 1

    def topology_signature(self) -> int:
        """Hash of everything :meth:`compute_routes` depends on.

        Links plus per-node address ownership -- deliberately *not*
        platform-internal module state: deploying a module onto a
        platform never changes inter-node routing (the platform owns
        its whole pool prefix), which is exactly the route-recompute
        elision the admission fast path relies on.

        Deliberately *not* memoized on the epoch: callers rely on the
        signature noticing out-of-band surgery on ``links``/``nodes``
        that never called :meth:`bump_epoch`.
        """
        link_part = tuple(sorted(
            (l.a, l.a_port, l.b, l.b_port) for l in self.links
        ))
        owner_part = []
        for name in sorted(self.nodes):
            node = self.nodes[name]
            if isinstance(node, Internet):
                owner_part.append((name, "default"))
            elif isinstance(node, Host):
                owner_part.append((name, node.address, 32))
            elif isinstance(node, ClientSubnet):
                owner_part.append((name, node.network, node.plen))
            elif isinstance(node, Platform):
                owner_part.append(
                    (name, node.pool_network, node.pool_plen)
                )
        return hash((link_part, tuple(owner_part)))

    def model_signature(self) -> int:
        """Hash of everything a compiled symbolic model depends on.

        Topology signature + committed module placement + the explicit
        epoch, so cached :class:`~repro.netmodel.symgraph.CompiledNetwork`
        instances are invalidated both by real state changes and by
        explicit :meth:`bump_epoch` calls.
        """
        placement = []
        for platform in self.platforms():
            placement.append((
                platform.name,
                tuple(sorted(
                    (name, address, id(config))
                    for name, (address, config)
                    in platform.modules.items()
                )),
            ))
        return hash((
            self._epoch,
            self.topology_signature(),
            tuple(placement),
        ))

    # -- node constructors ---------------------------------------------------
    def _add(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ConfigError("node %r added twice" % (node.name,))
        self.nodes[node.name] = node
        self.bump_epoch()
        return node

    def add_router(self, name: str) -> Router:
        """Add an LPM router."""
        return self._add(Router(name))

    def add_host(self, name: str, address: str) -> Host:
        """Add a single-address endpoint."""
        addr, plen = parse_prefix(address)
        if plen != 32:
            raise ConfigError("host address must be /32: %r" % (address,))
        return self._add(Host(name, addr))

    def add_client_subnet(self, name: str, prefix: str) -> ClientSubnet:
        """Add the operator's client subnet."""
        network, plen = parse_prefix(prefix)
        return self._add(ClientSubnet(name, network, plen))

    def add_internet(self, name: str = "internet") -> Internet:
        """Add the internet node (default-route destination)."""
        return self._add(Internet(name))

    def add_middlebox(
        self, name: str, element_class: str, *element_args: str
    ) -> Middlebox:
        """Add an operator middlebox backed by a Click element class."""
        return self._add(Middlebox(name, element_class, element_args))

    def add_platform(
        self,
        name: str,
        pool_prefix: str,
        capacity: Optional[int] = None,
    ) -> Platform:
        """Add a processing platform owning ``pool_prefix`` addresses."""
        network, plen = parse_prefix(pool_prefix)
        return self._add(Platform(name, network, plen, capacity))

    # -- links ----------------------------------------------------------------
    def link(
        self,
        a: str,
        b: str,
        a_port: Optional[int] = None,
        b_port: Optional[int] = None,
        latency_s: float = 0.0,
    ) -> Link:
        """Connect two nodes with a bidirectional link.

        Ports are auto-assigned unless given (two-interface middleboxes
        care: port 0 is the protected side of a StatefulFirewall).
        ``latency_s`` is the one-way propagation delay.
        """
        node_a, node_b = self.node(a), self.node(b)
        if a_port is None:
            a_port = node_a.allocate_port()
        if b_port is None:
            b_port = node_b.allocate_port()
        for node, port in ((node_a, a_port), (node_b, b_port)):
            if port in node.ports:
                raise ConfigError(
                    "port %d of %r already linked" % (port, node.name)
                )
        node_a.ports[a_port] = (b, b_port)
        node_b.ports[b_port] = (a, a_port)
        wire = Link(a, a_port, b, b_port, latency_s=latency_s)
        self.links.append(wire)
        self.bump_epoch()
        return wire

    def link_latency(self, a: str, b: str) -> float:
        """One-way latency of the (first) link between two nodes."""
        for wire in self.links:
            if {wire.a, wire.b} == {a, b}:
                return wire.latency_s
        raise ConfigError("no link between %r and %r" % (a, b))

    def unlink(self, a: str, b: str) -> None:
        """Remove the link between two nodes (failure / maintenance).

        Routes are recomputed; callers should re-verify the snapshot
        (``Controller.verify_snapshot``) afterwards.
        """
        node_a, node_b = self.node(a), self.node(b)
        matching = [
            l for l in self.links
            if {l.a, l.b} == {a, b}
        ]
        if not matching:
            raise ConfigError("no link between %r and %r" % (a, b))
        for link in matching:
            self.links.remove(link)
            for node, port in (
                (self.node(link.a), link.a_port),
                (self.node(link.b), link.b_port),
            ):
                node.ports.pop(port, None)
        self.bump_epoch()
        self.compute_routes()

    # -- queries ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigError("unknown node %r" % (name,))

    def routers(self) -> List[Router]:
        return [n for n in self.nodes.values() if isinstance(n, Router)]

    def platforms(self) -> List[Platform]:
        return [n for n in self.nodes.values() if isinstance(n, Platform)]

    def internet_nodes(self) -> List[Internet]:
        return [n for n in self.nodes.values() if isinstance(n, Internet)]

    def neighbors(self, name: str) -> List[Tuple[int, str, int]]:
        """(local port, peer name, peer port) for every link of a node."""
        node = self.node(name)
        return [
            (port, peer, peer_port)
            for port, (peer, peer_port) in sorted(node.ports.items())
        ]

    # -- routing -----------------------------------------------------------------
    def compute_routes(self, force: bool = False) -> None:
        """Fill every router's table with shortest-path routes.

        For each addressed node a BFS over the link graph yields each
        router's next hop; the route's prefix is the node's owned
        address range (internet nodes get the 0.0.0.0/0 default).

        Recomputation is **elided** when nothing routing depends on has
        changed since the last run: routes are a function of links and
        address ownership only, so trial module placements (which only
        touch platform-internal state) re-use the existing tables.  The
        staleness check hashes links + ownership directly, so even
        out-of-band mutations of ``links``/``ports`` are caught.  Pass
        ``force=True`` to recompute unconditionally (e.g. after editing
        a router table by hand).
        """
        signature = self.topology_signature()
        if not force and signature == self._routes_signature:
            return
        self._routes_signature = signature
        for router in self.routers():
            router.table = RoutingTable()
        destinations: List[Tuple[Node, Tuple[int, int]]] = []
        for node in self.nodes.values():
            if isinstance(node, Internet):
                destinations.append((node, (0, 0)))
            elif isinstance(node, Host):
                destinations.append((node, (node.address, 32)))
            elif isinstance(node, ClientSubnet):
                destinations.append((node, (node.network, node.plen)))
            elif isinstance(node, Platform):
                destinations.append(
                    (node, (node.pool_network, node.pool_plen))
                )
        for destination, (network, plen) in destinations:
            parents = self._bfs_parents(destination.name)
            for router in self.routers():
                hop = parents.get(router.name)
                if hop is None:
                    continue  # destination unreachable from this router
                out_port, _peer = hop
                router.table.add(network, plen, out_port)

    def _bfs_parents(
        self, root: str
    ) -> Dict[str, Tuple[int, str]]:
        """BFS from ``root``; for each node, the (port, peer) leading
        one hop closer to the root."""
        parents: Dict[str, Tuple[int, str]] = {}
        visited = {root}
        frontier = [root]
        while frontier:
            next_frontier: List[str] = []
            for name in frontier:
                for port, peer, peer_port in self.neighbors(name):
                    if peer in visited:
                        continue
                    visited.add(peer)
                    parents[peer] = (peer_port, name)
                    next_frontier.append(peer)
            frontier = next_frontier
        return parents

    def __repr__(self) -> str:
        return "Network(%r, %d nodes, %d links)" % (
            self.name, len(self.nodes), len(self.links),
        )
