"""Abstract symbolic models of every Click element.

These are the middlebox models Section 4.3 describes: loop-free, no
dynamic allocation, with middlebox flow state pushed into the flow
itself (the stateful firewall *tags* the symbolic packet instead of
consulting a connection table, so verification is oblivious to flow
arrival order).

Each model is registered under the element's class name as a
*compiler*: ``compile(element) -> program``.  The compiler receives the
*concrete element instance* -- argument parsing therefore happens
exactly once, in the element's ``configure``, and the model and the
dataplane can never disagree about what a configuration means -- and
computes everything the configuration determines (rule lists, interval
sets, constants) before the first flow arrives.  The program it returns,
``program(ctx, node, in_port, flow) -> [(out_port, flow), ...]``, does
only the flow-dependent work.  Every element node of a
:class:`~repro.symexec.engine.SymGraph` runs its compiled program on
every path -- seed engine, generic worklist and segment replay alike --
so the model is its own summary (SymNet's transfer functions): one
description per element class.  Programs read ``OPT.enabled`` when they
run, never when they are compiled, so one graph explores the same way
under the fast path and under :func:`~repro.symexec.tuning.seed_mode`.

Annotation-style fields used by the models:

* ``firewall_tag`` -- 1 after a stateful firewall admitted the flow,
* ``paint`` -- the Paint color (0 = unpainted),
* ``sandboxed`` -- 1 after passing a ChangeEnforcer (runtime-enforced
  authorization; the static security checker treats it as authorized),
* ``auth_ok`` -- 1 for traffic whose authorization is guaranteed by a
  vetted stock appliance (reverse proxy responses).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.common import fields as F
from repro.common.errors import VerificationError
from repro.common.intervals import IntervalSet
from repro.policy.flowspec import Clause, FlowSpec
from repro.symexec.engine import ModelContext, SymFlow, WriteRecord
from repro.symexec.sympacket import SymVar
from repro.symexec.tuning import OPT

Program = Callable[[ModelContext, str, int, SymFlow],
                   List[Tuple[int, SymFlow]]]
Compiler = Callable[[object], Program]

_MODELS: Dict[str, Compiler] = {}


def register_model(class_name: str):
    """Decorator registering the model compiler for an element class."""

    def decorate(fn: Compiler) -> Compiler:
        if class_name in _MODELS:
            raise VerificationError(
                "model for %r registered twice" % (class_name,)
            )
        _MODELS[class_name] = fn
        return fn

    return decorate


def register_program(*class_names: str):
    """Decorator registering one configuration-free program for
    ``class_names``: every instance runs it unchanged."""

    def decorate(program: Program) -> Program:
        for class_name in class_names:
            register_model(class_name)(lambda element: program)
        return program

    return decorate


def model_for(class_name: str) -> Compiler:
    """The registered model compiler for ``class_name``.

    Unmodelled classes raise: the controller must refuse configurations
    it cannot analyse (only *known* elements are checkable, Section 4.1).
    """
    try:
        return _MODELS[class_name]
    except KeyError:
        raise VerificationError(
            "no symbolic model for element class %r" % (class_name,)
        )


def models_registry() -> Dict[str, Compiler]:
    """A copy of the class-name -> model compiler registry."""
    return dict(_MODELS)


def has_model(class_name: str) -> bool:
    """Whether ``class_name`` has a registered symbolic model."""
    return class_name in _MODELS


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

_ONE = IntervalSet.single(1)
_FULL_ADDR = IntervalSet.from_interval(0, (1 << 32) - 1)
_NON_HTTP_PORTS = IntervalSet.from_interval(0, 65535).subtract(
    IntervalSet.single(80)
)


def ensure_field(
    ctx: ModelContext, flow: SymFlow, field: str, absent_value: int = 0
) -> SymVar:
    """Bind ``field`` if missing, defaulting its domain to a constant.

    Annotation fields (paint, firewall_tag) do not exist until some
    element creates them; a packet without one behaves as carrying
    ``absent_value``.
    """
    variable = flow.packet.var(field)
    if variable is None:
        variable = ctx.factory.fresh(field)
        flow.packet.bind(field, variable)
        flow.constrain(variable, IntervalSet.single(absent_value))
    return variable


def set_const(
    ctx: ModelContext, flow: SymFlow, field: str, value: int, node: str
) -> None:
    """Redefine ``field`` to the constant ``value`` (logged as a write)."""
    fresh = ctx.factory.fresh_for_field(field)
    flow.write_field(field, fresh, node)
    flow.constrain(fresh, IntervalSet.single(value))


def set_fresh(
    ctx: ModelContext,
    flow: SymFlow,
    field: str,
    node: str,
    domain: IntervalSet = None,
) -> SymVar:
    """Redefine ``field`` to a brand-new unconstrained variable."""
    fresh = ctx.factory.fresh_for_field(field)
    flow.write_field(field, fresh, node)
    if domain is not None:
        flow.constrain(fresh, domain)
    return fresh


def clause_infeasible(flow: SymFlow, clause: Clause) -> bool:
    """Whether ``clause`` provably empties ``flow`` (prune before fork).

    Checks each constrained field against the flow's *current* domain:
    if any single intersection is empty, constraining a fork would kill
    it, so the fork can be skipped outright.  Conservative the other
    way -- aliased fields (two fields bound to one variable) may still
    die under the full sequential narrowing, which the real
    ``constrain_clause`` then catches exactly as the seed engine did.
    Fields the packet does not carry make the check pass so the fork
    path can raise the same error the seed engine raises.
    """
    packet_var = flow.packet.var
    domain = flow.domain
    for field, allowed in clause.constraint_items():
        variable = packet_var(field)
        if variable is None:
            return False
        if domain(variable).intersect(allowed).is_empty():
            return True
    return False


def flows_matching(flow: SymFlow, spec: FlowSpec) -> List[SymFlow]:
    """Forks of ``flow`` constrained to each satisfiable clause.

    With the fast path on, clauses that provably empty the flow are
    pruned before forking.  A pruned fork is exactly one the seed
    engine would have created, constrained to death, and discarded
    inside this function -- it never escapes to the caller either way.
    """
    out: List[SymFlow] = []
    opt = OPT.enabled
    for clause in spec.clauses:
        if opt and clause_infeasible(flow, clause):
            OPT.prunes += 1
            continue
        fork = flow.fork()
        if fork.constrain_clause(clause):
            out.append(fork)
    return out


def flows_not_matching(flow: SymFlow, spec: FlowSpec) -> List[SymFlow]:
    """Forks of ``flow`` constrained to the spec's complement (DNF)."""
    remaining = [flow.fork()]
    opt = OPT.enabled
    for clause in spec.clauses:
        negations = clause.negated_clauses()
        next_remaining: List[SymFlow] = []
        for candidate in remaining:
            for negated in negations:
                if opt and clause_infeasible(candidate, negated):
                    OPT.prunes += 1
                    continue
                fork = candidate.fork()
                if fork.constrain_clause(negated):
                    next_remaining.append(fork)
        remaining = next_remaining
        if not remaining:
            break
    return remaining


def sequential_rules(
    flow: SymFlow, rules
) -> Tuple[List[Tuple[int, SymFlow]], List[SymFlow]]:
    """First-match-wins rule evaluation over a symbolic flow.

    ``rules`` is ``[(rule_index, FlowSpec), ...]``.  Returns
    ``(matched, unmatched)`` where ``matched`` pairs each fork with the
    index of the rule it matched.
    """
    matched: List[Tuple[int, SymFlow]] = []
    remaining = [flow]
    for index, spec in rules:
        next_remaining: List[SymFlow] = []
        for candidate in remaining:
            matched.extend(
                (index, fork) for fork in flows_matching(candidate, spec)
            )
            next_remaining.extend(flows_not_matching(candidate, spec))
        remaining = next_remaining
        if not remaining:
            break
    return matched, remaining


def swap_endpoints(flow: SymFlow, node: str, ports: bool = True) -> None:
    """Answer in place: swap the address (and port) bindings.

    The aliasing swap -- after it, ``ip_dst`` IS the variable that was
    ``ip_src`` -- is the identity proof behind implicit authorization.
    """
    src = flow.packet.var(F.IP_SRC)
    dst = flow.packet.var(F.IP_DST)
    flow.write_field(F.IP_SRC, dst, node)
    flow.write_field(F.IP_DST, src, node)
    if ports:
        sport = flow.packet.var(F.TP_SRC)
        dport = flow.packet.var(F.TP_DST)
        flow.write_field(F.TP_SRC, dport, node)
        flow.write_field(F.TP_DST, sport, node)


# ---------------------------------------------------------------------------
# I/O and plumbing
# ---------------------------------------------------------------------------


@register_program(
    "FromNetfront", "FromDevice",
    "ToNetfront", "ToDevice",   # the sink flag is handled by the graph
    "CheckIPHeader",
    # Time, counting and queueing are not modelled (Sec. 7).
    "Queue", "Unqueue", "TimedUnqueue", "RatedUnqueue", "BandwidthShaper",
    "Counter", "FlowMeter",
)
def _identity(ctx, node, port, flow):
    return [(0, flow)]


@register_program("Discard", "Idle")
def _drop(ctx, node, port, flow):
    return []


@register_program("Tee", "RoundRobinSwitch")
def _every_wired_output(ctx, node, port, flow):
    # Tee copies to every output; a round-robin schedule depends on
    # arrival order, which symbolic execution does not model, so any
    # output is possible.
    outputs = ctx.graph.connected_outputs(node) or [0]
    last = len(outputs) - 1
    return [
        (out_port, flow if index == last else flow.fork())
        for index, out_port in enumerate(outputs)
    ]


@register_program("Meter", "RateLimiter")
def _both_outcomes(ctx, node, port, flow):
    # Rates are a run-time property (time is not modelled): both the
    # conformant and the excess outcome are possible for any packet.
    results = [(0, flow)]
    if ctx.graph.successor(node, 1) is not None:
        results.append((1, flow.fork()))
    return results


@register_model("Paint")
def _compile_paint(element):
    color = element.color

    def program(ctx, node, port, flow):
        ensure_field(ctx, flow, "paint")
        set_const(ctx, flow, "paint", color, node)
        return [(0, flow)]

    return program


@register_program("PaintSwitch")
def _paintswitch(ctx, node, port, flow):
    variable = ensure_field(ctx, flow, "paint")
    opt = OPT.enabled
    results = []
    for out_port in ctx.graph.connected_outputs(node) or [0]:
        allowed = IntervalSet.single(out_port)
        if opt and flow.domain(variable).intersect(allowed).is_empty():
            OPT.prunes += 1
            continue
        fork = flow.fork()
        if fork.constrain_field("paint", allowed):
            results.append((out_port, fork))
    return results


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@register_model("IPFilter")
def _compile_ipfilter(element):
    rules = [(i, spec) for i, (_allowed, spec) in enumerate(element.rules)]
    allowed_flags = [allowed for allowed, _spec in element.rules]

    def program(ctx, node, port, flow):
        matched, _unmatched = sequential_rules(flow, rules)
        return [(0, fork) for rule_index, fork in matched
                if allowed_flags[rule_index]]

    return program


@register_model("IPClassifier")
@register_model("Classifier")
def _compile_classifier(element):
    rules = list(enumerate(element.patterns))

    def program(ctx, node, port, flow):
        matched, _unmatched = sequential_rules(flow, rules)
        return matched

    return program


@register_model("IngressFilter")
def _compile_ingressfilter(element):
    inbound = element.INBOUND
    allowed_sources = _FULL_ADDR.subtract(element.protected)

    def program(ctx, node, port, flow):
        if port == inbound and not flow.constrain_field(
            F.IP_SRC, allowed_sources
        ):
            return []
        return [(port, flow)]

    return program


@register_model("Switch")
def _compile_switch(element):
    out_port = element.port

    def program(ctx, node, port, flow):
        if out_port < 0:
            return []
        return [(out_port, flow)]

    return program


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------


@register_model("IPRewriter")
def _compile_iprewriter(element):
    def ports(bounds):
        return None if bounds is None else IntervalSet.from_interval(*bounds)

    # Per input port: None for a `drop` input, else the pattern's
    # rewrites and the output it forwards to.
    inputs = [
        None if pattern is None else (
            pattern.src_addr, ports(pattern.src_port),
            pattern.dst_addr, ports(pattern.dst_port),
            pattern.fwd_output,
        )
        for pattern in element.inputs
    ]

    def program(ctx, node, port, flow):
        if port >= len(inputs) or inputs[port] is None:
            return []
        src_addr, src_ports, dst_addr, dst_ports, out_port = inputs[port]
        if src_addr is not None:
            set_const(ctx, flow, F.IP_SRC, src_addr, node)
        if src_ports is not None:
            set_fresh(ctx, flow, F.TP_SRC, node, src_ports)
        if dst_addr is not None:
            set_const(ctx, flow, F.IP_DST, dst_addr, node)
        if dst_ports is not None:
            set_fresh(ctx, flow, F.TP_DST, node, dst_ports)
        return [(out_port, flow)]

    return program


def _const_setter(field: str, attr: str) -> Compiler:
    """Compiler for an element writing one configured constant."""

    def compile_setter(element):
        value = getattr(element, attr)

        def program(ctx, node, port, flow):
            set_const(ctx, flow, field, value, node)
            return [(0, flow)]

        return program

    return compile_setter


register_model("SetIPAddress")(_const_setter(F.IP_DST, "address"))
register_model("SetIPSrc")(_const_setter(F.IP_SRC, "address"))
register_model("SetTPDst")(_const_setter(F.TP_DST, "port_value"))
register_model("SetTPSrc")(_const_setter(F.TP_SRC, "port_value"))
register_model("SetIPTTL")(_const_setter(F.IP_TTL, "ttl"))
register_model("SetIPTOS")(_const_setter(F.IP_TOS, "tos"))


@register_program("DecIPTTL")
def _decipttl(ctx, node, port, flow):
    results = []
    if ctx.graph.successor(node, 1) is not None:
        expiry_range = IntervalSet.from_interval(0, 1)
        ttl_var = flow.packet.var(F.IP_TTL)
        if (
            OPT.enabled
            and ttl_var is not None
            and flow.domain(ttl_var).intersect(expiry_range).is_empty()
        ):
            OPT.prunes += 1
        else:
            expired = flow.fork()
            if expired.constrain_field(F.IP_TTL, expiry_range):
                results.append((1, expired))
    survivor = flow
    if survivor.constrain_field(F.IP_TTL,
                                IntervalSet.from_interval(2, 255)):
        set_fresh(ctx, survivor, F.IP_TTL, node,
                  IntervalSet.from_interval(1, 254))
        results.append((0, survivor))
    return results


# ---------------------------------------------------------------------------
# Stateful elements (state pushed into the flow)
# ---------------------------------------------------------------------------


@register_model("StatefulFirewall")
def _compile_statefulfirewall(element):
    allow_spec = element.allow_spec
    outbound = element.OUTBOUND
    inbound = element.INBOUND

    def program(ctx, node, port, flow):
        if port == outbound:
            results = []
            for fork in flows_matching(flow, allow_spec):
                ensure_field(ctx, fork, "firewall_tag")
                set_const(ctx, fork, "firewall_tag", 1, node)
                results.append((outbound, fork))
            return results
        # Inbound: only flows already tagged (related response traffic).
        ensure_field(ctx, flow, "firewall_tag")
        if not flow.constrain_field("firewall_tag", _ONE):
            return []
        return [(inbound, flow)]

    return program


@register_model("ChangeEnforcer")
def _compile_changeenforcer(element):
    to_module = element.TO_MODULE
    from_module = element.FROM_MODULE

    def program(ctx, node, port, flow):
        ensure_field(ctx, flow, "sandboxed")
        if port == to_module:
            return [(to_module, flow)]
        # Module egress: runtime enforcement guarantees authorization,
        # which the static security checker recognizes through the
        # annotation.
        set_const(ctx, flow, "sandboxed", 1, node)
        return [(from_module, flow)]

    return program


# ---------------------------------------------------------------------------
# Tunnels
# ---------------------------------------------------------------------------


def _encapsulation(outer_fields) -> Compiler:
    """Compiler for an element pushing an outer header of configured
    constants (``outer_fields(element)``: field -> value)."""

    def compile_encap(element):
        outer = outer_fields(element)

        def program(ctx, node, port, flow):
            _encap_with_writes(ctx, node, flow, outer)
            return [(0, flow)]

        return program

    return compile_encap


register_model("IPEncap")(_encapsulation(lambda element: {
    F.IP_PROTO: element.proto,
    F.IP_SRC: element.src,
    F.IP_DST: element.dst,
}))
register_model("UDPIPEncap")(_encapsulation(lambda element: {
    F.IP_PROTO: F.UDP,
    F.IP_SRC: element.src,
    F.TP_SRC: element.sport,
    F.IP_DST: element.dst,
    F.TP_DST: element.dport,
}))


def _encap_with_writes(ctx, node, flow, outer_consts):
    """Push an encapsulation layer, logging each outer-field write."""
    old = dict(flow.packet.vars)
    outer_vars = {}
    for field, value in outer_consts.items():
        fresh = ctx.factory.fresh_for_field(field)
        flow.constrain(fresh, IntervalSet.single(value))
        outer_vars[field] = fresh
    flow.packet.encapsulate(outer_vars)
    for field, variable in outer_vars.items():
        previous = old.get(field)
        flow.record_write(
            WriteRecord(
                at=len(flow.trace) - 1,
                node=node,
                field=field,
                old_uid=previous.uid if previous is not None else None,
                new_uid=variable.uid,
            )
        )


@register_program("IPDecap")
def _ipdecap(ctx, node, port, flow):
    before = dict(flow.packet.vars)
    if flow.packet.decapsulate():
        # Restored inner header: log writes for fields whose binding
        # actually changed.
        for field, variable in flow.packet.vars.items():
            previous = before.get(field)
            if previous is None or previous.uid != variable.uid:
                flow.record_write(
                    WriteRecord(
                        at=len(flow.trace) - 1,
                        node=node,
                        field=field,
                        old_uid=previous.uid if previous else None,
                        new_uid=variable.uid,
                    )
                )
        return [(0, flow)]
    # Decapsulating traffic whose inner header is unknown at analysis
    # time: every header field becomes a fresh free variable.  This is
    # what makes third-party tunnels uncheckable (Table 1: sandbox).
    # The inner packet is still *attributed* to the tunnel sender
    # (anti-spoofing is enforced at tunnel ingress by the operator's
    # filtering), which the `decapped` annotation records.
    for field in F.HEADER_FIELDS:
        set_fresh(ctx, flow, field, node)
    ensure_field(ctx, flow, "decapped")
    set_const(ctx, flow, "decapped", 1, node)
    return [(0, flow)]


# ---------------------------------------------------------------------------
# Application-layer elements
# ---------------------------------------------------------------------------


@register_program("DPI")
def _dpi(ctx, node, port, flow):
    # Payload content is opaque to the engine: both outcomes possible.
    miss = flow.fork()
    return [(0, flow), (1, miss)]


@register_model("TransparentProxy")
def _compile_transparentproxy(element):
    proxy_addr = element.proxy_addr
    proxy_port = element.proxy_port
    http = IntervalSet.single(80)

    def program(ctx, node, port, flow):
        results = []
        redirected = flow.fork()
        if redirected.constrain_field(F.TP_DST, http):
            set_const(ctx, redirected, F.IP_DST, proxy_addr, node)
            set_const(ctx, redirected, F.TP_DST, proxy_port, node)
            results.append((0, redirected))
        passthrough = flow
        if passthrough.constrain_field(F.TP_DST, _NON_HTTP_PORTS):
            results.append((0, passthrough))
        return results

    return program


@register_program("HTTPOptimizer")
def _httpoptimizer(ctx, node, port, flow):
    # The optimizer may rewrite HTTP headers: the payload is redefined,
    # which is exactly what breaks the Section 8 payload invariant.
    set_fresh(ctx, flow, F.PAYLOAD, node)
    return [(0, flow)]


@register_program("WebCache")
def _webcache(ctx, node, port, flow):
    results = [(0, flow)]
    if ctx.graph.successor(node, 1) is not None:
        hit = flow.fork()
        swap_endpoints(hit, node)
        set_fresh(ctx, hit, F.PAYLOAD, node)
        results.append((1, hit))
    return results


def _one_copy_per_address(attr: str) -> Compiler:
    """Compiler for an element sending each flow to every configured
    destination address (``Multicast``) or to one of them
    (``LoadBalancer``): one symbolic branch per address, so the
    security check can vet each constant against the white-list."""

    def compile_fanout(element):
        addresses = list(getattr(element, attr))
        last = len(addresses) - 1

        def program(ctx, node, port, flow):
            results = []
            for index, address in enumerate(addresses):
                fork = flow if index == last else flow.fork()
                set_const(ctx, fork, F.IP_DST, address, node)
                results.append((0, fork))
            return results

        return program

    return compile_fanout


register_model("Multicast")(_one_copy_per_address("destinations"))
register_model("LoadBalancer")(_one_copy_per_address("backends"))


def _responder(proto, ports: bool, new_payload) -> Compiler:
    """Compiler for an element answering each packet to its sender:
    only protocol ``proto`` (None: any) is answered, addresses -- and
    with ``ports`` the transport ports -- are swapped, and the payload
    is redefined when ``new_payload(element)`` holds."""

    def compile_responder(element):
        only = None if proto is None else IntervalSet.single(proto)
        rewrites_payload = new_payload(element)

        def program(ctx, node, port, flow):
            if only is not None and not flow.constrain_field(
                F.IP_PROTO, only
            ):
                return []
            swap_endpoints(flow, node, ports)
            if rewrites_payload:
                set_fresh(ctx, flow, F.PAYLOAD, node)
            return [(0, flow)]

        return program

    return compile_responder


register_model("EchoResponder")(_responder(
    F.UDP, True, lambda element: element.response_payload is not None))
register_model("GeoDNSServer")(_responder(None, True, lambda element: True))
register_model("ICMPPingResponder")(_responder(
    F.ICMP, False, lambda element: False))


@register_model("ReverseProxy")
def _compile_reverseproxy(element):
    client_side = element.CLIENT_SIDE
    origin_side = element.ORIGIN_SIDE
    origin_addr = element.origin_addr
    origin_port = element.origin_port

    def program(ctx, node, port, flow):
        # Either way the proxy sources traffic from the address the
        # client contacted (its own), i.e. the ingress destination --
        # an aliasing bind, not a fresh variable.
        ingress_dst = flow.packet.var(F.IP_DST)
        flow.write_field(F.IP_SRC, ingress_dst, node)
        if port == client_side:
            set_const(ctx, flow, F.IP_DST, origin_addr, node)
            set_const(ctx, flow, F.TP_DST, origin_port, node)
            return [(origin_side, flow)]
        # Responses are relayed to the session's recorded client.  The
        # appliance's session table guarantees that client previously
        # contacted the proxy (implicit authorization); the model
        # records the guarantee in the auth_ok annotation.
        set_fresh(ctx, flow, F.IP_DST, node)
        ensure_field(ctx, flow, "auth_ok")
        set_const(ctx, flow, "auth_ok", 1, node)
        return [(client_side, flow)]

    return program


@register_model("ExplicitProxy")
def _compile_explicitproxy(element):
    proxy_addr = element.proxy_addr

    def program(ctx, node, port, flow):
        # The upstream destination comes from the request payload: it
        # is a run-time value, modelled as a fresh free variable.
        set_const(ctx, flow, F.IP_SRC, proxy_addr, node)
        set_fresh(ctx, flow, F.IP_DST, node)
        return [(0, flow)]

    return program


@register_program("X86VM")
def _x86vm(ctx, node, port, flow):
    # Arbitrary code: anything can come out.  Every field is redefined
    # to a fresh free variable, so no security rule can ever be proven.
    for field in F.HEADER_FIELDS:
        set_fresh(ctx, flow, field, node)
    return [(0, flow)]
