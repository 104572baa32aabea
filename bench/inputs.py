"""Seeded inputs: the program only ever sees what this module generates.

Two families, both pure functions of the seed:

* the **tenant mix** -- Table 1 functionalities submitted as
  :class:`~repro.core.ClientRequest` objects, with the decision the
  paper's Table 1 prescribes for each (kind, role), and
* the **packet trains** -- the MAWI-calibrated trace of
  :mod:`repro.sim.traces` expanded into packets, plus the Click
  configurations they are pushed through.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.click import IP_DST, IP_PROTO, IP_SRC, TCP, TP_DST, TP_SRC, UDP
from repro.click import Packet
from repro.common.addr import parse_ip
from repro.core import ROLE_CLIENT, ROLE_THIRD_PARTY, ClientRequest
from repro.core.catalog import catalog_source
from repro.sim import TraceConfig, generate_trace, trace_packets

# -- tenant mix -------------------------------------------------------------

#: The one popular endpoint half the tenants share (identical config
#: fingerprints, so the security-verdict cache and gossip can hit).
POPULAR_ADDR = "172.16.15.133"
POPULAR_PORT = 1500

#: The paper's Figure 4 push-notification batcher.
BATCHER = """
    FromNetfront() ->
    IPFilter(allow udp port %d) ->
    IPRewriter(pattern - - %s - 0 0)
    -> TimedUnqueue(120, 100)
    -> dst :: ToNetfront();
"""

#: Kinds whose egress is pinned to the tenant's own address by a
#: rewrite: the symbolic flow leaving them cannot fan out.
PINNED_KINDS = (
    "batcher", "firewall", "flow_meter", "rate_limiter",
    "reverse_proxy", "multicast",
)
#: Kinds Table 1 rejects for every tenant role.
REJECT_KINDS = ("nat", "ip_router", "dpi")
#: Kinds whose egress destination is unconstrained (sandboxed, or
#: allowed on trust): two of them resident on one shard trip the
#: verifier's hop limit (see README, "The excluded input").
OPEN_KINDS = ("tunnel", "x86_vm", "dns_server")

#: (share, kinds) -- the admit_churn mix.
CHURN_MIX = ((0.70, PINNED_KINDS), (0.15, REJECT_KINDS), (0.15, OPEN_KINDS))
#: Kinds a probe packet sent from the internet is delivered through to
#: the client subnet (reverse_proxy forwards to its origin instead).
DELIVERING_KINDS = (
    "batcher", "firewall", "flow_meter", "rate_limiter", "multicast",
)
FIRST_PACKET_MIX = ((1.0, DELIVERING_KINDS),)

#: Kinds whose configuration text carries the tenant's address, so a
#: non-popular tenant's fingerprint is new to every verdict cache.
_PARAMETRIC_KINDS = frozenset(PINNED_KINDS) | {"nat", "x86_vm"}

ALLOW, SANDBOX, REJECT = "allow", "sandbox", "reject"
_DNS_REPLICAS = ("198.51.100.1", "198.51.100.2", "198.51.100.3")


def expected_decision(kind: str, role: str) -> str:
    """What Table 1 of the paper prescribes for a tenant (kind, role)."""
    if kind in REJECT_KINDS:
        return REJECT
    if kind == "x86_vm" or (kind == "tunnel" and role == ROLE_THIRD_PARTY):
        return SANDBOX
    return ALLOW


def decision_of(result) -> str:
    """The three-way decision a :class:`DeploymentResult` carries."""
    if not result.accepted:
        return REJECT
    return SANDBOX if result.sandboxed else ALLOW


@dataclass(frozen=True)
class Tenant:
    """One generated request plus what the oracles need to judge it."""

    index: int
    kind: str
    request: ClientRequest
    expected: str
    #: Configuration text no other tenant shares (cold security analysis).
    unique: bool
    #: Probe packet recipe: (protocol, destination port, addresses the
    #: module rewrites the probe to).
    probe: Tuple[int, int, Tuple[str, ...]]

    @property
    def open_egress(self) -> bool:
        return self.kind in OPEN_KINDS


def _make_tenant(rng: random.Random, index: int, mix) -> Tenant:
    draw = rng.random()
    for share, kinds in mix:
        if draw < share:
            break
        draw -= share
    kind = rng.choice(kinds)
    shared = rng.random() < 0.5
    if shared:
        addr, port = POPULAR_ADDR, POPULAR_PORT
    else:
        addr = "172.16.%d.%d" % (rng.randrange(16, 250), rng.randrange(1, 250))
        port = rng.randrange(1024, 65000)
    role = (
        ROLE_THIRD_PARTY if kind == "tunnel"
        else rng.choice((ROLE_CLIENT, ROLE_THIRD_PARTY))
    )
    name = "m%06d" % index
    owned: Tuple[str, ...] = (addr,)
    requirements = ""
    proto, deliver = TCP, (addr,)
    if kind == "batcher":
        source = BATCHER % (port, addr)
        requirements = (
            "reach from internet udp -> %s:dst:0 -> client dst port %d"
            % (name, port)
        )
        proto = UDP
    elif kind in ("firewall", "flow_meter", "rate_limiter"):
        source = catalog_source(kind, client_addr=addr)
        requirements = "reach from internet tcp -> %s:out:0 -> client" % name
    elif kind == "multicast":
        head, last = addr.rsplit(".", 1)
        second = "%s.%d" % (head, int(last) + 1)
        owned = deliver = (addr, second)
        source = catalog_source(kind, destinations=owned)
        requirements = "reach from internet udp -> %s:out:0 -> client" % name
        proto = UDP
    elif kind == "reverse_proxy":
        origin = (
            _DNS_REPLICAS[0] if shared
            else "198.51.100.%d" % rng.randrange(4, 250)
        )
        owned = (addr, origin)
        source = catalog_source(kind, origin_addr=origin)
        requirements = (
            "reach from internet tcp dst port 80 -> %s:to_origin:0"
            " -> internet" % name
        )
    elif kind == "x86_vm":
        source = catalog_source(
            kind, image="generic" if shared else "image%d" % index
        )
    else:
        # nat takes the tenant address; the rest are parameter-free.
        source = catalog_source(kind, module_addr=addr)
        if kind == "dns_server":
            owned = (addr,) + _DNS_REPLICAS
    request = ClientRequest(
        client_id="t%06d" % index,
        role=role,
        config_source=source,
        requirements=requirements,
        owned_addresses=owned,
        module_name=name,
    )
    return Tenant(
        index=index, kind=kind, request=request,
        expected=expected_decision(kind, role),
        unique=not shared and kind in _PARAMETRIC_KINDS,
        probe=(proto, port, deliver),
    )


def tenant_stream(seed: int, mix=CHURN_MIX) -> Iterator[Tenant]:
    """The endless seeded tenant sequence for one run."""
    rng = random.Random(seed)
    for index in itertools.count():
        yield _make_tenant(rng, index, mix)


def tenants(seed: int, count: int, mix=CHURN_MIX) -> List[Tenant]:
    return list(itertools.islice(tenant_stream(seed, mix), count))


def requests_digest(batch: Sequence[Tenant]) -> str:
    """Digest of everything the control plane is shown."""
    digest = hashlib.sha256()
    for tenant in batch:
        request = tenant.request
        digest.update("\x1f".join((
            request.client_id, request.role, request.config_source,
            request.requirements, ",".join(request.owned_addresses),
            request.module_name,
        )).encode())
        digest.update(b"\x1e")
    return digest.hexdigest()


def probe_packet(tenant: Tenant, module_address: str) -> Packet:
    """The first packet a tenant's module sees, sent from the internet."""
    proto, port, _deliver = tenant.probe
    return Packet(
        ip_src=parse_ip("203.0.113.9"),
        ip_dst=parse_ip(module_address),
        ip_proto=proto,
        tp_src=30000 + tenant.index % 30000,
        tp_dst=port,
    )


# -- packet trains ----------------------------------------------------------

#: One minute of the Section 6 backbone (~14k flows per seed).
TRACE = TraceConfig(window_s=60.0)
PACKETS_PER_FLOW = 8
BATCH = 256

#: Five-rule service ACL + NAT: every element has a column kernel.
FIREWALL_ACL = """
    src :: FromNetfront();
    out :: ToNetfront();
    src -> CheckIPHeader()
        -> IPFilter(allow icmp,
                    allow udp dst port 53,
                    allow tcp dst port 22,
                    allow tcp dst port 443,
                    allow tcp dst port 80)
        -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
        -> out;
"""

#: A classifier fanning out to three arms: the split breaks the column
#: plan, and Tee has no kernel at all.
BRANCHING = """
    src :: FromNetfront();
    web :: ToNetfront();
    tls :: ToNetfront();
    mirror :: ToNetfront();
    rest :: ToNetfront();
    cl :: IPClassifier(tcp dst port 80, tcp dst port 443, -);
    t :: Tee(2);
    src -> cl;
    cl[0] -> Paint(1) -> SetIPTOS(16) -> Counter() -> web;
    cl[1] -> DecIPTTL() -> t;
    t[0] -> tls;
    t[1] -> Counter() -> mirror;
    cl[2] -> Counter() -> rest;
"""

#: A buffer in the path: packets leave from the queue listener, not
#: from the batch that carried them in.
QUEUE_CHAIN = """
    src :: FromNetfront();
    out :: ToNetfront();
    src -> Queue(1024) -> Unqueue() -> FlowMeter() -> out;
"""


def mixed_configs() -> Dict[str, str]:
    """The six tenant configurations of ``request_to_packets``."""
    second = "172.16.15.134"
    return {
        "firewall": catalog_source("firewall", client_addr=POPULAR_ADDR),
        "flow_meter": catalog_source("flow_meter", client_addr=POPULAR_ADDR),
        "rate_limiter": catalog_source(
            "rate_limiter", client_addr=POPULAR_ADDR
        ),
        "multicast": catalog_source(
            "multicast", destinations=(POPULAR_ADDR, second)
        ),
        "branching": BRANCHING,
        "queue_chain": QUEUE_CHAIN,
    }


#: Configurations of :func:`mixed_configs` built only from kernel'd
#: elements and no split: the columnar tier takes whole batches.
ALL_KERNEL_CONFIGS = ("firewall", "flow_meter")


def trace_flows(seed: int):
    return generate_trace(TRACE, seed)


def packet_train(flows) -> List[Packet]:
    """A fresh train (elements rewrite packets in place, so every pass
    over the trace needs its own)."""
    return trace_packets(flows, PACKETS_PER_FLOW)


def train_digest(packets: Sequence[Packet]) -> str:
    """Digest of everything the dataplane is shown."""
    digest = hashlib.sha256()
    pack = struct.Struct("<IIBHHH").pack
    for packet in packets:
        digest.update(pack(
            packet[IP_SRC], packet[IP_DST], packet[IP_PROTO],
            packet[TP_SRC], packet[TP_DST], packet.length,
        ))
    return digest.hexdigest()


def split_by_config(
    packets: Sequence[Packet], names: Sequence[str]
) -> Dict[str, List[Packet]]:
    """Steer each flow to one tenant configuration by flow hash."""
    groups: Dict[str, List[Packet]] = {name: [] for name in names}
    lists = [groups[name] for name in names]
    count = len(lists)
    for packet in packets:
        lists[packet.flow_hash() % count].append(packet)
    return groups


def batches(packets: Sequence[Packet], size: int = BATCH) -> List[list]:
    return [packets[i:i + size] for i in range(0, len(packets), size)]


def egress_multiset(records) -> Counter:
    """Order-free fingerprint of egress records (element + headers +
    annotations), for batch-vs-scalar and sharded-vs-single oracles."""
    return Counter(
        (
            record.element,
            tuple(sorted(record.packet.fields.items())),
            repr(sorted(record.packet.annotations.items())),
        )
        for record in records
    )
