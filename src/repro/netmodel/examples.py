"""Ready-made topologies used by tests, benchmarks, and examples.

:func:`figure3_network` reproduces the paper's Figure 3: an access
operator with three processing platforms, an HTTP optimizer and web
cache on the client path, and a NAT&firewall protecting the internal
platforms -- Platforms 1 and 2 are not reachable from the outside, so
the Figure 4 push-notification module can only be placed on Platform 3.

:func:`grow_topology` extends a base network with extra routers and
platforms; Figure 10 uses it to measure how static analysis scales with
operator network size.
"""

from __future__ import annotations

from typing import Optional

from repro.netmodel.topology import Network

#: Address plan of the Figure 3 reproduction.
CLIENT_PREFIX = "172.16.0.0/16"
PLATFORM1_POOL = "10.1.0.0/24"
PLATFORM2_POOL = "10.2.0.0/24"
PLATFORM3_POOL = "192.0.2.0/24"
CLIENT_ADDR = "172.16.15.133"


def figure3_network() -> Network:
    """The paper's Figure 3 operator network.

    Topology::

        internet -- r1 -- platform3            (externally reachable)
                     |
                    fw (nat&firewall: denies inbound to the private
                     |                platform pools)
                    r2 -- clients (172.16/16)
                     |\\-- platform1 (private)
                     |--- platform2 (private)
                    httpopt + webcache on the client HTTP path (r2)
    """
    net = Network("figure3")
    net.add_internet()
    net.add_router("r1")
    net.add_router("r2")
    net.add_client_subnet("clients", CLIENT_PREFIX)
    net.add_platform("platform1", PLATFORM1_POOL)
    net.add_platform("platform2", PLATFORM2_POOL)
    net.add_platform("platform3", PLATFORM3_POOL)
    # The NAT&firewall protects the operator's internal platforms:
    # traffic destined to their private pools is dropped at the border.
    net.add_middlebox(
        "fw",
        "IPFilter",
        "deny dst net %s" % PLATFORM1_POOL,
        "deny dst net %s" % PLATFORM2_POOL,
        "allow any",
    )
    net.link("internet", "r1")
    net.link("r1", "platform3")
    net.link("r1", "fw", b_port=1)       # iface 1 = outside
    net.link("fw", "r2", a_port=0)       # iface 0 = inside
    net.link("r2", "clients")
    net.link("r2", "platform1")
    net.link("r2", "platform2")
    net.compute_routes()
    return net


def linear_network(
    n_middleboxes: int, with_platform: bool = True
) -> Network:
    """A chain of routers and middleboxes, Figure 10's growth pattern.

    ``internet - r0 - mb0 - r1 - mb1 - ... - rN - clients`` with an
    externally-reachable platform hanging off ``r0``.
    """
    net = Network("linear-%d" % n_middleboxes)
    net.add_internet()
    previous = "internet"
    for index in range(n_middleboxes + 1):
        router = "r%d" % index
        net.add_router(router)
        net.link(previous, router)
        if index < n_middleboxes:
            box = "mb%d" % index
            net.add_middlebox(box, "Counter")
            net.link(router, box)
            previous = box
        else:
            previous = router
    net.add_client_subnet("clients", CLIENT_PREFIX)
    net.link(previous, "clients")
    if with_platform:
        net.add_platform("platform0", PLATFORM3_POOL)
        net.link("r0", "platform0")
    net.compute_routes()
    return net


def star_network(
    n_platforms: int, pool_base: Optional[int] = None
) -> Network:
    """One border router fanning out to ``n_platforms`` platforms.

    Used by platform-scaling benchmarks that need many candidate
    placement targets.
    """
    net = Network("star-%d" % n_platforms)
    net.add_internet()
    net.add_router("r0")
    net.add_client_subnet("clients", CLIENT_PREFIX)
    net.link("internet", "r0")
    net.link("r0", "clients")
    for index in range(n_platforms):
        name = "platform%d" % index
        net.add_platform(name, "192.0.%d.0/24" % (index + 1))
        net.link("r0", name)
    net.compute_routes()
    return net
