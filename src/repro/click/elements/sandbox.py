"""The ``ChangeEnforcer`` sandbox element (Section 4.4).

When static analysis cannot prove a processing module safe (tunnels,
x86 VMs), the controller wraps it with ChangeEnforcer instances on every
path between the module and the netfront endpoints.  The element behaves
like a stateful firewall around the module:

* traffic from the outside world *to* the module always passes,
* traffic *from* the module only passes when it is response traffic of
  an established inbound flow (implicit authorization) or its
  destination is on the configured white-list (explicit authorization).

Authorization expires after an idle timeout, which is how the paper
bounds the time-based attack caveat discussed in Section 7.  (Source
addresses are checked *statically* before deployment; the enforcer's
job is the destination rule that static analysis could not decide.)
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.click.element import (
    Element,
    PushResult,
    parse_float_arg,
    register_element,
)
from repro.common.addr import parse_ip
from repro.common.errors import ConfigError


@register_element("ChangeEnforcer")
class ChangeEnforcer(Element):
    """Runtime sandbox for one processing module.

    * input/output 0 -- outside -> module direction,
    * input/output 1 -- module -> outside direction.

    Arguments: ``addr <module address>`` (the address the controller
    assigned to the module), any number of ``whitelist <addr>`` entries,
    and optional ``timeout <seconds>`` (default 300).
    """

    n_inputs = 2
    n_outputs = 2
    stateful = True
    cycle_cost = 1.5

    TO_MODULE = 0
    FROM_MODULE = 1

    def configure(self, args: List[str]) -> None:
        self.module_addr = None
        self.whitelist: Set[int] = set()
        self.timeout = 300.0
        for arg in args:
            keyword, _, rest = arg.strip().partition(" ")
            keyword = keyword.lower()
            rest = rest.strip()
            if keyword == "addr":
                self.module_addr = parse_ip(rest)
            elif keyword == "whitelist":
                self.whitelist.add(parse_ip(rest))
            elif keyword == "timeout":
                self.timeout = parse_float_arg(rest, "timeout")
            else:
                raise ConfigError(
                    "bad ChangeEnforcer argument %r" % (arg,)
                )
        #: inbound sources that implicitly authorized responses.
        self.authorized: Dict[int, float] = {}
        self.dropped_unauthorized = 0

    def _now(self) -> float:
        return self.runtime.now if self.runtime else 0.0

    def push(self, port: int, packet) -> PushResult:
        now = self._now()
        if port == self.TO_MODULE:
            # Outside world talking to the module: always allowed, and
            # implicitly authorizes responses to the sender.
            self.authorized[packet.ip_src] = now
            return [(self.TO_MODULE, packet)]
        destination = packet.ip_dst
        if destination in self.whitelist:
            return [(self.FROM_MODULE, packet)]
        last_seen = self.authorized.get(destination)
        if last_seen is not None and now - last_seen <= self.timeout:
            self.authorized[destination] = now
            return [(self.FROM_MODULE, packet)]
        if last_seen is not None:
            del self.authorized[destination]
        self.dropped_unauthorized += 1
        return []

    def expire_idle(self) -> int:
        """Revoke idle authorizations; returns how many expired."""
        now = self._now()
        stale = [
            a for a, t in self.authorized.items() if now - t > self.timeout
        ]
        for addr in stale:
            del self.authorized[addr]
        return len(stale)
