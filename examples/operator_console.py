"""An operator's day: sharded controllers, migration, and billing.

Shows the operational side of In-Net beyond a single request:

1. a federation of controller shards answers tenant requests
   (Section 4.3): one tenant always reaches the same shard, and each
   shard owns its own platforms, so two shards never commit to one,
2. a module follows its user to another platform (re-verified there),
3. the monthly invoice: module-hours, traffic, verifications, and the
   sandbox surcharge (Section 2.1: users pay for their enforcer).

Run:  python examples/operator_console.py
"""

from repro.core import ClientRequest, ROLE_CLIENT, ROLE_THIRD_PARTY
from repro.fedctl import FederatedControlPlane
from repro.netmodel.examples import CLIENT_ADDR


def tenant_request(index: int) -> ClientRequest:
    return ClientRequest(
        client_id="tenant-%d" % index,
        role=ROLE_CLIENT,
        config_source="""
            FromNetfront() -> IPFilter(allow udp)
            -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
            -> ToNetfront();
        """,
        owned_addresses=(CLIENT_ADDR,),
        module_name="mod-%d" % index,
    )


def main() -> None:
    print("== 1. A burst of tenant requests through the federation ==\n")
    # A deterministic clock for the ledgers.
    fake_now = [0.0]
    plane = FederatedControlPlane(
        shard_count=4, clock=lambda: fake_now[0],
    )

    decisions = [plane.submit(tenant_request(i)) for i in range(8)]
    # One sandboxed tenant: a third-party tunnel endpoint.
    tunnel = plane.submit(ClientRequest(
        client_id="tunnel-co",
        role=ROLE_THIRD_PARTY,
        config_source="FromNetfront() -> IPDecap() -> ToNetfront();",
        owned_addresses=(CLIENT_ADDR,),
        module_name="tunnel-exit",
    ))
    decisions.append(tunnel)
    accepted = sum(1 for d in decisions if d)
    print("  %d/%d requests accepted on %d shards"
          % (accepted, len(decisions), len(plane.shards)))
    for shard_id, shard in plane.shards.items():
        print("  %s: %d module(s) on %s" % (
            shard_id, shard.deployed_count(),
            ", ".join(p.name for p in shard.home.network.platforms()),
        ))
    # Same tenant, same shard: the repeat sees the first admission.
    again = plane.submit(tenant_request(0))
    print("  tenant-0 repeats its request on %s: %s"
          % (again.shard, again.result.reason))
    print("  tunnel-exit sandboxed: %s" % tunnel.result.sandboxed)

    def controller_of(client_id):
        shard = plane.shards[plane.shard_map.route(client_id)]
        return shard.segment_for(client_id).controller

    print("\n== 2. Processing follows the user ==\n")
    controller = controller_of("tenant-0")
    record = controller.deployed["mod-0"]
    target = next(
        p.name for p in controller.network.platforms()
        if p.name != record.platform
    )
    migration = controller.migrate("mod-0", target)
    print("  mod-0: %s -> %s (new address %s, downtime %.0f ms)"
          % (migration.source, migration.target, migration.new_address,
             migration.downtime_seconds * 1e3))

    print("\n== 3. Billing after a month ==\n")
    fake_now[0] = 30 * 24 * 3600.0
    controller.ledger.record_traffic(
        "mod-0", packets=2_000_000, byte_count=3_000_000_000,
    )
    for client in ("tenant-0", "tunnel-co"):
        ledger = controller_of(client).ledger
        invoice = ledger.invoice(client, now=fake_now[0])
        print("  %s:" % client)
        for label, cost in invoice.lines:
            print("    %-38s %8.2f" % (label, cost))
        print("    %-38s %8.2f" % ("TOTAL", invoice.total))
    print("\nThe sandboxed tenant pays the enforcer surcharge -- "
          "billing the user for the sandboxing, as the paper has it.")


if __name__ == "__main__":
    main()
