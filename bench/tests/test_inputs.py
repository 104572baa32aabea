"""The seed is the only source of variation in what the program sees."""

from collections import Counter

from bench import inputs


def test_same_seed_same_requests_other_seed_other_requests():
    first = inputs.requests_digest(inputs.tenants(7, 400))
    assert first == inputs.requests_digest(inputs.tenants(7, 400))
    assert first != inputs.requests_digest(inputs.tenants(8, 400))


def test_same_seed_same_packet_train_other_seed_other_train():
    def digest(seed):
        flows = inputs.trace_flows(seed)[:500]
        return inputs.train_digest(inputs.packet_train(flows))

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


def test_tenant_mix_shares_hold():
    batch = inputs.tenants(3, 4000)
    groups = Counter(
        "pinned" if t.kind in inputs.PINNED_KINDS
        else "reject" if t.kind in inputs.REJECT_KINDS else "open"
        for t in batch
    )
    assert abs(groups["pinned"] / len(batch) - 0.70) < 0.03
    assert abs(groups["reject"] / len(batch) - 0.15) < 0.03
    assert abs(groups["open"] / len(batch) - 0.15) < 0.03
    popular = sum(
        inputs.POPULAR_ADDR in t.request.owned_addresses for t in batch
    )
    assert abs(popular / len(batch) - 0.5) < 0.03
    assert all(
        t.request.role == inputs.ROLE_THIRD_PARTY
        for t in batch if t.kind == "tunnel"
    )
    assert {t.expected for t in batch} == {
        inputs.ALLOW, inputs.SANDBOX, inputs.REJECT
    }


def test_every_kind_of_the_churn_mix_appears():
    kinds = {t.kind for t in inputs.tenants(3, 1000)}
    assert kinds == set(
        inputs.PINNED_KINDS + inputs.REJECT_KINDS + inputs.OPEN_KINDS
    )


def test_flows_are_split_over_all_six_configs_whole():
    names = list(inputs.mixed_configs())
    flows = inputs.trace_flows(5)[:600]
    groups = inputs.split_by_config(inputs.packet_train(flows), names)
    assert len(names) == 6 and all(groups[name] for name in names)
    homes = {}
    for name, packets in groups.items():
        for packet in packets:
            assert homes.setdefault(packet.flow_key(), name) == name
