"""``multicast_plan_for`` must predict ``send_payload`` exactly.

The stable-state fast path memoises one :class:`RoutePlan` per
``(owner, present-vector)`` pair and replays it with
``apply_plan_traffic_scaled``; these tests pin the contract that makes
that memo sound: for every scheme and destination set, the plan's cost
and per-level traffic are bit-identical to what a cold (memoisation
disabled) :class:`Multicaster` commits -- including under present-vector
churn, members joining and leaving one at a time the way a
distributed-write present set evolves.
"""

import random

import pytest

from repro.errors import MulticastError
from repro.network.multicast import (
    Multicaster,
    MulticastScheme,
    multicast_plan_for,
)
from repro.network.topology import OmegaNetwork

SCHEMES = (
    MulticastScheme.UNICAST,
    MulticastScheme.VECTOR,
    MulticastScheme.BROADCAST_TAG,
    MulticastScheme.COMBINED,
)


def _churned_dest_sets(n_nodes, source, rng, n_steps=25):
    """Destination sets evolving one membership change at a time."""
    candidates = [node for node in range(n_nodes) if node != source]
    current = set(rng.sample(candidates, 2))
    sets = [frozenset(current)]
    for _ in range(n_steps):
        if len(current) > 1 and rng.random() < 0.4:
            current.discard(rng.choice(sorted(current)))
        else:
            current.add(rng.choice(candidates))
        sets.append(frozenset(current))
    return sets


@pytest.mark.parametrize("n_nodes", [8, 64, 256])
@pytest.mark.parametrize(
    "scheme", SCHEMES, ids=lambda scheme: scheme.name.lower()
)
def test_plan_matches_cold_multicaster_under_churn(n_nodes, scheme):
    rng = random.Random(n_nodes * 10 + scheme.value)
    source = rng.randrange(n_nodes)
    # One memoising network reused across the whole churn sequence, the
    # way the protocol's network sees repeated lookups; every cold
    # reference rebuilds from scratch.
    network = OmegaNetwork(n_nodes)
    for payload_bits in (0, 20):
        for dest_set in _churned_dest_sets(n_nodes, source, rng):
            plan = multicast_plan_for(
                network, scheme, source, dest_set, payload_bits
            )
            cold_network = OmegaNetwork(n_nodes)
            cold_network.route_plans = None
            cold = Multicaster(cold_network, scheme)
            result = cold.send_payload(source, payload_bits, dest_set)
            assert plan.cost_for(payload_bits) == result.cost
            applied = OmegaNetwork(n_nodes)
            applied.apply_plan_traffic(plan, payload_bits)
            assert applied.total_bits == cold_network.total_bits
            assert applied.bits_by_level() == cold_network.bits_by_level()


def test_scaled_replay_matches_repeated_sends():
    n_nodes = 64
    source = 5
    rng = random.Random(7)
    dest_set = frozenset(
        rng.sample([node for node in range(n_nodes) if node != source], 9)
    )
    network = OmegaNetwork(n_nodes)
    plan = multicast_plan_for(
        network, MulticastScheme.VECTOR, source, dest_set, 20
    )
    scaled = OmegaNetwork(n_nodes)
    scaled.apply_plan_traffic_scaled(plan, 20, 13)
    repeated = OmegaNetwork(n_nodes)
    repeated.route_plans = None
    caster = Multicaster(repeated, MulticastScheme.VECTOR)
    for _ in range(13):
        caster.send_payload(source, 20, dest_set)
    assert scaled.total_bits == repeated.total_bits
    assert scaled.bits_by_level() == repeated.bits_by_level()


def test_combined_plan_is_the_object_send_payload_commits():
    # Two destinations across the top address bit: scheme 1 is cheapest
    # for small payloads and scheme 3 (whose subcube is exactly the pair)
    # for large ones, so the eq. 8 winner changes with the payload.
    network = OmegaNetwork(64)
    dest_set = frozenset({0, 32})
    committed = []
    apply_plan_traffic = network.apply_plan_traffic

    def record(plan, payload_bits):
        committed.append(plan)
        apply_plan_traffic(plan, payload_bits)

    network.apply_plan_traffic = record
    caster = Multicaster(network, MulticastScheme.COMBINED)
    winners = []
    for payload_bits in (0, 20, 64, 512, 0):
        plan = multicast_plan_for(
            network, MulticastScheme.COMBINED, 5, dest_set, payload_bits
        )
        caster.send_payload(5, payload_bits, dest_set)
        assert committed[-1] is plan
        winners.append(plan.scheme)
    assert winners == [
        MulticastScheme.UNICAST,
        MulticastScheme.UNICAST,
        MulticastScheme.BROADCAST_TAG,
        MulticastScheme.BROADCAST_TAG,
        MulticastScheme.UNICAST,
    ]


def test_single_destination_is_unicast_under_every_scheme():
    network = OmegaNetwork(8)
    for scheme in SCHEMES:
        plan = multicast_plan_for(network, scheme, 0, frozenset([3]), 20)
        cold_network = OmegaNetwork(8)
        cold_network.route_plans = None
        result = Multicaster(cold_network, scheme).send_payload(
            0, 20, frozenset([3])
        )
        assert plan.cost_for(20) == result.cost


def test_empty_destination_set_is_rejected():
    network = OmegaNetwork(8)
    with pytest.raises(MulticastError):
        multicast_plan_for(
            network, MulticastScheme.VECTOR, 0, frozenset(), 20
        )
