"""The eq. 8 choice priced from counts must equal probing all three plans.

:func:`_combined_costs` prices schemes 1, 2 and 3 from the destination
bits alone, and the combined scheme builds only the winner.  The oracle
builds all three plans switch by switch and takes
``min(plans, key=cost_for)``.  These tests pin that the counts, the
choice (ties included), the cached and cold (``route_plans = None``)
paths, and the error behaviour all agree with it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MulticastError
from repro.network.message import Message
from repro.network.multicast import (
    _BUILDERS,
    Multicaster,
    MulticastResult,
    MulticastScheme,
    _combined_costs,
    _combined_plan,
    multicast_combined,
    multicast_plan_for,
)
from repro.network.topology import OmegaNetwork

SCHEMES = (
    MulticastScheme.UNICAST,
    MulticastScheme.VECTOR,
    MulticastScheme.BROADCAST_TAG,
)
PAYLOADS = (0, 1, 20, 64, 512)


def _built_plans(network, source, dest_set):
    """The three candidate plans, each built by a full fabric walk."""
    return [_BUILDERS[scheme](network, source, dest_set) for scheme in SCHEMES]


def _oracle(network, source, dest_set, payload_bits):
    plans = _built_plans(network, source, dest_set)
    return min(plans, key=lambda plan: plan.cost_for(payload_bits))


def _counters(network):
    links = network.link_utilization()
    switches = network.switch_utilization()
    return (
        bytes(links.bits),
        bytes(links.messages),
        bytes(switches.messages),
        bytes(switches.splits),
    )


@st.composite
def combined_case(draw):
    """``(N, source, dest_set, payload)`` over every network size."""
    n_ports = 1 << draw(st.integers(1, 10))
    ports = st.integers(0, n_ports - 1)
    source = draw(ports)
    kind = draw(st.sampled_from(("single", "full", "subcube", "random")))
    if kind == "single":
        dests = {draw(ports)}
    elif kind == "full":
        dests = set(range(n_ports))
    elif kind == "subcube":
        varying = draw(ports)
        base = draw(ports) & ~varying
        dests = {base}
        for bit in range(n_ports.bit_length() - 1):
            if (varying >> bit) & 1:
                dests |= {dest | (1 << bit) for dest in dests}
    else:
        dests = draw(st.sets(ports, min_size=1, max_size=min(n_ports, 48)))
    return n_ports, source, frozenset(dests), draw(st.sampled_from(PAYLOADS))


common = settings(max_examples=150, deadline=None)


class TestCounts:
    @common
    @given(case=combined_case())
    def test_counts_equal_the_built_plans(self, case):
        n_ports, source, dest_set, _ = case
        network = OmegaNetwork(n_ports)
        expected = []
        for plan in _built_plans(network, source, dest_set):
            expected += [plan.n_loads, plan.tag_total]
        assert _combined_costs(network, source, dest_set) == tuple(expected)

    def test_counts_do_not_depend_on_the_source(self):
        network = OmegaNetwork(32)
        dest_set = frozenset({1, 6, 7, 19, 30})
        counts = {
            _combined_costs(network, source, dest_set)
            for source in range(32)
        }
        assert len(counts) == 1


class TestChoice:
    @common
    @given(case=combined_case())
    def test_choice_is_the_cheapest_built_plan(self, case):
        n_ports, source, dest_set, payload_bits = case
        network = OmegaNetwork(n_ports)
        chosen = _combined_plan(network, source, dest_set, payload_bits)
        best = _oracle(network, source, dest_set, payload_bits)
        assert chosen.scheme is best.scheme
        assert chosen.entries == best.entries
        assert chosen.switch_ops == best.switch_ops

    @pytest.mark.parametrize(
        "n_ports, dests, payload_bits, tied, winner",
        [
            (2, (0, 1), 0, (1, 3), MulticastScheme.UNICAST),
            (4, (0, 3), 4, (1, 2), MulticastScheme.UNICAST),
            (4, (0, 1, 2), 3, (2, 3), MulticastScheme.VECTOR),
            (16, (0, 4, 8, 13), 4, (1, 2, 3), MulticastScheme.UNICAST),
        ],
        ids=["1=3", "1=2", "2=3", "1=2=3"],
    )
    def test_ties_break_in_scheme_order(
        self, n_ports, dests, payload_bits, tied, winner
    ):
        network = OmegaNetwork(n_ports)
        dest_set = frozenset(dests)
        costs = [
            plan.cost_for(payload_bits)
            for plan in _built_plans(network, 0, dest_set)
        ]
        cheapest = min(costs)
        assert tuple(
            index + 1 for index, cost in enumerate(costs) if cost == cheapest
        ) == tied
        chosen = _combined_plan(network, 0, dest_set, payload_bits)
        assert chosen.scheme is winner
        assert chosen.scheme is _oracle(
            network, 0, dest_set, payload_bits
        ).scheme

    def test_only_the_winner_is_built_and_cached(self):
        network = OmegaNetwork(64)
        dest_set = frozenset({0, 32})
        plan = _combined_plan(network, 5, dest_set, 0)
        cache = network.route_plans
        assert set(cache.keys()) == {
            (MulticastScheme.COMBINED, 5, dest_set),
            (plan.scheme, 5, dest_set),
        }
        assert cache.misses == 2


class TestCachedAndCold:
    @common
    @given(case=combined_case())
    def test_cached_and_cold_paths_agree(self, case):
        n_ports, source, dest_set, payload_bits = case
        warm = OmegaNetwork(n_ports)
        cold = OmegaNetwork(n_ports)
        cold.route_plans = None
        warm_caster = Multicaster(warm, MulticastScheme.COMBINED)
        cold_caster = Multicaster(cold, MulticastScheme.COMBINED)
        for _ in range(2):  # a miss, then a hit on the warm side
            warm_result = warm_caster.send_payload(
                source, payload_bits, dest_set
            )
            cold_result = cold_caster.send_payload(
                source, payload_bits, dest_set
            )
            assert warm_result.loads == cold_result.loads
            assert warm_result == cold_result
        assert _counters(warm) == _counters(cold)


class TestErrors:
    @pytest.mark.parametrize(
        "dests",
        [frozenset({3, 99}), frozenset({-1, 2}), frozenset({1, 8, 9})],
        ids=["high", "negative", "two-bad"],
    )
    def test_out_of_range_raises_the_same_error_before_any_traffic(
        self, dests
    ):
        messages = []
        for memoised in (True, False):
            network = OmegaNetwork(8)
            if not memoised:
                network.route_plans = None
            before = _counters(network)
            caster = Multicaster(network, MulticastScheme.COMBINED)
            for _ in range(2):  # the invalid set must never be cached
                with pytest.raises(MulticastError) as send_error:
                    caster.send_payload(0, 20, dests)
                with pytest.raises(MulticastError) as plan_error:
                    multicast_plan_for(
                        network, MulticastScheme.COMBINED, 0, dests, 20
                    )
                assert str(plan_error.value) == str(send_error.value)
                messages.append(str(send_error.value))
            assert _counters(network) == before
            if memoised:
                assert len(network.route_plans) == 0
        assert len(set(messages)) == 1

    @pytest.mark.parametrize("memoised", [True, False])
    def test_empty_set_is_the_empty_combined_result(self, memoised):
        network = OmegaNetwork(8)
        if not memoised:
            network.route_plans = None
        before = _counters(network)
        empty = MulticastResult(
            MulticastScheme.COMBINED, 2, frozenset(), frozenset(), ()
        )
        caster = Multicaster(network, MulticastScheme.COMBINED)
        assert caster.send_payload(2, 20, frozenset()) == empty
        assert multicast_combined(network, Message(2, 20), []) == empty
        assert _counters(network) == before
        if memoised:
            assert len(network.route_plans) == 0
