"""Path selectors: ECMP distribution, flowlet stickiness, determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.fabric import EcmpSelector, FlowletSelector, make_selector
from repro.net.headers import OP_DATA, coflow_header, standard_stack
from repro.net.packet import Packet
from repro.sim.rng import stable_hash64


def _packet(
    coflow_id: int,
    flow_id: int,
    seq: int = 0,
    src_ip: int = 0,
    dst_ip: int = 0,
) -> Packet:
    return Packet(
        standard_stack(src_ip=src_ip, dst_ip=dst_ip)
        + [coflow_header(coflow_id, flow_id, seq=seq, opcode=OP_DATA)]
    )


_FLOW_KEYS = st.tuples(
    st.integers(0, 1000),
    st.integers(0, 255),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)


@st.composite
def _candidate_sets(draw):
    """Two or more port tuples, no two of the same length."""
    lengths = draw(
        st.lists(st.integers(2, 9), min_size=2, max_size=4, unique=True)
    )
    ports = st.integers(0, 63)
    return [
        tuple(draw(st.lists(ports, min_size=n, max_size=n, unique=True)))
        for n in lengths
    ]


class TestEcmp:
    def test_flow_sticks_to_one_path(self):
        selector = EcmpSelector(salt=7)
        picks = {
            selector.choose(_packet(1, 1, seq), (2, 3, 4, 5), 0.0)
            for seq in range(50)
        }
        assert len(picks) == 1

    def test_flows_spread_over_candidates(self):
        selector = EcmpSelector(salt=7)
        counts = {2: 0, 3: 0, 4: 0, 5: 0}
        flows = 400
        for flow in range(flows):
            counts[selector.choose(_packet(1, flow), (2, 3, 4, 5), 0.0)] += 1
        # Fair hashing: every port gets within 2x of the ideal share.
        ideal = flows / 4
        for port, count in counts.items():
            assert ideal / 2 <= count <= ideal * 2, (port, counts)

    def test_salt_decorrelates_switches(self):
        a = EcmpSelector(salt=1)
        b = EcmpSelector(salt=2)
        picks_a = [a.choose(_packet(1, f), (0, 1, 2, 3), 0.0) for f in range(64)]
        picks_b = [b.choose(_packet(1, f), (0, 1, 2, 3), 0.0) for f in range(64)]
        assert picks_a != picks_b  # same flows, independent hashing

    def test_deterministic_across_instances(self):
        picks = [
            EcmpSelector(salt=9).choose(_packet(3, f), (0, 1), 0.0)
            for f in range(32)
        ]
        again = [
            EcmpSelector(salt=9).choose(_packet(3, f), (0, 1), 0.0)
            for f in range(32)
        ]
        assert picks == again

    def test_empty_candidates_rejected(self):
        with pytest.raises(ConfigError, match="empty candidate"):
            EcmpSelector().choose(_packet(1, 1), (), 0.0)


class TestEcmpMemo:
    """The per-key hash memo is invisible: every memoized pick equals the
    unmemoized formula, whichever candidate set the key meets."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.lists(_FLOW_KEYS, min_size=1, max_size=8, unique=True),
        _candidate_sets(),
        st.data(),
    )
    def test_memoized_choose_matches_the_formula(self, salt, keys, sets, data):
        # The first key meets two candidate sets of different lengths,
        # then random (key, set) queries hit and miss the memo.
        queries = [(0, 0), (0, 1), (0, 0)] + data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(keys) - 1),
                    st.integers(0, len(sets) - 1),
                ),
                max_size=30,
            )
        )
        selector = EcmpSelector(salt=salt)
        for key_index, set_index in queries:
            key, candidates = keys[key_index], sets[set_index]
            coflow_id, flow_id, src_ip, dst_ip = key
            packet = _packet(coflow_id, flow_id, src_ip=src_ip, dst_ip=dst_ip)
            expected = candidates[
                stable_hash64(f"{salt}:{key}") % len(candidates)
            ]
            assert selector.choose(packet, candidates, 0.0) == expected
        assert len(selector._hashes) == len({k for k, _ in queries})

    def test_single_candidate_is_not_memoized(self):
        selector = EcmpSelector(salt=5)
        assert selector.choose(_packet(1, 1), (7,), 0.0) == 7
        assert selector._hashes == {}


class TestFlowlet:
    def test_sticky_within_flowlet(self):
        selector = FlowletSelector(gap_s=1e-6, salt=3)
        picks = {
            selector.choose(_packet(1, 1, seq), (0, 1, 2, 3), seq * 1e-8)
            for seq in range(20)
        }
        assert len(picks) == 1
        assert selector.flowlets_started == 1

    def test_idle_gap_starts_a_new_flowlet(self):
        selector = FlowletSelector(gap_s=1e-6, salt=3)
        selector.choose(_packet(1, 1, 0), (0, 1, 2, 3), 0.0)
        selector.choose(_packet(1, 1, 1), (0, 1, 2, 3), 5e-6)  # > gap
        assert selector.flowlets_started == 2

    def test_no_intra_flowlet_reordering(self):
        """Within one flowlet every packet takes the same port, so a
        FIFO path cannot reorder them."""
        selector = FlowletSelector(gap_s=1e-6, salt=11)
        now = 0.0
        picks = []
        for seq in range(60):
            # Bursts of 10 packets, then an idle gap forcing a re-hash.
            if seq % 10 == 0 and seq:
                now += 5e-6
            port = selector.choose(_packet(2, 7, seq), (0, 1, 2, 3), now)
            picks.append((seq, port))
            now += 1e-8
        assert selector.flowlets_started == 6
        # Port only ever changes across a burst boundary.
        for (seq_a, port_a), (seq_b, port_b) in zip(picks, picks[1:]):
            if seq_b % 10 != 0:
                assert port_a == port_b, (seq_a, seq_b)

    def test_gap_must_be_positive(self):
        with pytest.raises(ConfigError, match="gap must be positive"):
            FlowletSelector(gap_s=0.0)


class TestFactory:
    def test_make_selector_modes(self):
        assert isinstance(make_selector("ecmp", "leaf0", 1e-6), EcmpSelector)
        assert isinstance(
            make_selector("flowlet", "leaf0", 1e-6), FlowletSelector
        )
        with pytest.raises(ConfigError, match="unknown routing"):
            make_selector("spray", "leaf0", 1e-6)

    def test_per_switch_salts_differ(self):
        assert (
            make_selector("ecmp", "leaf0", 1e-6).salt
            != make_selector("ecmp", "leaf1", 1e-6).salt
        )
