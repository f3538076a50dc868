"""Tests for shared app plumbing (repro.apps.base)."""

from __future__ import annotations

import pytest

from repro.apps.base import (
    OP_DATA,
    OP_FLUSH,
    coflow_arrivals,
    shuffled_destination,
)
from repro.coflow.model import Coflow
from repro.coflow.workload import aggregation_coflow
from repro.errors import ConfigError
from repro.units import GBPS


class TestCoflowArrivals:
    def test_all_elements_materialized(self):
        coflow = aggregation_coflow(1, [0, 1, 2], 100)
        arrivals = list(coflow_arrivals(coflow, 100 * GBPS, 16))
        elements = sum(p.element_count for _, p in arrivals)
        assert elements == 300  # 3 workers x 100

    def test_time_ordered(self):
        coflow = aggregation_coflow(1, [0, 1], 64)
        times = [t for t, _ in coflow_arrivals(coflow, 100 * GBPS, 4)]
        assert times == sorted(times)

    def test_keys_identical_across_workers(self):
        """Every worker contributes the same key set — the aggregation
        precondition."""
        coflow = aggregation_coflow(1, [0, 1], 32)
        per_port: dict[int, list[int]] = {0: [], 1: []}
        for _, packet in coflow_arrivals(coflow, 100 * GBPS, 8):
            per_port[packet.meta.ingress_port].extend(packet.payload.keys())
        assert sorted(per_port[0]) == sorted(per_port[1]) == list(range(32))

    def test_value_fn_applied(self):
        coflow = aggregation_coflow(1, [0, 1], 4)
        arrivals = list(
            coflow_arrivals(coflow, GBPS, 4, value_fn=lambda k: k * 10)
        )
        _, first = arrivals[0]
        assert first.payload.values() == [0, 10, 20, 30]

    def test_flush_markers_appended(self):
        coflow = aggregation_coflow(1, [0, 1], 8)
        arrivals = list(coflow_arrivals(coflow, GBPS, 8, flush=True))
        flushes = [
            p for _, p in arrivals
            if p.header("coflow")["opcode"] == OP_FLUSH
        ]
        assert len(flushes) == 2  # one per input flow

    # The stream is built lazily, but its arguments are checked eagerly:
    # both errors raise at call time, before any iteration.
    def test_empty_coflow_rejected(self):
        with pytest.raises(ConfigError):
            coflow_arrivals(Coflow(1), GBPS, 1)

    def test_invalid_packing_rejected(self):
        coflow = aggregation_coflow(1, [0, 1], 8)
        with pytest.raises(ConfigError):
            coflow_arrivals(coflow, GBPS, 0)


class TestShuffledDestination:
    def test_deterministic(self):
        assert shuffled_destination(42, [4, 5, 6]) == shuffled_destination(
            42, [4, 5, 6]
        )

    def test_spread_over_reducers(self):
        ports = [4, 5, 6]
        destinations = {shuffled_destination(k, ports) for k in range(100)}
        assert destinations == set(ports)

    def test_empty_reducers_rejected(self):
        with pytest.raises(ConfigError):
            shuffled_destination(1, [])
