"""In-network ML parameter aggregation (Table 1, row 1).

"Every server sends the switch a different flow containing a vector of
machine learning model weights.  The parameter server running on the
switch coordinates an aggregation operation among all participating
servers over the weights, sending out the results in a very different
output flow scheme than the input coflow."

The app keeps, per state partition, an accumulator register and a
contribution counter per weight slot.  When a slot has heard from every
worker it is *complete*; completed slots are batched
``elements_per_packet`` at a time into result packets multicast to all
workers.  Because each partition knows exactly which slots the placement
policy assigns to it, the final short batch is emitted the moment the
partition's last slot completes — no end-of-flow markers needed.

On the ADCP this runs in the central area with array-wide register
updates.  On RMT the same code runs, but the switch model forces scalar
packets (one weight per packet) and hosts the state via egress pinning or
recirculation — the comparison benchmarks price both.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..arch.app import PipelineContext, SwitchApp
from ..arch.decision import Decision
from ..coflow.model import Coflow
from ..coflow.placement import HashPlacement
from ..errors import ConfigError
from ..net.packet import Packet
from ..net.phv import PHV
from ..net.traffic import make_coflow_packet
from .base import OP_DATA, OP_RESULT, coflow_arrivals


class ParameterServerApp(SwitchApp):
    """Switch-resident parameter server.

    Attributes:
        worker_ports: Ports of the participating workers; results are
            multicast to all of them (the all-reduce pattern).
        vector_elements: Length of the weight vector being aggregated.
        elements_per_packet: Packing factor of both input and result
            packets (1 on scalar targets).
    """

    def __init__(
        self,
        worker_ports: list[int],
        vector_elements: int,
        elements_per_packet: int = 1,
        coflow_id: int = 1,
    ) -> None:
        super().__init__("paramserver", elements_per_packet)
        if len(worker_ports) < 2:
            raise ConfigError("aggregation needs at least two workers")
        if len(set(worker_ports)) != len(worker_ports):
            raise ConfigError("worker ports must be distinct")
        if vector_elements < 1:
            raise ConfigError("vector must have at least one element")
        self.worker_ports = list(worker_ports)
        self.vector_elements = vector_elements
        self.coflow_id = coflow_id
        self._pending: dict[int, list[tuple[int, int]]] = {}
        self._completed: dict[int, int] = {}
        self._expected: dict[int, int] = {}
        self.results_emitted = 0

    # --- placement ---------------------------------------------------------------

    def uses_central_state(self) -> bool:
        return True

    def bind_placement(self, partitions: int) -> None:
        """Hash-place weight *chunks* and precompute per-partition counts.

        Placement granularity is one packet's worth of contiguous slots:
        TM1 routes a packet by its first element's key, so every slot in a
        chunk lives on the chunk's partition.  Workers pack identically
        (same base, same packing factor), so all contributions to a slot
        meet on one partition.
        """
        self.placement_policy = HashPlacement(partitions)
        self._expected = {p: 0 for p in range(partitions)}
        step = self.elements_per_packet
        for chunk_start in range(0, self.vector_elements, step):
            chunk_size = min(step, self.vector_elements - chunk_start)
            partition = self.placement_policy.place(chunk_start)
            self._expected[partition] += chunk_size
        self._pending = {p: [] for p in range(partitions)}
        self._completed = {p: 0 for p in range(partitions)}

    def placement_key(self, packet: Packet) -> int:
        if packet.payload is None or len(packet.payload) == 0:
            raise ConfigError("parameter packet carries no elements")
        return packet.payload.key_column[0]

    # --- hooks -----------------------------------------------------------------------

    def central(self, ctx: PipelineContext, packet: Packet, phv: PHV) -> Decision:
        """Fold the packet's weights into the accumulators; emit completions."""
        if packet.header("coflow")["opcode"] != OP_DATA:
            return Decision.consume()
        partition = ctx.pipeline_index
        acc = ctx.register("agg_acc", self.vector_elements, width_bits=64)
        count = ctx.register("agg_cnt", self.vector_elements, width_bits=32)
        num_workers = len(self.worker_ports)
        payload = packet.payload
        assert payload is not None
        keys = payload.key_column
        totals = acc.add_many(keys, payload.value_column)
        seen = count.add_many(keys, [1] * len(keys))
        pending = self._pending[partition]
        for key, total, contributions in zip(keys, totals, seen):
            if contributions == num_workers:
                pending.append((key, total))
                self._completed[partition] += 1

        emissions = self._drain_emissions(partition)
        return Decision.consume(*emissions)

    def _drain_emissions(self, partition: int) -> list[Packet]:
        pending = self._pending[partition]
        done = self._completed[partition] >= self._expected.get(partition, 0)
        emissions: list[Packet] = []
        while len(pending) >= self.elements_per_packet or (done and pending):
            batch = pending[: self.elements_per_packet]
            del pending[: self.elements_per_packet]
            emissions.append(self._result_packet(batch))
        return emissions

    def _result_packet(self, batch: list[tuple[int, int]]) -> Packet:
        packet = make_coflow_packet(
            self.coflow_id,
            flow_id=0xFFFF,
            seq=self.results_emitted,
            elements=batch,
            opcode=OP_RESULT,
        )
        packet.meta.egress_ports = tuple(self.worker_ports)
        self.results_emitted += 1
        return packet

    # --- workload ----------------------------------------------------------------------

    def coflow(self) -> Coflow:
        """The aggregation coflow this app instance serves."""
        from ..coflow.workload import aggregation_coflow

        return aggregation_coflow(
            self.coflow_id, self.worker_ports, self.vector_elements
        )

    def workload(
        self,
        port_speed_bps: float,
        value_fn: Callable[[int], int] | None = None,
    ) -> Iterator[tuple[float, Packet]]:
        """Timed input packets: every worker streams its vector at line rate."""
        return coflow_arrivals(
            self.coflow(),
            port_speed_bps,
            self.elements_per_packet,
            value_fn=value_fn or (lambda key: key + 1),
        )

    # --- verification -------------------------------------------------------------------

    def expected_result(
        self, value_fn: Callable[[int], int] | None = None
    ) -> dict[int, int]:
        """Ground truth: key -> aggregated value across all workers."""
        fn = value_fn or (lambda key: key + 1)
        workers = len(self.worker_ports)
        return {key: fn(key) * workers for key in range(self.vector_elements)}

    @staticmethod
    def collect_results(delivered: list[Packet]) -> dict[int, int]:
        """Extract (key -> aggregate) from delivered result packets.

        Results are multicast, so duplicates across ports are collapsed;
        conflicting duplicates raise, as that indicates a state bug.
        """
        results: dict[int, int] = {}
        for packet in delivered:
            if packet.header("coflow")["opcode"] != OP_RESULT:
                continue
            payload = packet.payload
            assert payload is not None
            for key, value in zip(payload.key_column, payload.value_column):
                if key in results and results[key] != value:
                    raise ConfigError(
                        f"conflicting aggregates for key {key}: "
                        f"{results[key]} vs {value}"
                    )
                results[key] = value
        return results
