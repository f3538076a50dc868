"""The switch application programming interface.

An in-network application implements :class:`SwitchApp` once and runs on
either target.  Hooks receive a :class:`PipelineContext`, which exposes
*only* the stateful resources physically co-resident with the pipeline
running the hook — registers allocated there, its tables, and whether its
match-action units can consume arrays.  The two architectures differ in
which hooks fire and what state each context can reach:

============  ==========================  =================================
Hook          RMT                         ADCP
============  ==========================  =================================
``ingress``   runs; state per ingress     runs; state per ingress pipeline
              pipeline (port-determined)  (port-determined, demux lanes)
``central``   never fires (no such        runs; state partitioned across
              region exists)              central pipelines by the app's
                                          placement key (section 3.1)
``egress``    runs; state per egress      runs; state per egress pipeline
              pipeline
============  ==========================  =================================

Applications that need cross-flow state on RMT must place it in an egress
pipeline (pinning outputs to that pipeline's ports) or recirculate — the
exact dilemma of Figure 2.
"""

from __future__ import annotations

from typing import Protocol

from ..errors import ConfigError
from ..net.packet import Packet
from ..net.phv import PHV
from ..tables.mat import MatchTable
from ..tables.registers import RegisterArray
from .decision import Decision


class PipelineContext(Protocol):
    """What a hook may touch: the executing pipeline's local resources."""

    @property
    def pipeline_index(self) -> int:
        """Index of the pipeline running the hook."""
        ...

    @property
    def region(self) -> str:
        """``"ingress"``, ``"central"``, or ``"egress"``."""
        ...

    @property
    def array_width(self) -> int:
        """Max parallel lookups per table here (1 = scalar)."""
        ...

    @property
    def attached_ports(self) -> tuple[int, ...]:
        """Ports physically reachable from this pipeline without another
        switching step (empty for central pipelines: TM2 reaches all)."""
        ...

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        ...

    def register(self, name: str, size: int, width_bits: int = 32) -> RegisterArray:
        """Get or lazily allocate a register array local to this pipeline."""
        ...

    def table(self, name: str) -> MatchTable:
        """Look up a table installed on this pipeline."""
        ...


class SwitchApp:
    """Base class for in-network applications.

    Subclasses override the hooks they need; unimplemented hooks forward
    the packet unchanged.  ``name`` labels stats; ``elements_per_packet``
    declares the packing factor the app's packet format uses (the
    architectural comparisons sweep it).
    """

    def __init__(self, name: str, elements_per_packet: int = 1) -> None:
        if elements_per_packet < 1:
            raise ConfigError(
                f"app {name!r}: elements per packet must be >= 1"
            )
        self.name = name
        self.elements_per_packet = elements_per_packet
        self.placement_policy = None
        """Optional :class:`~repro.coflow.placement.PlacementPolicy`.

        Section 3.1: "the application needs to define the criteria by
        which the first TM will forward packets across the pipelines."
        The switch calls :meth:`bind_placement` with its partition count
        at construction; apps that care override it to install a policy
        (hash by default) and may precompute per-partition expectations.
        """

    def bind_placement(self, partitions: int) -> None:
        """Called by the switch so the app can size its placement policy."""
        from ..coflow.placement import HashPlacement

        self.placement_policy = HashPlacement(partitions)

    def partition_of_key(self, key: int) -> int:
        """Partition (central pipeline / state pipeline) hosting a key."""
        if self.placement_policy is None:
            raise ConfigError(
                f"app {self.name!r} has no placement policy bound yet"
            )
        return self.placement_policy.place(key)

    # --- hooks ------------------------------------------------------------------

    def ingress(self, ctx: PipelineContext, packet: Packet, phv: PHV) -> Decision:
        """Runs in the ingress pipeline the packet's RX port maps to."""
        return Decision.forward()

    def central(self, ctx: PipelineContext, packet: Packet, phv: PHV) -> Decision:
        """Runs in the central pipeline chosen by :meth:`placement_key`.

        Never called on RMT — there is no central region to run in.
        """
        return Decision.forward()

    def egress(self, ctx: PipelineContext, packet: Packet, phv: PHV) -> Decision:
        """Runs in the egress pipeline of the packet's egress port."""
        return Decision.forward()

    # --- placement -----------------------------------------------------------------

    @staticmethod
    def placement_key(packet: Packet) -> int:
        """Key TM1 hashes/ranges to pick a central pipeline (section 3.1).

        Defaults to the first payload element's key, falling back to the
        coflow id, so simple apps need not override it.  It reads only
        the packet, so an ADCP switch without an app keys TM1 with it
        too; an override may be a plain method.
        """
        if packet.payload is not None and len(packet.payload) > 0:
            return packet.payload.key_column[0]
        if packet.has_header("coflow"):
            return packet.header("coflow")["coflow_id"]
        return 0

    def uses_central_state(self) -> bool:
        """Whether the app keeps cross-flow state (drives RMT placement).

        Apps that return True must, on RMT, either pin state to one egress
        pipeline or recirculate; the RMT switch model consults this to
        decide where to run the app's state hook.
        """
        return False

    def claims(self, packet: Packet) -> bool:
        """Whether this packet is input to the app's stateful hook.

        Single-switch apps own every packet they see, so the default is
        True.  Fabric deployments override this: a switch hosting one
        coflow's state also forwards traffic of coflows placed elsewhere,
        and the RMT steering / recirculation machinery must leave those
        transit packets on the plain forwarding path.
        """
        return True
