"""Equal-cost path selection: ECMP and flowlet load balancing.

Both selectors are deterministic functions of the packet and the
selector's own state, seeded per switch (the salt) so different switches
hash independently — the standard defense against ECMP polarization,
and a reproducibility requirement: two runs of the same seeded workload
pick identical paths.

- :class:`EcmpSelector` hashes the flow key once (the hash is memoized
  per key); a flow sticks to one path forever (no reordering, but long
  flows can collide).
- :class:`FlowletSelector` re-hashes when the gap since the flow's last
  packet exceeds ``gap_s`` (Kandula et al.'s flowlet argument: a gap
  longer than the path-delay spread lets the flow switch paths without
  reordering).  Within a flowlet the choice is sticky.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..net.packet import Packet
from ..sim.rng import stable_hash64

FlowKey = tuple[int, int, int, int]


def flow_key(packet: Packet) -> FlowKey:
    """The 4-field key ECMP hashes: coflow, flow, src, dst."""
    coflow_id = flow_id = 0
    if packet.has_header("coflow"):
        header = packet.header("coflow")
        coflow_id = header["coflow_id"]
        flow_id = header["flow_id"]
    src_ip = dst_ip = 0
    if packet.has_header("ipv4"):
        ip = packet.header("ipv4")
        src_ip = ip["src_ip"]
        dst_ip = ip["dst_ip"]
    return (coflow_id, flow_id, src_ip, dst_ip)


class EcmpSelector:
    """Static per-flow hashing over the candidate port set.

    The 64-bit hash is memoized per flow key (it is pure in the salt and
    the key), so after a flow's first packet a pick looks the hash up
    instead of recomputing it.  The memo holds the hash, not the port:
    the candidate set is an argument of each pick and one flow may be
    asked with sets of different sizes, so each pick reduces the hash
    modulo the set it is given.
    """

    def __init__(self, salt: int = 0) -> None:
        self.salt = salt
        self._hashes: dict[FlowKey, int] = {}

    def choose(
        self, packet: Packet, candidates: tuple[int, ...], now_s: float
    ) -> int:
        if not candidates:
            raise ConfigError("ECMP selection over an empty candidate set")
        if len(candidates) == 1:
            return candidates[0]
        key = flow_key(packet)
        digest = self._hashes.get(key)
        if digest is None:
            digest = self._hashes[key] = stable_hash64(f"{self.salt}:{key}")
        return candidates[digest % len(candidates)]


class FlowletSelector:
    """Flowlet switching: re-hash after an idle gap, sticky within one."""

    def __init__(self, gap_s: float, salt: int = 0) -> None:
        if gap_s <= 0:
            raise ConfigError(f"flowlet gap must be positive, got {gap_s}")
        self.gap_s = gap_s
        self.salt = salt
        self.flowlets_started = 0
        self._state: dict[FlowKey, tuple[float, int, int]] = {}

    def choose(
        self, packet: Packet, candidates: tuple[int, ...], now_s: float
    ) -> int:
        if not candidates:
            raise ConfigError("flowlet selection over an empty candidate set")
        key = flow_key(packet)
        state = self._state.get(key)
        if state is None or now_s - state[0] > self.gap_s:
            flowlet = 0 if state is None else state[1] + 1
            index = stable_hash64(
                f"{self.salt}:{key}:{flowlet}"
            ) % len(candidates)
            port = candidates[index]
            self.flowlets_started += 1
        else:
            flowlet, port = state[1], state[2]
        self._state[key] = (now_s, flowlet, port)
        return port


def make_selector(routing: str, switch_name: str, flowlet_gap_s: float):
    """Per-switch selector instance; the salt decorrelates switches."""
    salt = stable_hash64(f"fabric-selector/{switch_name}")
    if routing == "ecmp":
        return EcmpSelector(salt=salt)
    if routing == "flowlet":
        return FlowletSelector(flowlet_gap_s, salt=salt)
    raise ConfigError(
        f"unknown routing mode {routing!r}; choose from ecmp, flowlet"
    )
