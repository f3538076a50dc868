"""Stateful-primitive library: EFSM, replicated objects, SCR.

The paper's core claim (§3) is that stateful in-network computing wants
a different switch architecture: per-flow state machines, replicated
objects with eventual merge, and state-compute replication all fight
RMT's feed-forward, scalar-match discipline but map naturally onto the
disaggregated array-match path.  This package provides those three
primitives target-neutrally, four workloads that exercise them
(:data:`~repro.stateful.workloads.STATEFUL_WORKLOADS`), and a runner
that emits a diffable run ledger — see ``docs/PRIMITIVES.md``.
"""

from .apps import (
    OP_ACK,
    OP_FIN,
    OP_SYN,
    SYN_FLOOD_EFSM,
    HeavyHitterApp,
    KeyCacheApp,
    SynFloodApp,
    TokenBucketApp,
)
from .efsm import Action, EfsmEngine, EfsmSpec, Guard, Transition, efsm_program
from .replicated import ReplicatedObject
from .runner import StatefulRun, compile_divergence, run_stateful
from .scr import ReplicatedCounter, ScrTokenBucket
from .workloads import (
    FABRIC_STATEFUL_WORKLOADS,
    STATEFUL_WORKLOADS,
    build_single,
    build_stateful_workload,
)

__all__ = [
    "Action",
    "EfsmEngine",
    "EfsmSpec",
    "FABRIC_STATEFUL_WORKLOADS",
    "Guard",
    "HeavyHitterApp",
    "KeyCacheApp",
    "OP_ACK",
    "OP_FIN",
    "OP_SYN",
    "ReplicatedCounter",
    "ReplicatedObject",
    "SYN_FLOOD_EFSM",
    "STATEFUL_WORKLOADS",
    "ScrTokenBucket",
    "StatefulRun",
    "SynFloodApp",
    "TokenBucketApp",
    "Transition",
    "build_single",
    "build_stateful_workload",
    "compile_divergence",
    "run_stateful",
    "efsm_program",
]
