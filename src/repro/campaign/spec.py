"""Declarative campaign specs: parameter axes expanded into cells.

A *campaign* is a set of independent simulation runs ("cells") produced
by expanding parameter axes over a cell *target* (a registered function
that turns one parameter assignment into a run ledger).  Specs are
declarative — a TOML or JSON document, or one of the shipped builtins —
and fully validated up front, so a bad axis fails before any cell runs.

Three expansion modes:

- ``grid`` — the cartesian product of every axis (Tables 2/3 style
  design-space sweeps).
- ``zip`` — axes advance in lockstep (all must have equal length).
- ``list`` — explicit per-cell parameter tables, no expansion.

Every cell gets a *canonical config digest*: the SHA-256 of its target
plus sorted-key parameter JSON.  The digest is the cache key (together
with the source digest, see :mod:`repro.campaign.cache`), the journal
identity for resume, and the basis of the cell's derived seed — so two
campaigns that share a cell share its cached result, and reordering axes
in the spec file changes nothing.

Seeds follow the State-Compute-Replication discipline: a cell that does
not sweep ``seed`` explicitly gets one derived deterministically from
``stable_hash64`` over the campaign base seed and the cell digest, so
parallel execution (any worker count, any completion order) is
bit-identical to serial execution.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigError
from ..sim.rng import stable_hash64

#: Spec document format identifier (embedded in journals and reports).
SPEC_SCHEMA = "repro.campaign_spec/1"

_MODES = ("grid", "zip", "list")

#: Axis values must be JSON scalars so digests are canonical.
_SCALARS = (bool, int, float, str)


def canonical_json(document) -> str:
    """Key-sorted, separator-normalized JSON: the digest input form."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def config_digest(document) -> str:
    """Short stable content digest of a canonical-JSON-able document."""
    return hashlib.sha256(
        canonical_json(document).encode("utf-8")
    ).hexdigest()[:16]


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class Cell:
    """One expanded campaign cell: a parameter assignment plus identity."""

    index: int
    label: str
    target: str
    params: dict  # includes the resolved ``seed``
    digest: str

    def job_params(self) -> dict:
        """The parameters handed to the cell target (a fresh copy)."""
        return dict(self.params)


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign description.

    Attributes:
        name: Campaign name (used for default output paths).
        target: Cell-target registry key (see
            :data:`repro.campaign.cells.TARGETS`).
        mode: ``grid`` | ``zip`` | ``list``.
        axes: Axis name -> list of scalar values (grid/zip modes).
        cells: Explicit parameter tables (list mode).
        seed: Campaign base seed for derived per-cell seeds.
        fixed: Parameters shared by every cell (overridable by axes).
    """

    name: str
    target: str
    mode: str = "grid"
    axes: dict = field(default_factory=dict)
    cells: tuple = ()
    seed: int = 0
    fixed: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError("campaign needs a non-empty string name")
        if not self.target or not isinstance(self.target, str):
            raise ConfigError(f"campaign {self.name!r} needs a cell target")
        if self.mode not in _MODES:
            raise ConfigError(
                f"campaign {self.name!r} mode must be one of "
                f"{', '.join(_MODES)}; got {self.mode!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError(
                f"campaign {self.name!r} seed must be an integer"
            )
        if self.seed < 0:
            raise ConfigError(
                f"campaign {self.name!r} seed must be non-negative"
            )
        self._validate_params("fixed", self.fixed)
        if self.mode == "list":
            if self.axes:
                raise ConfigError(
                    f"campaign {self.name!r}: list mode takes explicit "
                    f"cells, not axes"
                )
            if not self.cells:
                raise ConfigError(
                    f"campaign {self.name!r}: list mode needs at least "
                    f"one cell"
                )
            for i, cell in enumerate(self.cells):
                if not isinstance(cell, dict) or not cell:
                    raise ConfigError(
                        f"campaign {self.name!r}: cell {i} must be a "
                        f"non-empty parameter table"
                    )
                self._validate_params(f"cell {i}", cell)
            return
        if self.cells:
            raise ConfigError(
                f"campaign {self.name!r}: explicit cells require "
                f"mode = \"list\""
            )
        if not self.axes:
            raise ConfigError(
                f"campaign {self.name!r} needs at least one axis"
            )
        for axis, values in self.axes.items():
            if not isinstance(axis, str) or not axis:
                raise ConfigError(
                    f"campaign {self.name!r}: axis names must be strings"
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(
                    f"campaign {self.name!r}: axis {axis!r} needs a "
                    f"non-empty list of values"
                )
            for value in values:
                self._check_scalar(f"axis {axis!r}", value)
            if len(set(map(repr, values))) != len(values):
                raise ConfigError(
                    f"campaign {self.name!r}: axis {axis!r} has "
                    f"duplicate values"
                )
        if self.mode == "zip":
            lengths = {axis: len(v) for axis, v in self.axes.items()}
            if len(set(lengths.values())) > 1:
                raise ConfigError(
                    f"campaign {self.name!r}: zip axes must have equal "
                    f"lengths, got {lengths}"
                )

    def _validate_params(self, where: str, params) -> None:
        if not isinstance(params, dict):
            raise ConfigError(
                f"campaign {self.name!r}: {where} must be a table"
            )
        for key, value in params.items():
            if not isinstance(key, str) or not key:
                raise ConfigError(
                    f"campaign {self.name!r}: {where} keys must be strings"
                )
            self._check_scalar(f"{where} key {key!r}", value)

    def _check_scalar(self, where: str, value) -> None:
        if not isinstance(value, _SCALARS):
            raise ConfigError(
                f"campaign {self.name!r}: {where} value {value!r} must "
                f"be a scalar (bool/int/float/str)"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(
                f"campaign {self.name!r}: {where} value {value!r} must "
                f"be finite"
            )

    # --- identity ---------------------------------------------------------------------

    def to_document(self) -> dict:
        """The spec as a plain JSON-able document (round-trippable)."""
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "target": self.target,
            "mode": self.mode,
            "axes": {k: list(v) for k, v in self.axes.items()},
            "cells": [dict(c) for c in self.cells],
            "seed": self.seed,
            "fixed": dict(self.fixed),
        }

    def digest(self) -> str:
        """Identity of the whole campaign (used to guard ``--resume``)."""
        return config_digest(self.to_document())

    # --- expansion --------------------------------------------------------------------

    def _assignments(self) -> list[list[tuple[str, object]]]:
        if self.mode == "grid":
            names = list(self.axes)
            return [
                list(zip(names, combo))
                for combo in itertools.product(
                    *(self.axes[n] for n in names)
                )
            ]
        if self.mode == "zip":
            names = list(self.axes)
            length = len(self.axes[names[0]])
            return [
                [(n, self.axes[n][i]) for n in names]
                for i in range(length)
            ]
        return [sorted(cell.items()) for cell in self.cells]

    def expand(self) -> list[Cell]:
        """Expand into ordered cells with digests and resolved seeds.

        Cell order is deterministic: axis insertion order, values in
        spec order (grid = row-major cartesian product).  The digest of
        a cell covers its target and full parameter assignment — and the
        campaign base seed only when the cell's seed is *derived* from
        it — so explicitly-seeded cells cache across campaigns with
        different base seeds.
        """
        cells: list[Cell] = []
        seen: dict[str, int] = {}
        for index, assignment in enumerate(self._assignments()):
            params = dict(self.fixed)
            params.update(assignment)
            key: dict = {"target": self.target, "params": params}
            if "seed" not in params:
                key["base_seed"] = self.seed
            digest = config_digest(key)
            if digest in seen:
                raise ConfigError(
                    f"campaign {self.name!r}: cells {seen[digest]} and "
                    f"{index} have identical parameters"
                )
            seen[digest] = index
            if "seed" not in params:
                params["seed"] = stable_hash64(
                    f"{self.seed}/{digest}"
                ) & (2**63 - 1)
            label = ",".join(
                f"{name}={_format_value(value)}"
                for name, value in assignment
            )
            cells.append(Cell(index, label, self.target, params, digest))
        return cells

    # --- axis overrides ---------------------------------------------------------------

    def restrict_axes(self, overrides: dict[str, list]) -> "CampaignSpec":
        """A copy with some axes replaced (the CLI's ``--axis`` flag).

        Only meaningful for ``grid`` campaigns: restricting one zipped
        axis would desynchronize the others, and list mode has no axes.
        """
        if not overrides:
            return self
        if self.mode != "grid":
            raise ConfigError(
                f"campaign {self.name!r}: --axis overrides apply only "
                f"to grid campaigns (this one is {self.mode!r})"
            )
        axes = {k: list(v) for k, v in self.axes.items()}
        for axis, values in overrides.items():
            if axis not in axes:
                raise ConfigError(
                    f"campaign {self.name!r} has no axis {axis!r}; "
                    f"axes: {', '.join(axes)}"
                )
            axes[axis] = list(values)
        return CampaignSpec(
            name=self.name,
            target=self.target,
            mode=self.mode,
            axes=axes,
            cells=self.cells,
            seed=self.seed,
            fixed=self.fixed,
        )


# --- loading ---------------------------------------------------------------------


def spec_from_document(document: dict, default_name: str | None = None) -> CampaignSpec:
    """Build a validated spec from a parsed TOML/JSON document."""
    if not isinstance(document, dict):
        raise ConfigError("campaign spec must be a table/object")
    known = {"schema", "name", "target", "mode", "axes", "cells", "seed", "fixed"}
    unknown = sorted(set(document) - known)
    if unknown:
        raise ConfigError(
            f"campaign spec has unknown keys: {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    schema = document.get("schema")
    if schema is not None and not str(schema).startswith("repro.campaign_spec"):
        raise ConfigError(
            f"not a campaign spec: schema {schema!r} "
            f"(expected {SPEC_SCHEMA!r})"
        )
    cells = document.get("cells", [])
    if not isinstance(cells, (list, tuple)):
        raise ConfigError("campaign spec 'cells' must be an array of tables")
    return CampaignSpec(
        name=document.get("name") or default_name or "campaign",
        target=document.get("target", ""),
        mode=document.get("mode", "grid"),
        axes=dict(document.get("axes", {})),
        cells=tuple(dict(c) if isinstance(c, dict) else c for c in cells),
        seed=document.get("seed", 0),
        fixed=dict(document.get("fixed", {})),
    )


def load_spec(path: str | Path) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` or ``.json`` file."""
    source = Path(path)
    if not source.exists():
        raise ConfigError(f"campaign spec {source} does not exist")
    if source.suffix == ".toml":
        try:
            import tomllib
        except ImportError:  # Python 3.10: stdlib TOML landed in 3.11
            raise ConfigError(
                f"TOML campaign specs need Python 3.11+ (no tomllib "
                f"here); rewrite {source.name} as JSON"
            )
        try:
            document = tomllib.loads(source.read_text())
        except tomllib.TOMLDecodeError as error:
            raise ConfigError(f"{source} is not valid TOML: {error}")
    elif source.suffix == ".json":
        try:
            document = json.loads(source.read_text())
        except json.JSONDecodeError as error:
            raise ConfigError(f"{source} is not valid JSON: {error}")
    else:
        raise ConfigError(
            f"campaign spec {source} must be a .toml or .json file"
        )
    return spec_from_document(document, default_name=source.stem)


# --- builtins --------------------------------------------------------------------

#: Shipped campaign documents, runnable by name from the CLI.
#:
#: ``design-space`` sweeps the ADCP geometry the paper's Tables 2/3
#: explore — array width x demux factor x port speed — over the pinned
#: parameter-server workload.  ``coflow-mix`` sweeps the Table 1
#: application classes across seeds on the matched 8-port ADCP.
#: ``fabric-sweep`` crosses coflow state placement with topology on the
#: multi-switch fabric, so the axis tables show how much coflow
#: completion time placement buys at fabric scale.
BUILTIN_CAMPAIGNS: dict[str, dict] = {
    "design-space": {
        "name": "design-space",
        "target": "design-space",
        "mode": "grid",
        "seed": 1,
        "axes": {
            "array_width": [8, 16],
            "demux_factor": [1, 2],
            "port_speed_gbps": [100, 200],
        },
    },
    "coflow-mix": {
        "name": "coflow-mix",
        "target": "coflow-mix",
        "mode": "grid",
        "seed": 2,
        "axes": {
            "app": ["paramserver", "dbshuffle", "graphmining", "groupcomm"],
            "seed": [21, 42],
        },
    },
    "stateful-sweep": {
        "name": "stateful-sweep",
        "target": "stateful",
        "mode": "grid",
        "seed": 4,
        "fixed": {
            "workload": "tokenbucket",
            "packets": 240,
            "seed": 11,
        },
        "axes": {
            "flows": [16, 64],
            "skew": [1.1, 1.5],
            "target": ["rmt", "adcp"],
        },
    },
    "fabric-sweep": {
        "name": "fabric-sweep",
        "target": "fabric",
        "mode": "grid",
        "seed": 3,
        "fixed": {
            "workload": "fabric-allreduce",
            "target": "adcp",
            "routing": "ecmp",
            "seed": 7,
        },
        "axes": {
            "placement": ["ingress", "central", "hash"],
            "topology": ["leaf-spine-2x2", "fat-tree-k4"],
        },
    },
}


def resolve_spec(name_or_path: str) -> CampaignSpec:
    """A builtin campaign by name, or a spec file by path."""
    if name_or_path in BUILTIN_CAMPAIGNS:
        return spec_from_document(BUILTIN_CAMPAIGNS[name_or_path])
    if name_or_path.endswith((".toml", ".json")) or Path(name_or_path).exists():
        return load_spec(name_or_path)
    raise ConfigError(
        f"unknown campaign {name_or_path!r}; choose a builtin "
        f"({', '.join(sorted(BUILTIN_CAMPAIGNS))}) or pass a "
        f".toml/.json spec path"
    )
