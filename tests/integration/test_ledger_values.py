"""Every value of the committed baseline ledgers, pinned by logical path.

``TestBaselineByteIdentity`` (tests/telemetry/test_diff.py) pins the
bytes of each file in ``baselines/`` against a fresh run, so a change of
ledger layout has to regenerate them.  This test pins what the bytes
*mean*: it walks each baseline into ``{logical path: value}`` and hashes
the canonical JSON of that dict.  The paths name where a value sat in
the layout the digests were taken from, the four-schema layout before
the one run-ledger format:

- ``workload``;
- ``config.<key>`` for every run parameter, whether it sat in
  ``config``, in a stateful ledger's ``params`` or loose at the top
  level (two copies of one parameter had to agree);
- ``section.<label>.<key>`` for the section scalars in
  :data:`SECTION_SCALARS`;
- ``series.<label>.<name>.<stat>`` for every summary statistic;
- ``direction.<label>.<name>``: what :func:`series_direction` resolves
  for the series, the verdict polarity ``repro diff`` applies;
- ``counters.<label>``;
- ``<payload>.<label>`` for the per-section payloads and ``<payload>``
  for the document-level ones, as canonical JSON.

``schema`` and ``git_sha`` are left out.  A layout change may rewrite
the reader below; the digests stay as they are, so a value that moves
keeps its old path and a refresh that moves a number fails here.  The
reader walks the one run-ledger layout: every parameter in ``config``.
Two values it no longer finds where they sat are read back from the
series they copied: a stateful target section's ``delivered`` and
``duration_s`` (``int(delivered.mean)`` and ``duration_ns.mean * 1e-9``).
A value the layout added, the ``totals`` of fabric, stateful and
campaign-cell ledgers, is outside this pin (tests/campaign/test_runner.py
checks it).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.telemetry.ledger import series_direction

BASELINES = Path(__file__).resolve().parents[2] / "baselines"

#: Section-level scalars a ledger section may carry.
SECTION_SCALARS = (
    "duration_s",
    "delivered",
    "consumed",
    "recirculated",
    "samples",
    "cct_s",
    "max_cct_s",
)

#: Payloads a section may carry, pinned per section label.
SECTION_PAYLOADS = ("attribution", "littles_law")

#: Document-level payloads.
DOCUMENT_PAYLOADS = (
    "windows", "slo", "totals", "critical_paths", "campaign",
)

#: Top-level keys that are not payloads.
_FRAME = ("schema", "git_sha", "workload", "config", "sections")

#: Section scalars a stateful target section now leaves to its series:
#: scalar -> (series, value of the series' mean).
_FROM_SERIES = {
    "delivered": ("delivered", int),
    "duration_s": ("duration_ns", lambda mean: mean * 1e-9),
}


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _put(values: dict, path: str, value) -> None:
    if path in values:
        assert _canonical(values[path]) == _canonical(value), (
            f"two copies of {path} disagree: {values[path]!r} vs {value!r}"
        )
    values[path] = value


def logical_values(document: dict) -> dict:
    """``{logical path: value}`` for one ledger document."""
    extra = set(document) - set(_FRAME) - set(DOCUMENT_PAYLOADS)
    assert not extra, f"top-level keys outside the layout: {sorted(extra)}"
    values: dict = {"workload": document["workload"]}
    for key, value in document["config"].items():
        _put(values, f"config.{key}", value)
    for section in document["sections"]:
        label = section["label"]
        series = section["series"]
        for key in SECTION_SCALARS:
            if key in section:
                _put(values, f"section.{label}.{key}", section[key])
            elif key in _FROM_SERIES and _FROM_SERIES[key][0] in series:
                name, convert = _FROM_SERIES[key]
                _put(
                    values,
                    f"section.{label}.{key}",
                    convert(series[name]["mean"]),
                )
        for name, summary in series.items():
            for stat, value in summary.items():
                _put(values, f"series.{label}.{name}.{stat}", value)
            _put(values, f"direction.{label}.{name}", series_direction(name))
        if "counters" in section:
            _put(values, f"counters.{label}", section["counters"])
        for payload in SECTION_PAYLOADS:
            if payload in section:
                _put(
                    values, f"{payload}.{label}", _canonical(section[payload])
                )
    for payload in DOCUMENT_PAYLOADS:
        # Only serve ledgers (the ones with ``windows``) carried totals.
        if payload == "totals" and "windows" not in document:
            continue
        if payload in document:
            _put(values, payload, _canonical(document[payload]))
    return values


#: baseline file -> sha256 of the canonical JSON of its logical values.
DIGESTS = {
    "campaign_design_space.json": (
        "5a06410a79ec004fdde61833e341be2fad74a197e30f1f730dc8d32412f8beff"
    ),
    "ledger_fabric_leafspine.json": (
        "ccad65bb4e38ba2b80d99b4fe4e7a11324eeecc184f643288d85797fa73f04a0"
    ),
    "ledger_mltrain.json": (
        "43561cc457dd4543ad78bbd9e917638d3c0c78638f841ad2e03fd5ede4d855fd"
    ),
    "ledger_serve_leafspine.json": (
        "dd7d41e382d9c85f27a60b875b7cf4dd265ae4a4b064b5a6c4adfac412276854"
    ),
    "span_ledger_leafspine.json": (
        "f0cd2cd84597599bf6860b06dfb3a3ddb443f0025cdef8304003763184e3205e"
    ),
    "stateful_ledger_synflood.json": (
        "a9f550c0e4b799059687be9b589f8297a9b38cb4ea584eb0f053e1e5bca07f82"
    ),
    "stateful_ledger_tokenbucket.json": (
        "c5e17ed1b5638732a7b1d1f33b5b956608e00e12b8e3d641f1562115ecc15b2c"
    ),
}


def test_every_baseline_is_pinned():
    assert sorted(DIGESTS) == sorted(
        path.name for path in BASELINES.glob("*.json")
    )


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_baseline_values_unchanged(name):
    document = json.loads((BASELINES / name).read_text())
    values = logical_values(document)
    digest = hashlib.sha256(_canonical(values).encode()).hexdigest()
    assert digest == DIGESTS[name], (
        f"{name}: a ledger value moved; a layout change must keep every "
        f"value at its logical path"
    )
