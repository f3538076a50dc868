"""Characterization of the ``profile`` and ``trace --json`` outputs.

Each case runs one CLI workload through :func:`run_profile` or
:func:`run_trace` and hashes the canonical JSON of what the command
prints: the ``--json`` summary of both, and the text report lines of
``profile``.  The constants pin every number those outputs carry
(attribution buckets, bottleneck ranking with utilizations, Little's-law
rows, event counts, snapshot counts), so a refactor of the telemetry
layer that must not change them is checked exactly, and attribution
built another way has an exact reference to match.

Canonical JSON sorts keys and uses ``repr`` floats, which are the same
on every supported Python and under any ``PYTHONHASHSEED``.  The trace
file path is left out: it names a temporary directory.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.telemetry.runner import run_profile, run_trace

WORKLOADS = (
    "quickstart",
    "recirculate",
    "mergejoin",
    "mltrain",
    "fabric-allreduce",
    "fabric-shuffle",
    "stateful-tokenbucket",
    "stateful-synflood",
    "stateful-heavyhitter",
    "stateful-keycache",
)


def _digest(value) -> str:
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


#: ``workload -> (profile summary, profile lines, trace summary)`` sha256.
DIGESTS = {
    "quickstart": (
        "b91db8f015acda362b24e1b752e161ec64b8065a2c8fad7c09ac2d9e9a00176d",
        "a9e4c3013b1ed47eb9844f3ab77b4a86e3e687d920c546ba359185bde8704e91",
        "4bf8a3ef19e38bb3934dbb4c2d0e30780a0d48750fc52b0226ec15b6c68eca81",
    ),
    "recirculate": (
        "4fc375a990e5a33fec890ecc4ee00d1a2cf5a15dbac48e3c671961fa73b164a8",
        "0a473419035ac65367f7f74ae7c860c7d3d17ff1c69523e49e244c5ab7aaf429",
        "6b77573d537f3099a16b354921df949c4e02ef3f191cf28634fb48caa15e4388",
    ),
    "mergejoin": (
        "63d19bbd503a8260415549fa1d31b1e2ae6f7d064b43e528c4c494d73b0527f9",
        "67b6b0fe44d74872f5b0ee584a08df6b59e77d969eedd899373b072b6500d957",
        "4ab0789a47cad19dd2c2623f173035cd27d26fbfa4dd299a00ba60ecfe7fb737",
    ),
    "mltrain": (
        "722377075aa59d3c763809b61e849f91025dbaf503014cabe097beed4b3c8cf5",
        "de012aa6137c4aa2199a6303201bcfe0840c6c0842bb9942a2614264e6265a0c",
        "0f109d933e4f1614aa9156e926598d859181b7223159dfb8d3e6f5e792ecc8b6",
    ),
    "fabric-allreduce": (
        "34a174fc09a2833b318cb2bf1e0963518724cae3fa3c8c375a2d1383243c0844",
        "b1049dc6ccdf6a312210b9fca9a1046a3aabb5b8a218d7fce89bcd35195d57fb",
        "09bfd5c2fd4ffe2fdceab33fa3721a97fe09ba8351b0ea5593bb16e1657e09e8",
    ),
    "fabric-shuffle": (
        "e356b0551dd332a7548afca2bac599827396074009d786b364f3a10be57e808d",
        "e4844c92770851f62ee08d216e2f5c5c367ea82df25a35205a12c9388e3b1f93",
        "910215a928264d5f1065cb6278d03f01faa84998c13fa81f3f6074477bbe92f0",
    ),
    "stateful-tokenbucket": (
        "3f79558e99132d2da7689116a1127791c5e82afec7df87bc5eda0988a7a9b236",
        "f7499a9e6029010bd01913cb378ce0b37ec2105c47185468be2350bd8a5255e9",
        "df2f439d8d05e65579e6a027661e0157d39c4a58681ba0e4a7cbcc9ad4caff98",
    ),
    "stateful-synflood": (
        "eccee79d6b53afd068d1071c74ea33ee8e989712f8b7b66b5b3ea18c97ea2167",
        "5bc33060492712788973ef077aebf463ab56375a3085d1e1517c845bd3246fe3",
        "ca8172bd907744bad267db3a15afc69f23633f305f4a33ab1e51351d5a108da4",
    ),
    "stateful-heavyhitter": (
        "c7aac74b658af2add084bad3ce23a964e56e1d802a188d59e1d1c32b7eabdaed",
        "7c91f209131a55cb984c36dd37e7342b0d03cc5f0f908ac5b59c0fa7d11db05e",
        "abc4e4015df7df32e07117aa1b36cc66170f2cc4356f140061f9f917d2960a80",
    ),
    "stateful-keycache": (
        "098d4c4d093b9895b16584d9a5cf889d81346d8f8994c0a81d5695e71d9c10f1",
        "6f7848876b6531ef4ff48287e8c7afa6311355b42433f1b430a931d840dee372",
        "d092b6ba2e37230e8fbf5a23ab674e84a4685c4664f6d408ebc5c0dcf31d2bdb",
    ),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_profile_output_digest(workload):
    run = run_profile(workload)
    summary, lines, _ = DIGESTS[workload]
    assert _digest(run.summary()) == summary, (
        f"{workload}: `profile --json` output changed"
    )
    assert _digest(run.lines) == lines, (
        f"{workload}: `profile` text report changed"
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_summary_digest(workload, tmp_path):
    summary = run_trace(workload, out=tmp_path / "trace.json").summary()
    del summary["trace_file"]
    assert _digest(summary) == DIGESTS[workload][2], (
        f"{workload}: `trace --json` output changed"
    )
