"""Bad ``python -m repro`` invocations, generated from the option table.

The cases come from ``repro.__main__._SUBCOMMANDS``, so a flag is covered
as soon as it is added: every flag that converts its value (a number or
a duration) is fed values that are not finite numbers, and every
subcommand gets an unknown flag, a flag without its value, and a wrong
number of positionals.  Each case also carries every ``PATH``/``DIR``
flag of its subcommand, pointing into the test's directory.  Each case
must exit 2 with one ``error:`` line, print nothing to stdout, and write
no file; none starts a simulation.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.__main__ import _SUBCOMMANDS, main

_LEDGER = str(
    Path(__file__).resolve().parents[1] / "baselines" / "ledger_mltrain.json"
)

#: Valid positionals per subcommand, so the flag under test is what fails
#: (``diff`` gets two real ledgers, so its threshold check is reached).
_POSITIONALS = {
    "trace": ["quickstart"],
    "profile": ["quickstart"],
    "monitor": ["quickstart"],
    "fabric": ["leaf-spine-2x2", "fabric-allreduce"],
    "serve": ["leaf-spine-2x2", "fabric-allreduce"],
    "spans": ["leaf-spine-2x2", "fabric-allreduce"],
    "stateful": ["synflood"],
    "diff": [_LEDGER, _LEDGER],
    "campaign": ["design-space"],
}

_BAD_NUMBERS = ("x", "nan", "inf", "-inf", "1e400")


def _cases():
    for name, sub in _SUBCOMMANDS.items():
        good = _POSITIONALS[name]
        valued = [flag for flag, spec in sub.flags.items() if spec.metavar]
        for flag in valued:
            spec = sub.flags[flag]
            if spec.convert is str or spec.repeat:
                continue
            for value in _BAD_NUMBERS:
                yield pytest.param(
                    [name, *good, flag, value], id=f"{name} {flag} {value}"
                )
        yield pytest.param(
            [name, *good, "--frobnicate"], id=f"{name} unknown flag"
        )
        yield pytest.param(
            [name, *good, valued[0]], id=f"{name} {valued[0]} without value"
        )
        yield pytest.param([name, *good[1:]], id=f"{name} too few")
        yield pytest.param([name, *good, "extra"], id=f"{name} too many")


def _output_flags(name: str, directory: Path) -> list[str]:
    """Every output flag of ``name``, each naming a file in ``directory``."""
    argv = []
    for flag, spec in _SUBCOMMANDS[name].flags.items():
        if spec.metavar in ("PATH", "DIR"):
            argv += [flag, str(directory / flag.lstrip("-"))]
    return argv


@pytest.mark.parametrize("argv", _cases())
def test_bad_invocation_exits_two(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    name, *rest = argv
    assert main([name, *_output_flags(name, tmp_path), *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert list(tmp_path.iterdir()) == []


def test_help_lists_every_flag(capsys):
    """``--help`` is generated from the same table the parser reads."""
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name, sub in _SUBCOMMANDS.items():
        (line,) = [
            text for text in out.splitlines()
            if text.startswith(f"       python -m repro {name} ")
        ]
        for flag in sub.flags:
            assert f"[{flag} " in line or f"[{flag}]" in line, (name, flag)
