"""Entry point: ``python -m repro [--json] [artifact ...]``.

Also hosts the telemetry tooling:

- ``python -m repro trace <workload>`` runs a reference workload with
  tracing enabled and writes a Chrome trace-event JSON timeline (load it
  in ``chrome://tracing`` or Perfetto).
- ``python -m repro profile <workload>`` attributes every packet's
  latency and reports bottlenecks.
- ``python -m repro monitor <workload>`` samples resource time-series on
  the simulation clock and writes a run ledger.
- ``python -m repro fabric <topology> <workload>`` simulates a
  multi-switch fabric (leaf-spine or fat-tree) end to end and writes a
  diffable run ledger.
- ``python -m repro serve <topology> <workload>`` streams open-loop,
  rate-controlled traffic into a continuously-running fabric, emitting
  rolling-window records with live SLO verdicts and a diffable serve
  ledger (exit 1 on SLO violation).
- ``python -m repro spans <topology> <workload>`` head-samples 1-in-N
  packets through a fabric (fast path live) and writes per-hop span
  timelines plus a diffable span ledger.
- ``python -m repro stateful <workload>`` runs one stateful-primitive
  workload (EFSM, replicated objects, state-compute replication) on one
  or both targets and writes a diffable stateful ledger.
- ``python -m repro diff <base> <new>`` compares two run ledgers and
  exits non-zero on regression.
- ``python -m repro campaign <spec>`` expands a declarative sweep into
  cells, runs them on a worker pool with caching and a resumable
  journal, and writes one diffable aggregate report.

Subcommands live in the :data:`_SUBCOMMANDS` table: each entry holds its
positionals and, for every flag, the runner keyword, usage metavar and
type converter.  One scan loop reads it, and usage text, ``--help`` and
unknown-subcommand errors are generated from it, so they cannot drift
apart.  The CLI only converts types: a handler passes its runner just
the flags given, so the runner's signature holds every default and the
function that owns a value checks its range.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from typing import Callable, NamedTuple

from .errors import ConfigError, SimulationError
from .serve.replay import BurstPhase, parse_duration_ns


class _Flag(NamedTuple):
    """One ``--flag``: the runner keyword it sets and how its value is read.

    A flag with no ``metavar`` is a switch that sets ``key`` to
    ``const``; ``repeat`` collects every occurrence into a list.
    """

    key: str
    metavar: str | None = None
    convert: Callable[[str], object] = str
    repeat: bool = False
    const: object = True


class _Subcommand(NamedTuple):
    """One CLI subcommand: positionals, flags, and the handler that gets
    the positionals plus the converted flags that were given."""

    positionals: tuple[str, ...]
    arity: str  # the wrong-positional-count error; ``{}`` is the name
    flags: dict[str, _Flag]
    handler: Callable[[list[str], dict, bool], int]


def _percent(text: str) -> float:
    """``--threshold`` reads a percentage; ledger diffs take a fraction."""
    return float(text) / 100.0


def _timeout(text: str) -> float | None:
    """Seconds; a finite zero or negative value disables the timeout."""
    value = float(text)
    return None if value <= 0 and math.isfinite(value) else value


def _parse_axis_override(text: str) -> tuple[str, list]:
    """Parse ``name=v1,v2`` into an axis override, coercing scalars."""
    if "=" not in text:
        raise ConfigError(
            f"--axis expects name=v1,v2,..., got {text!r}"
        )
    axis, _, raw = text.partition("=")
    if not axis or not raw:
        raise ConfigError(
            f"--axis expects name=v1,v2,..., got {text!r}"
        )
    values: list = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token in ("true", "false"):
            values.append(token == "true")
            continue
        try:
            values.append(int(token))
            continue
        except ValueError:
            pass
        try:
            values.append(float(token))
            continue
        except ValueError:
            pass
        values.append(token)
    if not values:
        raise ConfigError(f"--axis {axis} needs at least one value")
    return axis, values


def _scan(name: str, args: list[str]) -> tuple[list[str], dict]:
    """Split ``args`` into positionals and converted flag values.

    The options hold only the flags given, keyed by runner keyword.
    """
    sub = _SUBCOMMANDS[name]
    positional: list[str] = []
    options: dict = {}
    rest = iter(args)
    for arg in rest:
        flag = sub.flags.get(arg)
        if flag is None:
            if arg.startswith("-"):
                raise ConfigError(f"unknown {name} option {arg!r}")
            positional.append(arg)
            continue
        if flag.metavar is None:
            options[flag.key] = flag.const
            continue
        text = next(rest, None)
        if text is None:
            raise ConfigError(f"{arg} requires a value")
        try:
            value = flag.convert(text)
        except ValueError:
            kind = "an integer" if flag.convert is int else "a number"
            raise ConfigError(f"{arg} must be {kind}, got {text!r}")
        if flag.repeat:
            options.setdefault(flag.key, []).append(value)
        else:
            options[flag.key] = value
    if len(positional) != len(sub.positionals):
        raise ConfigError(
            f"{name} {sub.arity.format(name)}; see python -m repro --help"
        )
    return positional, options


def _print_run(run, json_mode: bool) -> None:
    if json_mode:
        print(json.dumps(run.summary(), indent=1))
    else:
        for line in run.lines:
            print(line)


def _write_ledger(path: str | None, run) -> None:
    from .telemetry.ledger import write_ledger

    if path is not None:
        written = write_ledger(path, run.ledger())
        print(f"ledger: {written}", file=sys.stderr)


def _main_trace(args: list[str], options: dict, json_mode: bool) -> int:
    from .telemetry.runner import run_trace

    _print_run(run_trace(*args, **options), json_mode)
    return 0


def _main_profile(args: list[str], options: dict, json_mode: bool) -> int:
    from .telemetry.runner import run_profile

    _print_run(run_profile(*args, **options), json_mode)
    return 0


def _main_monitor(args: list[str], options: dict, json_mode: bool) -> int:
    from .telemetry.runner import run_monitor

    _print_run(run_monitor(*args, **options), json_mode)
    return 0


def _main_spans(args: list[str], options: dict, json_mode: bool) -> int:
    from .telemetry.runner import run_spans

    _print_run(run_spans(*args, **options), json_mode)
    return 0


def _main_stateful(args: list[str], options: dict, json_mode: bool) -> int:
    from .stateful.runner import run_stateful

    _print_run(run_stateful(*args, **options), json_mode)
    return 0


def _main_fabric(args: list[str], options: dict, json_mode: bool) -> int:
    from .fabric import run_fabric

    ledger = options.pop("ledger", None)
    run = run_fabric(*args, **options)
    _write_ledger(ledger, run)
    if json_mode:
        print(json.dumps(run.summary(), indent=1))
    else:
        for line in run.lines():
            print(line)
    return 0


def _main_serve(args: list[str], options: dict, json_mode: bool) -> int:
    from .serve import run_serve
    from .serve.runner import _window_line

    ledger = options.pop("ledger", None)
    stream = options.pop("stream", None)
    with contextlib.ExitStack() as files:
        stream_file = None

        def write_stream(line: str) -> None:
            # Opened with the first record: a run that ``run_serve``
            # rejects leaves no file behind.
            nonlocal stream_file
            if stream is None:
                return
            if stream_file is None:
                stream_file = files.enter_context(open(stream, "w"))
            stream_file.write(line + "\n")
            stream_file.flush()

        def emit_window(record: dict) -> None:
            if json_mode:
                print(
                    json.dumps({"type": "window", **record}, sort_keys=True),
                    flush=True,
                )
            else:
                print(_window_line(record), flush=True)
            write_stream(json.dumps(record, sort_keys=True))

        run = run_serve(*args, on_window=emit_window, **options)
        # Sampled span hops join the same JSONL stream as the windows,
        # tagged with their own record type.
        for record in run.span_records():
            line = json.dumps({"type": "span", **record}, sort_keys=True)
            if json_mode:
                print(line, flush=True)
            write_stream(line)
    _write_ledger(ledger, run)
    if json_mode:
        print(json.dumps(run.summary(), sort_keys=True))
    else:
        for line in run.lines():
            print(line)
    return run.exit_code


def _main_diff(args: list[str], options: dict, json_mode: bool) -> int:
    from .telemetry.ledger import diff_ledgers, load_ledger

    diff = diff_ledgers(*map(load_ledger, args), **options)
    if json_mode:
        print(json.dumps(diff.to_json(), indent=1))
    else:
        for line in diff.lines():
            print(line)
    return diff.exit_code


def _main_campaign(args: list[str], options: dict, json_mode: bool) -> int:
    from .campaign import resolve_spec, run_campaign

    axes = dict(options.pop("axes", ()))
    run = run_campaign(
        resolve_spec(args[0]).restrict_axes(axes),
        progress=lambda message: print(message, file=sys.stderr, flush=True),
        **options,
    )
    _print_run(run, json_mode)
    return run.exit_code


_ONE_WORKLOAD = "takes exactly one workload name"
_TOPOLOGY_WORKLOAD = (
    "takes a topology spec and a workload name "
    "(e.g. {} leaf-spine-2x2 fabric-allreduce)"
)
_SEED = {"--seed": _Flag("seed", "N", int)}
_FABRIC = {
    "--target": _Flag("target", "rmt|adcp"),
    "--placement": _Flag("placement", "ingress|central|hash"),
    "--routing": _Flag("routing", "ecmp|flowlet"),
    "--coflows": _Flag("coflows", "N", int),
    "--vector": _Flag("vector", "N", int),
}

#: The single source of truth for subcommands: flags, usage text,
#: ``--help``, dispatch, and unknown-subcommand hints all derive from
#: this table.
_SUBCOMMANDS: dict[str, _Subcommand] = {
    "trace": _Subcommand(
        ("<workload>",),
        _ONE_WORKLOAD,
        {
            "--out": _Flag("out", "PATH"),
            "--sample": _Flag("sample", "N", int),
            **_SEED,
        },
        _main_trace,
    ),
    "profile": _Subcommand(
        ("<workload>",),
        _ONE_WORKLOAD,
        {"--chrome": _Flag("chrome_out", "PATH"), **_SEED},
        _main_profile,
    ),
    "monitor": _Subcommand(
        ("<workload>",),
        _ONE_WORKLOAD,
        {
            "--interval": _Flag("interval_ns", "NS", float),
            "--ledger": _Flag("ledger_out", "PATH"),
            "--csv": _Flag("csv_out", "PATH"),
            "--chrome": _Flag("chrome_out", "PATH"),
            **_SEED,
        },
        _main_monitor,
    ),
    "fabric": _Subcommand(
        ("<topology>", "<workload>"),
        _TOPOLOGY_WORKLOAD,
        {
            **_FABRIC,
            "--load": _Flag("load", "F", float),
            "--ledger": _Flag("ledger", "PATH"),
            **_SEED,
        },
        _main_fabric,
    ),
    "serve": _Subcommand(
        ("<topology>", "<workload>"),
        _TOPOLOGY_WORKLOAD,
        {
            **_FABRIC,
            "--rate": _Flag("rate", "F", float),
            "--arrivals": _Flag("arrivals", "poisson|periodic"),
            "--duration": _Flag("duration_ns", "DUR", parse_duration_ns),
            "--window": _Flag("window_ns", "DUR", parse_duration_ns),
            "--ramp": _Flag("ramp_ns", "DUR", parse_duration_ns),
            "--burst": _Flag(
                "bursts", "FACTOR@START:END", BurstPhase.parse, repeat=True
            ),
            "--slo": _Flag("slos", "METRIC<=BOUND", repeat=True),
            "--interval": _Flag("interval_ns", "NS", float),
            "--sample": _Flag("sample", "N", int),
            "--ledger": _Flag("ledger", "PATH"),
            "--stream": _Flag("stream", "PATH"),
            **_SEED,
        },
        _main_serve,
    ),
    "spans": _Subcommand(
        ("<topology>", "<workload>"),
        _TOPOLOGY_WORKLOAD,
        {
            "--target": _Flag("target", "rmt|adcp|both"),
            "--sample": _Flag("sample", "N", int),
            "--ledger": _Flag("ledger_out", "PATH"),
            "--out": _Flag("ledger_out", "PATH"),  # alias, as trace --out
            "--chrome": _Flag("chrome_out", "PATH"),
            **_SEED,
        },
        _main_spans,
    ),
    "stateful": _Subcommand(
        ("<workload>",),
        _ONE_WORKLOAD + " (tokenbucket, synflood, heavyhitter, keycache)",
        {
            "--target": _Flag("target", "rmt|adcp|both"),
            "--topology": _Flag("topology", "single|<fabric>"),
            "--flows": _Flag("flows", "N", int),
            "--skew": _Flag("skew", "F", float),
            "--packets": _Flag("packets", "N", int),
            "--ledger": _Flag("ledger_out", "PATH"),
            **_SEED,
        },
        _main_stateful,
    ),
    "diff": _Subcommand(
        ("<base_ledger>", "<new_ledger>"),
        "takes exactly two ledger paths (base, new)",
        {"--threshold": _Flag("threshold", "PCT", _percent)},
        _main_diff,
    ),
    "campaign": _Subcommand(
        ("<spec.toml|spec.json|builtin>",),
        "takes exactly one spec (a builtin name or a .toml/.json path)",
        {
            "--workers": _Flag("workers", "N", int),
            "--resume": _Flag("resume"),
            "--out": _Flag("out_dir", "DIR"),
            "--axis": _Flag(
                "axes", "name=v1,v2", _parse_axis_override, repeat=True
            ),
            "--timeout": _Flag("timeout_s", "S", _timeout),
            "--retries": _Flag("max_retries", "N", int),
            "--cache-dir": _Flag("cache_dir", "DIR"),
            "--no-cache": _Flag("use_cache", const=False),
        },
        _main_campaign,
    ),
}


def _usage(name: str, sub: _Subcommand) -> str:
    words = [name, *sub.positionals]
    for text, flag in sub.flags.items():
        if flag.metavar is None:
            words.append(f"[{text}]")
        else:
            more = " ..." if flag.repeat else ""
            words.append(f"[{text} {flag.metavar}{more}]")
    return " ".join([*words, "[--json]"])


def _usage_lines() -> list[str]:
    from .campaign.spec import BUILTIN_CAMPAIGNS
    from .fabric.workloads import FABRIC_WORKLOADS
    from .report import ARTIFACTS
    from .stateful.workloads import (
        FABRIC_STATEFUL_WORKLOADS,
        STATEFUL_WORKLOADS,
    )
    from .telemetry.runner import TRACEABLE

    lines = ["usage: python -m repro [--json] [artifact ...]"]
    lines.extend(
        f"       python -m repro {_usage(name, sub)}"
        for name, sub in _SUBCOMMANDS.items()
    )
    lines.append(
        f"artifacts: {', '.join(sorted(ARTIFACTS))} (default: all)"
    )
    lines.append(
        f"trace/profile/monitor workloads: {', '.join(sorted(TRACEABLE))}"
    )
    lines.append(
        f"fabric/serve workloads: "
        f"{', '.join(FABRIC_WORKLOADS + FABRIC_STATEFUL_WORKLOADS)} on "
        f"leaf-spine-LxS[xH], fat-tree-kK, or single-N topologies"
    )
    lines.append(
        f"stateful workloads: {', '.join(STATEFUL_WORKLOADS)} "
        f"(EFSM/replicated/SCR primitives; see docs/PRIMITIVES.md)"
    )
    lines.append(
        "serve streams rolling-window records live (JSONL with --json); "
        "exit codes: 0 SLOs met, 1 SLO violated, 2 usage error "
        "(durations accept ns/us/ms/s suffixes, e.g. --window 1us)"
    )
    lines.append(
        "spans head-samples 1 in N packets (default 16) through a fabric "
        "with the fast path live and writes a diffable span ledger; "
        "trace --sample N merges span slices into the full timeline"
    )
    lines.append(
        "diff compares two run ledgers written by monitor; it exits 1 "
        "when any series regressed past the threshold (default 5%)"
    )
    lines.append(
        f"campaign builtins: {', '.join(sorted(BUILTIN_CAMPAIGNS))}; "
        f"exit codes: 0 ok, 1 cell failure/interrupt, 2 bad spec"
    )
    return lines


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    json_mode = "--json" in args
    args = [a for a in args if a != "--json"]
    if args and args[0] in ("-h", "--help"):
        for line in _usage_lines():
            print(line)
        return 0
    try:
        if args and args[0] in _SUBCOMMANDS:
            positional, options = _scan(args[0], args[1:])
            return _SUBCOMMANDS[args[0]].handler(
                positional, options, json_mode
            )
        from .report import run_structured

        sections = run_structured(args or None)
        if json_mode:
            print(json.dumps(sections, indent=1))
        else:
            for report in sections.values():
                for line in report:
                    print(line)
                print()
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        if args and args[0] not in _SUBCOMMANDS:
            print(
                f"subcommands: {', '.join(_SUBCOMMANDS)}",
                file=sys.stderr,
            )
        return 2
    except SimulationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
