"""Source audit: a trace recorder never selects a code path.

docs/DESIGN.md rule 3: instrumentation records, and it never decides
which path a run takes.  Every telemetry level therefore runs the same
admission, pipeline, TM and dispatch code, and ``full`` differs from
``off`` only in the events it emits.  Two shapes of branch would fork
a traced run onto other code, and this test parses every module under
``src/repro`` and fails on either:

- any ``<expr>.trace is None`` comparison, which can only steer the
  untraced run somewhere the traced one does not go;
- any ``if`` (statement or expression) whose test includes
  ``<expr>.trace is not None`` and which has an ``else`` or ``elif``.

A plain ``if self.trace is not None: emit(...)`` is the allowed shape:
it adds an event and rejoins the one path.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent


def _trace_compare(node: ast.AST, op: type) -> bool:
    """``<expr>.trace is None`` (``op=ast.Is``) or ``is not None``."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Attribute)
        and node.left.attr == "trace"
        and len(node.ops) == 1
        and isinstance(node.ops[0], op)
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value is None
    )


def _gates(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if _trace_compare(node, ast.Is):
            found.append((node.lineno, "tests `.trace is None`"))
        elif isinstance(node, (ast.If, ast.IfExp)) and node.orelse:
            if any(_trace_compare(n, ast.IsNot) for n in ast.walk(node.test)):
                found.append((node.lineno, "forks on `.trace is not None`"))
    return found


def _source_gates() -> list[str]:
    found = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, what in _gates(tree):
            found.append(f"{path.relative_to(SRC_ROOT)}:{line}: {what}")
    return found


def test_no_trace_gated_branch_in_source():
    assert _source_gates() == []


def test_audit_sees_every_gate_shape():
    """The detector itself: each forking shape is caught, the plain
    emit-and-rejoin shape is not."""
    forks = [
        "if self.trace is None:\n    a()\n",
        "if hook is None and self.trace is None:\n    a()\n",
        "while sim.trace is None:\n    a()\n",
        "if self.trace is not None:\n    a()\nelse:\n    b()\n",
        "if self.trace is not None:\n    a()\nelif x:\n    b()\n",
        "if x and switch.trace is not None:\n    a()\nelse:\n    b()\n",
        "y = a() if self.trace is not None else b()\n",
    ]
    for source in forks:
        assert len(_gates(ast.parse(source))) == 1, source
    allowed = [
        "if self.trace is not None:\n    emit()\n",
        "if self.trace is not None and now is not None:\n    emit()\n",
        "if self.spans is None:\n    a()\nelse:\n    b()\n",
        "if trace is None:\n    a()\n",
    ]
    for source in allowed:
        assert _gates(ast.parse(source)) == [], source
