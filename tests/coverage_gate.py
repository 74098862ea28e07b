"""Statement-coverage gate for the library: run tier-1 in this process under a
line tracer and fail if any statement of ``src/periodic_secretary`` never ran,
unless it is on ``ALLOWED`` below with the reason it cannot run.

    python tests/coverage_gate.py [extra pytest arguments]

It uses the standard library only. A statement counts as run when a line
event fires on any of its lines; for a compound statement (``def``, ``if``,
``for``, ...) only its header counts, down to its first body line. Docstrings
and ``try`` headers compile to no code of their own, so they are not
statements here. Code that only a subprocess runs (the CLI entry point, the
demos) is not seen. Hypothesis runs from seed 0, so two runs trace the same
examples. The gate also fails when the tests fail, and when an allowlisted
statement ran (the allowlist is stale). Traced, tier-1 takes about twice its
untraced time.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "periodic_secretary"

# (file, enclosing function or "<module>", statement source) of the
# statements tier-1 cannot run, each with its reason.
ALLOWED = {
    ("gp.py", "<module>", "from numpy.core.multiarray import c_einsum as _c_einsum"):
        "the import fallback for numpy < 2; the tests run on numpy 2",
    ("cli.py", "<module>", "raise SystemExit(main())"):
        "the __main__ guard; tests call main() in process, and subprocesses are not traced",
    ("kv.py", "values", "raise"):
        "unreachable: _cell raises first on the cell that made float() fail",
}


def statements(path: Path) -> list[tuple[int, int, str, str]]:
    """(first line, last line, enclosing function, source) of each statement
    in the file: the lines whose line events mean that it ran."""
    source = path.read_text(encoding="utf-8")
    found: list[tuple[int, int, str, str]] = []

    def visit(body: list[ast.stmt], scope: str) -> None:
        for node in body:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue  # a docstring or another constant: no code
            inner = [getattr(node, b) for b in ("body", "handlers", "orelse", "finalbody")
                     if getattr(node, b, None)]
            if not isinstance(node, ast.Try):
                first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
                last = node.body[0].lineno - 1 if inner else node.end_lineno
                text = ast.get_source_segment(source, node).splitlines()[0].strip()
                found.append((first, max(first, last), scope, text))
            name = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            for block in inner:
                for child in block:
                    visit(child.body if isinstance(child, ast.ExceptHandler) else [child], name)

    visit(ast.parse(source).body, "<module>")
    return found


def main(argv: list[str]) -> int:
    import pytest

    files = {str(p.resolve()): p for p in sorted(SRC.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}
    resolved: dict[str, str | None] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in resolved:
            real = os.path.realpath(filename)
            resolved[filename] = real if real in ran else None
        key = resolved[filename]
        if key is None:
            return None
        lines = ran[key]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              "--hypothesis-seed=0", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed, stale = [], set(ALLOWED)
    for name, path in files.items():
        for first, last, scope, text in statements(path):
            if any(line in ran[name] for line in range(first, last + 1)):
                continue
            key = (path.name, scope, text)
            if key in ALLOWED:
                stale.discard(key)
            else:
                missed.append(f"{path.relative_to(ROOT)}:{first}: {text}")
    for line in missed:
        print(f"never ran: {line}")
    for file, scope, text in sorted(stale):
        print(f"allowlisted but ran or gone: {file} ({scope}): {text}")
    if status != 0:
        print(f"tier-1 failed under the tracer (pytest exit status {int(status)})")
    ok = status == 0 and not missed and not stale
    print(f"coverage gate: {'pass' if ok else 'FAIL'} ({len(missed)} statements never ran)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
