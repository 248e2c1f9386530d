"""List the lines of ``src/centreg`` that a pytest run never executes.

    python tools/linetrace.py [pytest args...]

Runs pytest in this process (default args: ``-q tests``) under
``sys.settrace`` and ``threading.settrace``. Only frames whose code lives in
``src/centreg`` get a line tracer, so the rest of the run pays one call-event
check per frame. The executable lines of each module are the line numbers of
its compiled code objects (``co_lines``, nested code included). Each line that
never ran is printed as ``file:line: text``.

Exit status: pytest's own if it is not 0, else 1 if any line never ran, else 0.
Work done in subprocesses and in worker processes is not seen.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "centreg"


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every code object compiled from ``path``."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module's code starts at line 0
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with line tracing of ``src/centreg``; return its exit code and the lines hit."""
    import pytest

    prefix = str(SRC) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC.parent))
    status, hits = run_traced(argv or ["-q", str(ROOT / "tests")])
    unrun = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text().splitlines()
        missed = executable_lines(path) - hits.get(str(path), set())
        unrun += [f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}" for n in sorted(missed)]
    for line in unrun:
        print(line)
    print(f"{len(unrun)} unrun line(s) in {SRC.relative_to(ROOT)}", file=sys.stderr)
    return status or (1 if unrun else 0)


if __name__ == "__main__":  # spawn workers re-import this script; they must not rerun pytest
    sys.exit(main(sys.argv[1:]))
