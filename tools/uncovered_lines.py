"""List the lines of src/nodemetry that no tier-1 test executes.

Runs the tier-1 suite (tests/) in this process under a sys.settrace line
probe, stdlib only, and prints, per module, the executable lines that never
ran, as ranges. It checks nothing: the exit code is 0 whatever the tests
give, and the list is for reading. Lines that run only in a child process
(the tests that start `python -m nodemetry.cli`) count as not run.

    PYTHONPATH=src python tools/uncovered_lines.py [extra pytest arguments]
"""

from __future__ import annotations

import dis
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nodemetry"


def executable_lines(path: Path) -> set[int]:
    """The lines that start an instruction of the module or of any code in it."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as comma-separated runs: 3, 7-9."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(args) -> int:
    import pytest

    hits: dict[str, set[int]] = {}
    ours: dict[str, set[int] | None] = {}  # co_filename -> its hit set, None if not in SRC

    def probe(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = Path(os.path.realpath(name))
            ours[name] = hits.setdefault(path.name, set()) if path.parent == SRC else None
        seen = ours[name]
        if seen is None:
            return None
        seen.add(frame.f_lineno)

        def lines(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return lines

        return lines

    threading.settrace(probe)
    sys.settrace(probe)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        never = lines - hits.get(path.name, set())
        total, missed = total + len(lines), missed + len(never)
        print(f"{path.relative_to(ROOT)}: {len(never)} of {len(lines)} lines not run"
              + (f": {ranges(never)}" if never else ""))
    print(f"{missed} of {total} executable lines not run in-process (pytest exit {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
