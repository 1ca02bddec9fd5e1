"""Line-reach census: the lines of ``src/twopoint`` that no tier-1 test reaches.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer,
then prints each executable line of ``src/twopoint/*.py`` that no test
reached, grouped by file, and a count.  It reports and does not gate, and a
run takes about a minute, so it is run by hand from the repository root::

    PYTHONPATH=src python tests/reach.py [pytest arguments]

Extra arguments go to pytest, for example a test file to census alone.

CPython switches a tracer off when a call to it raises, and the tests that
evaluate too deep a tree raise ``RecursionError`` there, so a pytest hook
installs the line tracer again before each test's setup and call; without
it, most of ``expressions.py`` reads as unreached.  Three kinds of line are
listed although tests reach them: main's ``RecursionError`` clause in
``cli.py``, which runs while the tracer is off, and main's
``BrokenPipeError`` clause and ``__main__.py``, which run only in the child
processes that ``tests/test_cli.py`` starts, where there is no tracer.
"""

from __future__ import annotations

import dis
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "twopoint"
TESTS = Path(__file__).resolve().parent

# (file name, line) of every line event in a frame of SRC's code
reached: set[tuple[str, int]] = set()
# co_filename -> the file name under SRC, or None for any other file
_names: dict[str, str | None] = {}


def _trace_lines(frame, event, arg):
    if event == "line":
        reached.add((_names[frame.f_code.co_filename], frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename not in _names:
        path = Path(filename).resolve()
        _names[filename] = path.name if path.parent == SRC else None
    return _trace_lines if _names[filename] is not None else None


class _Reinstall:
    """Installs the tracer again before each test's setup and call."""

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(_trace_calls)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        sys.settrace(_trace_calls)


def _executable_lines(path: Path) -> set[int]:
    """The lines of the file that carry bytecode, in every code object."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # the line a function's code starts on is its def line, which the
        # enclosing code reaches
        lines.update(line for _, line in dis.findlinestarts(code) if line and line != code.co_firstlineno)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_code"))
    return lines


def main(argv: list[str]) -> int:
    sys.settrace(_trace_calls)
    try:
        args = ["-q", "-p", "no:cacheprovider", "--rootdir", str(TESTS.parent), *(argv or [str(TESTS)])]
        status = pytest.main(args, plugins=[_Reinstall()])
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        missed = sorted(_executable_lines(path) - {line for name, line in reached if name == path.name})
        if missed:
            text = path.read_text().splitlines()
            print(f"\n{path.name}: {len(missed)} unreached")
            for line in missed:
                print(f"  {line:4d}  {text[line - 1].strip()}")
        total += len(missed)
    print(f"\n{total} executable lines of src/twopoint unreached (pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
