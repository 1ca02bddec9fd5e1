"""Byte-for-byte pins of the CLI's output on every corpus cell.

``data/cli_bytes.json`` holds, for each command below, the SHA-256 of
what the CLI produced when it was recorded: its exit code, stdout and
stderr.  The commands are ``trace``, ``solve --format json --verbose`` and
``solve --verbose`` for every built-in problem, start and method, and
``bench --format csv|json`` with ``--table 1|2|all``.  Any change to the
CLI's text, number formatting, column order or exit codes fails here.

Recorded by running this file as a script from the repository root::

    PYTHONPATH=src python tests/test_cli_bytes.py --record

Without ``--record`` the script checks the data and prints what differs.
The file is a record of past behaviour, not a target: do not re-record it
to make a change pass.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from twopoint.cli import main
from twopoint.corpus import builtin_problems
from twopoint.solvers import Method

DATA = Path(__file__).parent / "data" / "cli_bytes.json"

CELL_COMMANDS = {
    "trace": ("trace",),
    "solve-json-verbose": ("solve", "--format", "json", "--verbose"),
    "solve-verbose": ("solve", "--verbose"),
}


def commands() -> dict[str, list[str]]:
    """Key -> argv of every pinned invocation, in a fixed order."""
    out = {}
    for prob in builtin_problems():
        for start in prob.starts:
            for method in Method:
                for name, (command, *flags) in CELL_COMMANDS.items():
                    key = f"{name} @ {prob.name} @ {start!r} @ {method.value}"
                    out[key] = [command, "--problem", prob.name, "--method", method.value, "--x0", repr(start), *flags]
    for fmt in ("csv", "json"):
        for table in ("1", "2", "all"):
            out[f"bench @ {fmt} @ {table}"] = ["bench", "--format", fmt, "--table", table]
    return out


def run_digest(argv: list[str]) -> str:
    """SHA-256 of the exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cli_digests() -> dict[str, str]:
    return {key: run_digest(argv) for key, argv in commands().items()}


def test_every_cli_output_is_byte_identical():
    want = json.loads(DATA.read_text())
    assert len(want) == 87 * len(CELL_COMMANDS) + 6
    got = cli_digests()
    assert got.keys() == want.keys()
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, changed[:10]


if __name__ == "__main__":
    from pins import check_or_record

    sys.exit(check_or_record(DATA, cli_digests()))
