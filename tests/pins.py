"""Script mode of the pin files: check the recorded data, or record it anew.

Each pin file named in ``PIN_FILES``, run as a script, passes what the
program computes now to ``check_or_record``.  Without arguments that
compares it with the data file, prints every key that differs and exits 1
on a mismatch; with ``--record`` it overwrites the data file instead.
Standard library only, so it runs where pytest is not installed.  Run as a
script itself, this file prints the pin files' names, one a line.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# the modules under tests/ whose script mode checks their data file
PIN_FILES = ("test_cli_bytes", "test_corpus_bits", "test_eval_pins", "test_grid_bits", "test_parse_pins")


def _leaves(value, key: str = "") -> dict[str, object]:
    """Every scalar in nested dicts and lists, keyed by its path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {key: value}
    out: dict[str, object] = {}
    for k, v in items:
        out.update(_leaves(v, f"{key} / {k}" if key else str(k)))
    return out


def check_or_record(path: Path, record: dict) -> int:
    """Exit status of the check of ``record`` against ``path``, or of writing it with ``--record``."""
    args = sys.argv[1:]
    if args == ["--record"]:
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return 0
    if args:
        print(f"usage: python {sys.argv[0]} [--record]", file=sys.stderr)
        return 2
    got, want = _leaves(record), _leaves(json.loads(path.read_text()))
    differ = [key for key in {**want, **got} if got.get(key) != want.get(key)]
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(want)} pins in {path.name} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    print(*PIN_FILES, sep="\n")
