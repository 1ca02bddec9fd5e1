"""Golden outputs recorded from the program at the commit that added the
benchmark: the ``twopoint bench --format csv`` bytes, and for each workload
the outcome label, iteration count and record digest of every solver run,
at the default seed and at one held-out seed.

Record them again with ``python3 bench/goldens.py`` only when a change is
meant to alter the program's output, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DIR = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 1
HELD_OUT_SEED = 97  # never used while tuning the benchmark
BENCH_ARGV = ("bench", "--format", "csv")


def key(workload, seed: int) -> str:
    return str(seed) if workload.seeded else "all"


def load(name: str) -> dict[str, list]:
    return json.loads((DIR / f"{name}.json").read_text(encoding="utf-8"))


def bench_csv() -> str:
    return (DIR / "bench.csv").read_text(encoding="utf-8")


def entry(solves) -> list[list]:
    """The golden form of one operation's solver runs."""
    return [[s.label, s.iterations, s.digest] for s in solves]


def _record() -> None:
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from bench import workloads

    DIR.mkdir(exist_ok=True)
    code, text, _ = workloads.capture(BENCH_ARGV)
    if code != 0:
        raise SystemExit(f"twopoint bench exited {code}")
    (DIR / "bench.csv").write_text(text, encoding="utf-8")
    for workload in workloads.WORKLOADS.values():
        data = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            if key(workload, seed) in data:
                continue
            inputs = workload.build(seed)
            data[key(workload, seed)] = [entry(workload.summarize(inp, workload.run(inp))) for inp in inputs]
        (DIR / f"{workload.name}.json").write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"recorded {workload.name}: {', '.join(f'{k}: {len(v)} ops' for k, v in data.items())}")


if __name__ == "__main__":
    _record()
