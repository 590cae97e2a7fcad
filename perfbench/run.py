"""The repository's benchmark: one workload, one process, one thread.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {wide,deep,explore} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that reports the per-layer metrics. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric with its unit and sample count. The exit code is 0
only if every verdict, negative control and exactness check held.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("wide", "deep", "explore")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the library sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
