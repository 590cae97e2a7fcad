"""Unified benchmark runner (``python -m repro bench``).

Executes the ``benchmarks/bench_*.py`` suite — each file is a
pytest-benchmark module — one pytest subprocess per file, and collects
the results into a single machine-readable report
(``BENCH_observability.json`` by default): per benchmark, the file,
wall time, pass/fail status, and the key metric (mean seconds per
round) pytest-benchmark measured.

The subprocess-per-file shape is deliberate: benchmark modules print
comparison tables and may mutate process-global registries, so
isolation keeps one module's state (and one module's failure) from
leaking into the next.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

DEFAULT_REPORT = "BENCH_observability.json"


@dataclass
class BenchResult:
    """Outcome of one ``bench_*.py`` module."""

    name: str
    path: str
    ok: bool
    wall_seconds: float
    returncode: int
    #: Per-benchmark key metric: {test name: mean seconds per round}.
    means: dict[str, float] = field(default_factory=dict)
    output_tail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "path": self.path,
            "ok": self.ok,
            "wall_seconds": round(self.wall_seconds, 4),
            "returncode": self.returncode,
            "means": {name: mean for name, mean in sorted(self.means.items())},
        }


def discover(bench_dir: Path) -> list[Path]:
    """The benchmark modules under *bench_dir*, sorted by name."""
    return sorted(bench_dir.glob("bench_*.py"))


def default_bench_dir() -> Path:
    """The repo's ``benchmarks/`` directory, located relative to the package."""
    import repro

    return Path(repro.__file__).resolve().parents[2] / "benchmarks"


def _pythonpath() -> str:
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH", "")
    return f"{src}:{existing}" if existing else src


def run_bench_file(path: Path, quick: bool = False, timeout: float = 900.0) -> BenchResult:
    """Run one benchmark module in a pytest subprocess."""
    name = path.stem
    env = dict(os.environ, PYTHONPATH=_pythonpath())
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
        json_path = Path(scratch) / "benchmark.json"
        command = [
            sys.executable,
            "-m",
            "pytest",
            str(path),
            "-q",
            "-p",
            "no:cacheprovider",
        ]
        if quick:
            # One round per benchmark: correctness smoke, not timing.
            command.append("--benchmark-disable")
        else:
            command.append(f"--benchmark-json={json_path}")
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                command,
                capture_output=True,
                text=True,
                timeout=timeout,
                check=False,
                env=env,
            )
            returncode = proc.returncode
            output = proc.stdout + proc.stderr
        except subprocess.TimeoutExpired as exc:
            returncode = -1
            # TimeoutExpired carries the captured output as bytes even
            # under text=True.
            partial = (exc.stdout or b"").decode("utf-8", errors="replace")
            output = f"timed out after {timeout}s\n" + partial
        wall = time.perf_counter() - started

        means: dict[str, float] = {}
        if json_path.exists():
            try:
                blob = json.loads(json_path.read_text(encoding="utf-8"))
                for entry in blob.get("benchmarks", []):
                    means[entry["name"]] = entry["stats"]["mean"]
            except (json.JSONDecodeError, KeyError):
                pass
    return BenchResult(
        name=name,
        path=str(path),
        ok=returncode == 0,
        wall_seconds=wall,
        returncode=returncode,
        means=means,
        output_tail="\n".join(output.splitlines()[-12:]),
    )


def run_benchmarks(
    bench_dir: Optional[Path] = None,
    only: Optional[Sequence[str]] = None,
    quick: bool = False,
    report_path: Optional[Path] = None,
    progress=None,
) -> tuple[list[BenchResult], Path]:
    """Run the suite and write the JSON report; returns (results, report path).

    *only* filters by substring match against module names; *progress*
    (if given) is called with each module name before it runs.
    """
    bench_dir = bench_dir or default_bench_dir()
    files = discover(bench_dir)
    if only:
        files = [
            path
            for path in files
            if any(fragment in path.stem for fragment in only)
        ]
    results = []
    for path in files:
        if progress is not None:
            progress(path.stem)
        results.append(run_bench_file(path, quick=quick))
    report_path = report_path or (bench_dir.parent / DEFAULT_REPORT)
    report = {
        "suite": "repro-benchmarks",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "benchmarks": [result.to_json() for result in results],
        "ok": bool(results) and all(result.ok for result in results),
    }
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return results, report_path


def render_results(results: Sequence[BenchResult]) -> str:
    """A terminal table of the suite outcome."""
    if not results:
        return "no benchmark modules found"
    width = max(len(result.name) for result in results)
    lines = [f"{'module':<{width}}  {'status':<6} {'wall':>8}  key metric (mean s/round)"]
    lines.append("-" * (width + 50))
    for result in results:
        if result.means:
            best = min(result.means.items(), key=lambda item: item[1])
            metric = f"{best[1]:.6f} ({best[0]})"
        else:
            metric = "-"
        status = "ok" if result.ok else "FAIL"
        lines.append(
            f"{result.name:<{width}}  {status:<6} {result.wall_seconds:>7.2f}s  {metric}"
        )
    return "\n".join(lines)


__all__ = [
    "BenchResult",
    "DEFAULT_REPORT",
    "default_bench_dir",
    "discover",
    "render_results",
    "run_bench_file",
    "run_benchmarks",
]
