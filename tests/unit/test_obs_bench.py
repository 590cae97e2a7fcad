"""Unit tests for the unified benchmark runner, against a fake suite."""

import json

from repro.obs.bench import (
    default_bench_dir,
    discover,
    render_results,
    run_bench_file,
    run_benchmarks,
)

PASSING = """
def test_fast():
    assert 1 + 1 == 2
"""

FAILING = """
def test_broken():
    assert False, "deliberately failing"
"""

HANGING = """
import time

def test_hangs(capsys):
    with capsys.disabled():
        print("partial output before the hang", flush=True)
    time.sleep(60)
"""


def fake_suite(tmp_path):
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    (bench_dir / "bench_alpha.py").write_text(PASSING, encoding="utf-8")
    (bench_dir / "bench_beta.py").write_text(FAILING, encoding="utf-8")
    (bench_dir / "not_a_bench.py").write_text(PASSING, encoding="utf-8")
    return bench_dir


class TestDiscovery:
    def test_only_bench_modules_found(self, tmp_path):
        bench_dir = fake_suite(tmp_path)
        assert [path.stem for path in discover(bench_dir)] == [
            "bench_alpha",
            "bench_beta",
        ]

    def test_default_dir_is_the_repo_suite(self):
        bench_dir = default_bench_dir()
        assert bench_dir.name == "benchmarks"
        assert discover(bench_dir), "repo benchmark suite should be discoverable"


class TestRunner:
    def test_report_written_and_failures_reported(self, tmp_path):
        bench_dir = fake_suite(tmp_path)
        report_path = tmp_path / "report.json"
        results, written_to = run_benchmarks(
            bench_dir=bench_dir, quick=True, report_path=report_path
        )
        assert written_to == report_path
        by_name = {result.name: result for result in results}
        assert by_name["bench_alpha"].ok
        assert not by_name["bench_beta"].ok
        assert "deliberately failing" in by_name["bench_beta"].output_tail

        blob = json.loads(report_path.read_text(encoding="utf-8"))
        assert blob["suite"] == "repro-benchmarks"
        assert blob["mode"] == "quick"
        assert blob["ok"] is False
        assert [entry["name"] for entry in blob["benchmarks"]] == [
            "bench_alpha",
            "bench_beta",
        ]
        assert all("wall_seconds" in entry for entry in blob["benchmarks"])

    def test_only_filter(self, tmp_path):
        bench_dir = fake_suite(tmp_path)
        results, _ = run_benchmarks(
            bench_dir=bench_dir,
            only=["alpha"],
            quick=True,
            report_path=tmp_path / "report.json",
        )
        assert [result.name for result in results] == ["bench_alpha"]

        # A selection that matches nothing (a typo) must not pass.
        report_path = tmp_path / "empty.json"
        results, _ = run_benchmarks(
            bench_dir=bench_dir,
            only=["no_such_module"],
            quick=True,
            report_path=report_path,
        )
        assert results == []
        assert json.loads(report_path.read_text(encoding="utf-8"))["ok"] is False

    def test_timeout_is_reported_as_failure(self, tmp_path):
        path = tmp_path / "bench_hang.py"
        path.write_text(HANGING, encoding="utf-8")
        result = run_bench_file(path, quick=True, timeout=10.0)
        assert result.ok is False
        assert result.returncode == -1
        assert "timed out after 10.0s" in result.output_tail
        assert "partial output before the hang" in result.output_tail

    def test_render(self, tmp_path):
        bench_dir = fake_suite(tmp_path)
        results, _ = run_benchmarks(
            bench_dir=bench_dir, quick=True, report_path=tmp_path / "report.json"
        )
        rendered = render_results(results)
        assert "bench_alpha" in rendered
        assert "FAIL" in rendered
        assert render_results([]) == "no benchmark modules found"
