"""Smoke test of the benchmark: every workload at n = 1000 for one second,
and a run against a tampered reference, which must end and report failures.

    python3 -m pytest perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_smoke_prints_every_metric_and_fails_nothing(workload, trace):
    lines, result = smoke(BENCH, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
        assert any(line.split()[:1] == [name] for line in lines), name
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert failed_frac(lines) == 0.0


@pytest.mark.parametrize("trace", [0, 1])
def test_mismatching_reference_ends_the_run_with_failures(tmp_path, trace):
    """Every claw fit mismatches a tampered reference: the run must still end,
    count each mismatch and report correct false, without a claw median."""
    bench = tmp_path / "perfbench"
    shutil.copytree(BENCH, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    for name in ("src", "tables"):
        (tmp_path / name).symlink_to(BENCH.parent / name, target_is_directory=True)
    ref = bench / "refs" / "fit-30k-n1000.json"
    refs = json.loads(ref.read_text())
    for item in refs["items"]["claw"]:
        item["cuts"][1] += 1
    ref.write_text(json.dumps(refs))

    lines, result = smoke(bench, "fit-30k", trace)
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert failed_frac(lines) == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)
    if not trace:
        assert "b_median_s" not in result["metrics"]
        assert "a_median_s" in result["metrics"]


def smoke(bench: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--smoke", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def failed_frac(lines: list[str]) -> float:
    frac = [line.split() for line in lines if line.split()[:1] == ["failed_frac"]]
    assert frac
    return float(frac[0][1])
