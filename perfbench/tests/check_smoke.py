"""Smoke test of the benchmark: every workload for one round, untraced and traced.

    python3 -m pytest -q perfbench/tests/check_smoke.py

The file name keeps it out of a plain ``pytest`` run of the repository: it
starts about a hundred subprocesses and takes a couple of minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from run import UNITS as END_TO_END  # noqa: E402
from tracer import TARGETS, UNITS as PER_LAYER  # noqa: E402

WORKLOADS = ("spectrum-sweep", "pump-trace", "cli-pipeline")


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def _assert_result(result: dict, units: dict) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    detail, result = _run(workload, 0)
    _assert_result(result, END_TO_END)
    assert detail["fail_ratio"] == 0
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_wraps_every_name(workload):
    detail, result = _run(workload, 1)
    _assert_result(result, PER_LAYER)
    assert detail["absent"] == []
    assert set(detail["bound"]) == {f"{home}.{attr}" for _, home, attr, _ in TARGETS}
    bound = detail["bound"]
    for module in ("dynamics", "experiments", "cli"):
        assert f"lambda_cpt.{module}" in bound["dynamics.run_cpt_sequence"]
    assert "lambda_cpt.dynamics" in bound["dynamics.expm"]
    assert "lambda_cpt.fitting" in bound["fitting.leastsq"]
    assert "lambda_cpt.cli" in bound["datasets.write_csv"]
    assert "lambda_cpt.cli" in bound["config.load_config"]
    assert detail["traced"]["input_digest"] == detail["untraced"]["input_digest"]


def test_golden_copy_matches_committed_out():
    out = BENCH.parent / "out"
    if not out.is_dir():
        pytest.skip("no out/ in this checkout")
    golden = sorted(p for p in (BENCH / "golden").rglob("*") if p.is_file())
    assert golden
    for path in golden:
        assert path.read_bytes() == (out / path.relative_to(BENCH / "golden")).read_bytes()
