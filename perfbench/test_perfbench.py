"""Tests of the benchmark itself, on tiny trial counts (--quick).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = HERE.parent, script: Path = HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_quick_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                  "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    lines = [line.split() for line in proc.stdout.splitlines()]
    for m in spec:
        assert [m["name"], m["unit"]] in ([w[0], w[-1]] for w in lines if len(w) == 3)


def test_every_spec_workload_exists():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_out_of_bracket_value_fails_the_check():
    bracket = [(1e-3, 2e-3)]
    row = {"snr_db": 20.0, "aber_sim": 1.5e-3, "aber_stderr": 1e-4, "trials": 32768.0}
    assert workloads.check_aber_sim([row], (20,), 32768, bracket) == []
    for bad in (1e-2, 1e-5):
        problems = workloads.check_aber_sim([dict(row, aber_sim=bad)], (20,), 32768, bracket)
        assert len(problems) == 1 and "outside" in problems[0]


def test_out_of_bracket_value_counts_as_failed_op(monkeypatch):
    pkg = run._import_package()
    monkeypatch.setattr(pkg.simulate, "simulate_ber", lambda *a, **k: (0.49, 1e-4))
    result = run.measure("sim_aber_n32", seed=7, seconds=0.0, trace=False, quick=True)
    passes = len(result["pass_times_s"])
    assert result["attempted"] == passes + 1          # one set-up launch
    assert result["failed"] == passes and not result["correct"]
    assert any("outside" in p for p in result["problems"])


def test_pass_time_is_rescaled_to_the_reference_speed(monkeypatch, tmp_path):
    pkg = run._import_package()
    plan = workloads.WORKLOADS["analytic_nt8m8"](7, tmp_path, True)
    speeds = iter([1.0, 3.0, 1.0])             # before, between and after the two ops
    monkeypatch.setattr(run, "calibration_seconds", lambda: next(speeds) * run.CAL_REF_S)
    ticks = iter([0.0, 2.0, 2.0, 3.0])          # the aber op takes 2 s, the pep op 1 s
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(ticks))
    seconds, ref_seconds, problems, _, _ = run.run_pass(pkg, plan)
    assert problems == [[], []]
    assert seconds == 3.0 and ref_seconds == pytest.approx(2.0 / 2.0 + 1.0 / 2.0)


def test_capacity_gap_beyond_tolerance_fails():
    refs = [(4.0, 0.01)]
    row = {"snr_db": 10.0, "cap_sim": 4.02, "samples": 4096.0}
    assert workloads.check_capacity_sim([row], (10,), 4096, 64, refs) == []
    assert workloads.check_capacity_sim([dict(row, cap_sim=4.06)], (10,), 4096, 64, refs)
    assert workloads.check_capacity_sim([dict(row, cap_sim=6.5)], (10,), 4096, 64, refs)


def test_pep_rising_in_snr_fails():
    rows = [{"snr_db": s, "event": "ssk", "t": 1.0, "t_hat": 2.0, "m": "", "m_hat": "",
             "pep_exact": p, "pep_chiani": p} for s, p in ((0.0, 0.1), (10.0, 0.2))]
    assert workloads.check_pep(rows, (0, 10), 1)
    rows[1]["pep_exact"] = rows[1]["pep_chiani"] = 0.05
    assert workloads.check_pep(rows, (0, 10), 1) == []


def test_stress_scenario_minimum_distance():
    run._import_package()
    from irs_sskrpm.config import load_config
    cfg = load_config(str(workloads.SCENARIOS / "stress_nt8m8.cfg"))
    assert workloads.min_constellation_distance(cfg) == pytest.approx(0.0846, abs=1e-4)
    assert workloads.event_count(cfg) == 56 + 56 + 56 * 56


def test_parse_importtime():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:      1000 |       1500 |   numpy.core\n"
              "import time:      2000 |       4000 | numpy\n"
              "import time:       300 |        300 |     scipy.special\n"
              "import time:        50 |        400 |   irs_sskrpm.ncx2\n")
    assert run.parse_importtime(stderr) == pytest.approx(
        {"setup.import_numpy_s": 3e-3, "setup.import_scipy_s": 3e-4,
         "setup.import_pkg_self_s": 5e-5})


def test_fails_without_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "sim_aber_n32", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
