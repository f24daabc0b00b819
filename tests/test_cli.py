import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from irs_sskrpm.cli import main
from conftest import config_path

QUICK = """\
n_t=2
n_r=1
n_x=4
n_y=4
m_rpm=2
d_r=4.0
snr_grid_db=0,20,40
seed=7
trials=2000
"""


@pytest.fixture()
def quick_cfg(tmp_path):
    path = tmp_path / "quick.cfg"
    path.write_text(QUICK)
    return str(path)


def test_validate_shipped_configs(capsys):
    for name in ("aber_n16.cfg", "aber_n32.cfg", "aber_n16_near.cfg",
                 "diversity_nr2.cfg", "diversity_nr3.cfg",
                 "capacity_nr1.cfg", "capacity_nr2.cfg"):
        assert main(["validate", "--config", config_path(name)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("m_rpm=3\n")
    assert main(["validate", "--config", str(bad)]) == 1
    assert "not a power of two" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["aber", "pep"])
def test_overflowing_snr_grid_is_a_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "loud.cfg"
    cfg.write_text("snr_grid_db=0,4000\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "snr_grid_db" in err
    assert "Traceback" not in err


def test_missing_config_file(capsys):
    assert main(["validate", "--config", "/nonexistent.cfg"]) == 1


def test_unknown_subcommand_and_flag(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["aber", "--config", "x", "--bogus"]) == 1


def test_aber_both_csv_contract(tmp_path, quick_cfg):
    out = str(tmp_path / "aber.csv")
    assert main(["aber", "--config", quick_cfg, "--mode", "both", "--out", out]) == 0
    lines = open(out, "rb").read().decode("ascii").split("\n")
    assert lines[0] == "snr_db,aber_analytical,aber_sim,aber_stderr,trials"
    assert len(lines) == 5 and lines[-1] == ""  # 3 rows + trailing newline
    row = lines[1].split(",")
    assert row[0] == "0.0" and row[4] == "2000"
    for cell in row[1:4]:
        assert "e" in cell or "." in cell
        float(cell)
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["command"] == "aber"
    assert manifest["config"]["trials"] == 2000
    assert manifest["config"]["seed"] == 7


def test_aber_analytic_mode_header(tmp_path, quick_cfg):
    out = str(tmp_path / "a.csv")
    assert main(["aber", "--config", quick_cfg, "--mode", "analytic", "--out", out]) == 0
    assert open(out).readline().strip() == "snr_db,aber_analytical"


def test_aber_csv_is_reproducible(tmp_path, quick_cfg, monkeypatch):
    out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    monkeypatch.setenv("IRS_SSKRPM_THREADS", "1")
    assert main(["aber", "--config", quick_cfg, "--mode", "both", "--out", out1]) == 0
    monkeypatch.setenv("IRS_SSKRPM_THREADS", "2")
    assert main(["aber", "--config", quick_cfg, "--mode", "both", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_trials_and_seed_overrides(tmp_path, quick_cfg):
    out1 = str(tmp_path / "s1.csv")
    out2 = str(tmp_path / "s2.csv")
    assert main(["aber", "--config", quick_cfg, "--mode", "sim", "--out", out1,
                 "--trials", "1000", "--seed", "99"]) == 0
    assert main(["aber", "--config", quick_cfg, "--mode", "sim", "--out", out2,
                 "--trials", "1000", "--seed", "100"]) == 0
    m1 = json.load(open(out1 + ".manifest.json"))
    assert m1["config"]["trials"] == 1000 and m1["config"]["seed"] == 99
    assert open(out1).read() != open(out2).read()


def test_capacity_csv(tmp_path, quick_cfg):
    out = str(tmp_path / "cap.csv")
    assert main(["capacity", "--config", quick_cfg, "--mode", "both", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "snr_db,cap_closed,cap_sim,samples"
    last = lines[-1].split(",")
    # top of a 0..40 dB grid sits within 0.05 bits of the 2-bit limit
    assert abs(float(last[1]) - 2.0) < 0.05


def test_pep_table(tmp_path, quick_cfg):
    out = str(tmp_path / "pep.csv")
    assert main(["pep", "--config", quick_cfg, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "snr_db,event,t,t_hat,m,m_hat,pep_exact,pep_chiani"
    kinds = {row.split(",")[1] for row in lines[1:]}
    assert kinds == {"ssk", "rpm", "joint"}
    # 3 SNRs x (2 ssk + 2 rpm + 4 joint) events
    assert len(lines) == 1 + 3 * 8


@pytest.mark.parametrize("argv", [["capacity", "--exact-pep"], ["pep", "--exact-pep"],
                                  ["validate", "--paper-literal-args"], ["validate", "--out", "x"]],
                         ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
def test_subcommands_reject_flags_they_do_not_read(quick_cfg, argv):
    assert main([*argv, "--config", quick_cfg]) == 1


def test_cli_import_loads_no_test_only_dependency():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    probe = ("import sys, irs_sskrpm.cli; "
             "print(sorted({'scipy', 'hypothesis'} & {m.split('.')[0] for m in sys.modules}))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.abspath(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_exact_pep_flag_changes_analytics(tmp_path, quick_cfg):
    out1, out2 = str(tmp_path / "c.csv"), str(tmp_path / "e.csv")
    assert main(["aber", "--config", quick_cfg, "--mode", "analytic", "--out", out1]) == 0
    assert main(["aber", "--config", quick_cfg, "--mode", "analytic", "--out", out2,
                 "--exact-pep"]) == 0
    assert open(out1).read() != open(out2).read()


def _forbid(monkeypatch, *names):
    def forbidden(*args, **kwargs):
        raise AssertionError("computed a quantity the command does not write")
    for name in names:
        monkeypatch.setattr(f"irs_sskrpm.simulate.{name}", forbidden)


@pytest.mark.parametrize("mode", ["sim", "both"])
def test_aber_never_computes_capacity(tmp_path, quick_cfg, monkeypatch, mode):
    _forbid(monkeypatch, "simulate_capacity", "capacity_closed")
    out = str(tmp_path / "a.csv")
    assert main(["aber", "--config", quick_cfg, "--mode", mode, "--out", out]) == 0
    assert len(open(out).read().splitlines()) == 4


def test_capacity_sim_csv(tmp_path, quick_cfg, monkeypatch):
    _forbid(monkeypatch, "simulate_ber", "aber_union")
    out = str(tmp_path / "c.csv")
    assert main(["capacity", "--config", quick_cfg, "--mode", "sim", "--trials", "3000",
                 "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "snr_db,cap_sim,samples"
    assert len(lines) == 4
    caps = []
    for line in lines[1:]:
        snr, cap, samples = line.split(",")
        caps.append(float(cap))
        assert math.isfinite(caps[-1]) and caps[-1] <= math.log2(4) + 1e-12
        assert samples == "3000"
    assert caps == sorted(caps)


def test_bad_thread_count_is_a_config_error(tmp_path, quick_cfg, monkeypatch, capsys):
    monkeypatch.setenv("IRS_SSKRPM_THREADS", "lots")
    assert main(["aber", "--config", quick_cfg, "--mode", "sim",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "IRS_SSKRPM_THREADS" in capsys.readouterr().err


def test_zero_bit_config_has_one_rule(tmp_path, capsys):
    # n_t = m_rpm = 1 carries no bits: every aber mode exits 1 without
    # writing a CSV, while capacity (0 bits/use) and pep (header only) run
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(QUICK.replace("n_t=2", "n_t=1").replace("m_rpm=2", "m_rpm=1"))
    for mode in ("analytic", "sim", "both"):
        out = tmp_path / f"aber_{mode}.csv"
        assert main(["aber", "--config", str(cfg), "--mode", mode, "--trials", "100",
                     "--out", str(out)]) == 1
        assert "nothing to transmit" in capsys.readouterr().err
        assert not out.exists()
    out = tmp_path / "cap.csv"
    assert main(["capacity", "--config", str(cfg), "--mode", "both", "--trials", "100",
                 "--out", str(out)]) == 0
    assert all(row.split(",")[1:3] == ["0.0", "0.0"]
               for row in out.read_text().splitlines()[1:])
    out = tmp_path / "pep.csv"
    assert main(["pep", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text() == "snr_db,event,t,t_hat,m,m_hat,pep_exact,pep_chiani\n"


@pytest.mark.parametrize("mode, grid, pool", [("analytic", "0,20,40", 1), ("sim", "10", 1),
                                              ("sim", "0,20,40", 2)])
def test_manifest_records_the_pool_the_sweep_used(tmp_path, monkeypatch, mode, grid, pool):
    # an analytic sweep opens no pool, a simulating one is clamped to its points
    monkeypatch.setenv("IRS_SSKRPM_THREADS", "2")
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    cfg = tmp_path / "w.cfg"
    cfg.write_text(QUICK.replace("snr_grid_db=0,20,40", f"snr_grid_db={grid}"))
    out = str(tmp_path / "a.csv")
    assert main(["aber", "--config", str(cfg), "--mode", mode, "--trials", "200",
                 "--out", out]) == 0
    with open(out + ".manifest.json") as fh:
        assert json.load(fh)["workers"] == pool


#: The largest grid value `validate` accepts.
TOP_DB = math.nextafter(10.0 * math.log10(sys.float_info.max / 8.0), 0.0)


@pytest.mark.parametrize("argv", [["aber", "--mode", "analytic"],
                                  ["aber", "--mode", "analytic", "--exact-pep"], ["pep"],
                                  ["aber", "--mode", "analytic", "--paper-literal-args"],
                                  ["pep", "--paper-literal-args"],
                                  ["capacity", "--mode", "analytic"]])
def test_analytic_layer_is_finite_where_the_transform_overflows(tmp_path, argv):
    # 4x4 surface, n_r=1, d_r=4: from 3000 dB the Craig transform arguments
    # overflow, and the transform takes its exact limit 0 there; up to the top
    # of the accepted grid the effective power itself stays finite
    cfg = tmp_path / "loud.cfg"
    cfg.write_text(QUICK.replace("snr_grid_db=0,20,40", f"snr_grid_db=0,3000,{TOP_DB!r}"))
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert {row[0] for row in rows} == {"0.0", "3000.0", repr(TOP_DB)}
    values = [float(v) for row in rows for v in (row[-2:] if argv[0] == "pep" else row[1:])]
    assert all(math.isfinite(v) and v >= 0.0 for v in values)
