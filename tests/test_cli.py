import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from irs_sskrpm import cli
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


def test_validate_warns_on_coincident_hypotheses(tmp_path, capsys):
    # phi_d = 0 puts both antennas on one phase, so hypotheses 2 and 3 repeat
    # 0 and 1 and are never decided; stdout still starts with "ok:"
    assert main(["validate", "--config", config_path("aber_n16.cfg")]) == 0
    assert capsys.readouterr().err == ""
    path = tmp_path / "phi_d0.cfg"
    with open(config_path("aber_n16.cfg")) as fh:
        path.write_text(fh.read().replace("phi_d=0.4174", "phi_d=0"))
    assert main(["validate", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("ok:")
    assert err.startswith("warning: 2 of 4 hypotheses") and "never decided" in err
    # the warning names the distance that remains between the locations
    assert err.rstrip().endswith("smallest nonzero squared pair distance 4")
    # an antenna phase step of one RPM step (pi/2) puts the 16 hypotheses on
    # 4 locations, although rounding keeps every point's float distinct
    path = tmp_path / "on_rpm_steps.cfg"
    path.write_text("n_t=4\nm_rpm=4\ndelta_over_lambda=0.5\nphi_d=0.5235987755982988\n")
    assert main(["validate", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("ok:")
    assert err.startswith("warning: 12 of 16 hypotheses") and "never decided" in err
    assert err.rstrip().endswith("smallest nonzero squared pair distance 2")
    # with one location there is no distance left to report
    path = tmp_path / "one_location.cfg"
    path.write_text("n_t=2\nm_rpm=1\nphi_d=0\n")
    assert main(["validate", "--config", str(path)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: 1 of 2 hypotheses")
    assert err.rstrip().endswith("never decided; all 2 hypotheses share one location")


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


def test_a_directory_for_a_file_is_one_error_line(tmp_path, quick_cfg, capsys):
    # a config or an output path that names a directory: exit 1 with one line on
    # stderr, not a traceback
    for argv in (["validate", "--config", str(tmp_path)],
                 ["aber", "--mode", "analytic", "--config", quick_cfg, "--out", str(tmp_path)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["aber", "capacity", "pep"])
def test_an_unwritable_out_path_fails_before_any_work(tmp_path, quick_cfg, monkeypatch, capsys,
                                                      command):
    # a directory, a missing folder or a manifest path that is a directory: one
    # "file error" line naming the file, exit 1, no sweep or PEP computed and no
    # file created
    def forbidden(*args, **kwargs):
        raise AssertionError("worked before checking the output path")

    monkeypatch.setattr(cli, "run_sweep", forbidden)
    monkeypatch.setattr(cli, "pep_of_event", forbidden)
    (tmp_path / "m.csv.manifest.json").mkdir()
    before = sorted(tmp_path.rglob("*"))
    for out, named in ((tmp_path, tmp_path), (tmp_path / "missing" / "x.csv",) * 2,
                       (tmp_path / "m.csv", tmp_path / "m.csv.manifest.json")):
        argv = [command, "--config", quick_cfg, "--out", str(out)]
        assert main(argv + (["--mode", "sim"] if command != "pep" else [])) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"file error: {named}: ")
    assert sorted(tmp_path.rglob("*")) == before


def test_validate_rejects_an_overflowing_path_loss_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "near.cfg"
    cfg.write_text("d_t=1e-200\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("config error: nu=rho_0*(d_t/d_0)**-eta=inf")


def test_validate_rejects_an_underflowing_path_gain_in_one_line(tmp_path, capsys):
    # each link's loss is a normal float, but nu * nu_r underflows to 0
    cfg = tmp_path / "far.cfg"
    cfg.write_text("d_t=1e20\nd_r=1e130\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("config error: nu*nu_r=0.0 must be a finite normal float")
    assert "d_t=1e+20 and d_r=1e+130" in err


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


SWEEP_HEADERS = {
    ("aber", "analytic"): "snr_db,aber_analytical",
    ("aber", "sim"): "snr_db,aber_sim,aber_stderr,trials",
    ("aber", "both"): "snr_db,aber_analytical,aber_sim,aber_stderr,trials",
    ("capacity", "analytic"): "snr_db,cap_closed",
    ("capacity", "sim"): "snr_db,cap_sim,samples",
    ("capacity", "both"): "snr_db,cap_closed,cap_sim,samples",
}


@pytest.mark.parametrize("command, mode", SWEEP_HEADERS)
def test_sweep_mode_header(tmp_path, quick_cfg, command, mode):
    out = str(tmp_path / "a.csv")
    assert main([command, "--config", quick_cfg, "--mode", mode, "--out", out]) == 0
    assert open(out).readline().strip() == SWEEP_HEADERS[command, mode]


def test_aber_csv_is_reproducible(tmp_path, quick_cfg):
    # a rerun in the same process writes a byte-identical CSV
    out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    assert main(["aber", "--config", quick_cfg, "--mode", "both", "--out", out1]) == 0
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


@pytest.mark.parametrize("command", ["aber", "capacity"])
def test_sweeps_run_in_one_process_whatever_the_environment(tmp_path, quick_cfg, monkeypatch,
                                                            command):
    # no sweep opens a process pool or reads IRS_SSKRPM_THREADS, and the
    # manifest records no worker count
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a sweep opened a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    outputs = []
    for threads in (None, "lots"):
        if threads is None:
            monkeypatch.delenv("IRS_SSKRPM_THREADS", raising=False)
        else:
            monkeypatch.setenv("IRS_SSKRPM_THREADS", threads)
        out = str(tmp_path / f"{command}_{threads}.csv")
        assert main([command, "--config", quick_cfg, "--mode", "both", "--out", out]) == 0
        with open(out + ".manifest.json") as fh:
            assert "workers" not in json.load(fh)
        outputs.append(open(out, "rb").read())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [["aber", "--mode", "sim"], ["capacity", "--mode", "analytic"],
                                  ["pep"]], ids=["aber-sim", "capacity-analytic", "pep"])
def test_manifest_holds_exactly_the_run_settings(tmp_path, quick_cfg, argv):
    # the sidecar's keys are the settings a rerun needs plus its start time;
    # the config snapshot is every SystemConfig field
    from dataclasses import fields

    from irs_sskrpm import SystemConfig

    out = str(tmp_path / "o.csv")
    assert main([*argv, "--config", quick_cfg, "--trials", "100", "--out", out]) == 0
    with open(out + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert set(manifest) == {"tool", "version", "command", "mode", "config", "exact_pep",
                             "paper_literal_args", "draws", "started_utc"}
    assert manifest["command"] == argv[0]
    assert manifest["mode"] == (argv[2] if len(argv) > 2 else None)
    assert set(manifest["config"]) == {f.name for f in fields(SystemConfig)}
    assert manifest["config"]["trials"] == 100


def test_a_second_main_call_builds_no_parser(monkeypatch):
    # the argparse tree is built once per process, on the first call
    import argparse

    argv = ["validate", "--config", config_path("aber_n16.cfg")]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == 0
    assert built == []


def test_a_second_main_call_builds_no_channel(channel_builds, tmp_path, capsys):
    # the channel, its pair tables and the pep layout are built once per geometry and
    # process: the warm calls build none and write and print what the cold ones did
    runs = [["pep"], ["aber", "--mode", "analytic"]]
    outputs, layouts = [], []
    for _ in ("cold", "warm"):
        for i, argv in enumerate(runs):
            out = tmp_path / f"{i}.csv"
            assert main([*argv, "--config", config_path("aber_n16.cfg"), "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        layouts.append(cli._pep_layout.cache_info().misses)
    assert len(channel_builds) == 1 and layouts == [1, 1]
    assert outputs[2:] == outputs[:2]


@pytest.mark.parametrize("argv, draws", [
    (["aber", "--mode", "sim"], {"chunk_trials": 8192, "shared_across_points": True}),
    (["aber", "--mode", "both"], {"chunk_trials": 8192, "shared_across_points": True}),
    (["capacity", "--mode", "sim"], {"chunk_trials": 8192, "shared_across_points": False}),
    (["aber", "--mode", "analytic"], None), (["pep"], None)])
def test_manifest_records_how_the_simulated_rows_draw(tmp_path, quick_cfg, argv, draws):
    # BER chunks are shared by every SNR point, capacity chunks are keyed per
    # point, and a run without simulated rows draws nothing
    out = str(tmp_path / "o.csv")
    assert main([*argv, "--config", quick_cfg, "--trials", "100", "--out", out]) == 0
    with open(out + ".manifest.json") as fh:
        assert json.load(fh)["draws"] == draws


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


def test_numerical_failure_names_the_snr_values_of_its_block(tmp_path, quick_cfg, monkeypatch,
                                                             capsys):
    # a sweep is evaluated in one call per column over its grid: a failure
    # names every SNR value of the sweep
    from irs_sskrpm import metrics

    def failing(*args):
        raise metrics.NumericalError("Chiani closed-form PEP is not finite")

    monkeypatch.setattr(metrics, "pep_chiani", failing)
    assert main(["aber", "--config", quick_cfg, "--mode", "analytic",
                 "--out", str(tmp_path / "a.csv")]) == 2
    assert ("numerical failure: sweep points snr_db=[0.0, 20.0, 40.0]: Chiani closed-form PEP"
            in capsys.readouterr().err)
    assert not (tmp_path / "a.csv").exists()  # a run that exits 2 writes nothing


#: -300 dB to 60 dB: effective powers from about 1e-32 to 4e6
LOW_TO_HIGH = "snr_grid_db=-300,-140,-50,-30,-20,0,60\n"
SMALL_STEP_CFG = ("n_t=2\nm_rpm=1\nn_r=1\nk_r=0.5\ndelta_over_lambda=0.05078125\n"
                  "phi_d=0.5625\n")


@pytest.mark.parametrize("scenario", ["small_step", "stress_nt8m8"])
@pytest.mark.parametrize("argv", [["aber", "--mode", "analytic", "--exact-pep"], ["pep"]])
def test_exact_pep_converges_at_small_effective_powers(tmp_path, argv, scenario):
    # pair distances 0.0289 (small_step) and 0.0071 (stress_nt8m8): the Craig
    # check passes at every point down to -300 dB, and every PEP is in (0, 1/2]
    if scenario == "stress_nt8m8":
        stress = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "scenarios",
                              "stress_nt8m8.cfg")
        with open(stress) as f:
            text = "".join(line for line in f if not line.startswith("snr_grid_db="))
    else:
        text = SMALL_STEP_CFG
    cfg = tmp_path / f"{scenario}.cfg"
    cfg.write_text(text + LOW_TO_HIGH)
    out = tmp_path / "x.csv"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert sorted({float(row[0]) for row in rows}) == [-300, -140, -50, -30, -20, 0, 60]
    values = [float(v) for row in rows for v in (row[-2:] if argv[0] == "pep" else row[1:])]
    # the union bound sums Hamming-weighted PEPs, so only a lone pair keeps it below 1/2
    top = 0.5 if argv[0] == "pep" or scenario == "small_step" else math.inf
    assert values and all(0.0 < v <= top for v in values)
