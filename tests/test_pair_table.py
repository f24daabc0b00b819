"""The one unit law at the effective power p_s*|c_i - c_j|^2 against the
per-event references: `unit_moments` scaled by each pair's distance against
`moments_ssk/rpm/joint`, array powers against scalar calls, and the
union-bound components, closed-form capacity and `pep` CSV against the
loops in `oracles`, plus the Craig convergence check on scalar and array
powers and on the commands that print an exact PEP."""

import re
import tempfile
import tracemalloc
from dataclasses import fields, replace
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from irs_sskrpm import (NumericalError, SystemConfig, aber_union_terms, capacity_closed,
                        load_config, make_channel, moments_joint, moments_rpm, moments_ssk,
                        pep_of_event, unit_moments, validate)
from irs_sskrpm import channel, metrics
from irs_sskrpm.cli import _fmt, main
from conftest import config_path
from test_channel import ON_RPM_STEPS, STRESS_CONFIG, constellation_configs
from test_simulate import sweep_configs
from oracles import (aber_union_terms_reference, aber_union_terms_table_reference,
                     capacity_closed_reference, pep_csv_reference, pep_rows_reference)

GRID = (0.0, 10.0, 20.0, 30.0, 40.0)

CASES = {
    "aber_n16": lambda: load_config(config_path("aber_n16.cfg")),
    "nt4_m4_nr2": lambda: replace(SystemConfig(), n_t=4, m_rpm=4, n_r=2, snr_grid_db=GRID),
    # phi_d = 0: every antenna has the same steering entry, so the
    # antenna-only hypotheses coincide
    "coincident": lambda: replace(SystemConfig(), phi_d=0.0, snr_grid_db=GRID),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    cfg = validate(CASES[request.param]())
    return cfg, make_channel(cfg)


def _write_cfg(path, cfg: SystemConfig) -> str:
    def cell(v):
        return ",".join(map(repr, v)) if isinstance(v, tuple) else repr(v)
    path.write_text("".join(f"{f.name}={cell(getattr(cfg, f.name))}\n" for f in fields(cfg)))
    assert load_config(str(path)) == cfg
    return str(path)


def test_pair_moments_match_per_event_moments(case):
    # |c_i - c_j|^2 times the unit law against the exact N-dimensional
    # direction of each event
    cfg, chan = case
    unit = unit_moments(chan)
    d, index = chan.distances
    k = cfg.n_t * cfg.m_rpm
    ref_s, ref_sigma = np.zeros((k, k)), np.zeros((k, k))
    for i, j in permutations(range(k), 2):
        (t, m), (t_hat, m_hat) = divmod(i, cfg.m_rpm), divmod(j, cfg.m_rpm)
        if m == m_hat:
            mom = moments_ssk(chan.h, chan.g_bar, cfg, t + 1, t_hat + 1)
        elif t == t_hat:
            mom = moments_rpm(chan.h, chan.g_bar, cfg, t + 1, m + 1, m_hat + 1)
        else:
            mom = moments_joint(chan.h, chan.g_bar, cfg, t + 1, t_hat + 1, m + 1, m_hat + 1)
        ref_s[i, j], ref_sigma[i, j] = mom.s_sq, mom.sigma_sq
    off = ~np.eye(k, dtype=bool)
    assert unit.n_r == cfg.n_r
    np.testing.assert_allclose((d[index] * unit.s_sq)[off], ref_s[off], rtol=1e-12, atol=0)
    np.testing.assert_allclose((d[index] * unit.sigma_sq)[off], ref_sigma[off],
                               rtol=1e-12, atol=0)
    assert np.all(np.diff(d) > 0) and np.all(d[np.diag(index)] == 0)


def test_array_powers_match_scalar_calls(case):
    cfg, chan = case
    unit = unit_moments(chan)
    d, _ = chan.distances
    for snr_db in cfg.snr_grid_db:
        powers = 10.0 ** (snr_db / 10.0) * d
        v = pep_of_event(unit, powers)
        assert v.exact.shape == v.chiani.shape == d.shape
        for p, exact, chiani in zip(powers, v.exact, v.chiani):
            ref = pep_of_event(unit, float(p))
            assert exact == pytest.approx(ref.exact, rel=1e-14, abs=0)
            assert chiani == pytest.approx(ref.chiani, rel=1e-14, abs=0)


def test_a_call_over_the_grid_is_bitwise_the_scalar_calls(case):
    # each power's union terms and capacity are its own 1-D sums and its own
    # dot product, never one reduction over all the powers' rows
    cfg, chan = case
    p = 10.0 ** (np.array(cfg.snr_grid_db) / 10.0)
    for column in (lambda p: capacity_closed(chan, cfg, p),
                   lambda p: aber_union_terms(chan, cfg, p),
                   lambda p: aber_union_terms(chan, cfg, p, exact_pep=True)):
        want = np.stack([np.array(column(float(v))) for v in p], axis=-1)
        got = np.array(column(p))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


#: Powers of the union-bound oracle test: zero and -30 to 60 dB.
UNION_POWERS = st.one_of(st.just(0.0), st.floats(-30.0, 60.0).map(lambda db: 10.0 ** (db / 10.0)))


@settings(max_examples=30, deadline=None)
@example(cfg=validate(load_config(STRESS_CONFIG)), powers=[1.0, 10.0, 1e3, 1e6, 0.0])
@example(cfg=validate(CASES["coincident"]()), powers=[0.0, 1.0, 1e3])
@example(cfg=validate(ON_RPM_STEPS), powers=[1e-3, 3.0, 1e5])
@given(cfg=sweep_configs(), powers=st.lists(UNION_POWERS, min_size=1, max_size=6))
def test_union_terms_are_bitwise_the_pair_table_sum(cfg, powers):
    # one gather per pair class and 1-D sums per power against the (K, K) table
    # compressed through the class masks: the same terms in the same order, so
    # the same bits, for Chiani and exact PEPs, scalar and array powers
    assume(cfg.bits_total > 0)
    chan = make_channel(cfg)
    for p_s in (powers[0], np.array(powers), np.resize(powers, (2, 2))):
        for exact in (False, True):
            for got, want in zip(aber_union_terms(chan, cfg, p_s, exact),
                                 aber_union_terms_table_reference(chan, cfg, p_s, exact)):
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("lit", [False, True])
def test_union_terms_match_per_event_reference(case, lit):
    cfg, chan = case
    for snr_db in cfg.snr_grid_db:
        p_s = (2.0 if lit else 1.0) * 10.0 ** (snr_db / 10.0)
        for exact in (False, True):
            np.testing.assert_allclose(
                aber_union_terms(chan, cfg, p_s, exact),
                aber_union_terms_reference(chan, cfg, p_s, exact), rtol=1e-12, atol=0)


def test_capacity_closed_matches_per_event_reference(case):
    cfg, chan = case
    for snr_db in cfg.snr_grid_db:
        p_s = 10.0 ** (snr_db / 10.0)
        assert capacity_closed(chan, cfg, p_s) == pytest.approx(
            capacity_closed_reference(chan, cfg, p_s), rel=1e-12, abs=0)


@pytest.mark.parametrize("lit", [False, True])
def test_pep_csv_matches_per_event_reference(case, lit, tmp_path):
    cfg, chan = case
    out = tmp_path / "pep.csv"
    argv = ["pep", "--config", _write_cfg(tmp_path / "case.cfg", cfg), "--out", str(out)]
    assert main(argv + (["--paper-literal-args"] if lit else [])) == 0
    lines = out.read_text(encoding="ascii").splitlines()
    assert lines[0] == "snr_db,event,t,t_hat,m,m_hat,pep_exact,pep_chiani"
    ref = pep_rows_reference(chan, cfg, lit)
    assert len(lines) == 1 + len(ref)
    for line, row in zip(lines[1:], ref):
        cells = line.split(",")
        assert cells[:6] == [_fmt(v) for v in row[:6]]
        assert all(re.fullmatch(r"([1-9][0-9]*)?", c) for c in cells[2:6]), line
        np.testing.assert_allclose([float(c) for c in cells[6:]], row[6:], rtol=1e-12, atol=0)


def test_coincident_hypotheses_have_exact_half_and_chiani_third():
    cfg = validate(CASES["coincident"]())
    chan = make_channel(cfg)
    d, index = chan.distances
    v = pep_of_event(unit_moments(chan), 1e3 * d)
    exact, chiani = v.exact[index], v.chiani[index]
    t, m = np.divmod(np.arange(cfg.n_t * cfg.m_rpm), cfg.m_rpm)
    antenna_only = (t[:, None] != t[None, :]) & (m[:, None] == m[None, :])
    assert antenna_only.any()
    assert np.all(d[index[antenna_only]] == 0)
    np.testing.assert_allclose(exact[antenna_only], 0.5, rtol=1e-12, atol=0)
    np.testing.assert_allclose(chiani[antenna_only], 1.0 / 3.0, rtol=1e-12, atol=0)
    assert np.all(exact[~antenna_only & (t[:, None] != t[None, :])] < 0.5)


def test_craig_convergence_failure_is_reported(monkeypatch, tmp_path, capsys):
    cfg = validate(SystemConfig())
    chan = make_channel(cfg)
    cfg_path = _write_cfg(tmp_path / "default.cfg", cfg)
    monkeypatch.setattr(metrics, "GL_ORDER", 4)
    with pytest.raises(NumericalError, match="did not converge"):
        pep_of_event(moments_ssk(chan.h, chan.g_bar, cfg, 1, 2), 100.0)
    with pytest.raises(NumericalError, match="did not converge"):
        pep_of_event(unit_moments(chan), 100.0 * chan.distances[0])
    assert main(["pep", "--config", cfg_path, "--out", str(tmp_path / "pep.csv")]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("m_rpm", [1, 2, 8])
@pytest.mark.parametrize("n_t", [1, 2, 8])
def test_pep_csv_is_the_row_by_row_table(n_t, m_rpm, tmp_path):
    # the template fill, byte for byte, against one formatted line per event
    # and SNR point; n_t = m_rpm = 1 has no event and writes the header only
    cfg = validate(replace(SystemConfig(), n_t=n_t, m_rpm=m_rpm, n_r=2,
                           snr_grid_db=(0.0, 12.5, 30.0)))
    cfg_path, out = _write_cfg(tmp_path / "case.cfg", cfg), tmp_path / "pep.csv"
    for lit in (False, True):
        argv = ["pep", "--config", cfg_path, "--out", str(out)]
        assert main(argv + (["--paper-literal-args"] if lit else [])) == 0
        assert out.read_text(encoding="ascii") == pep_csv_reference(cfg, lit)


@pytest.mark.parametrize("grid", [(), (-3.5,)], ids=["no-point", "one-point"])
@pytest.mark.parametrize("n_t, m_rpm", [(2, 1), (1, 2)])
def test_pep_csv_is_the_row_by_row_table_at_its_edges(n_t, m_rpm, grid, tmp_path, capsys):
    # two rows, the fewest of a table that has any, on one SNR point and on none
    # (header only): the fill's leading SNR cell and its trimmed last row meet
    cfg = validate(replace(SystemConfig(), n_t=n_t, m_rpm=m_rpm, snr_grid_db=grid))
    cfg_path, out = _write_cfg(tmp_path / "case.cfg", cfg), tmp_path / "pep.csv"
    for lit in (False, True):
        argv = ["pep", "--config", cfg_path, "--out", str(out)]
        assert main(argv + (["--paper-literal-args"] if lit else [])) == 0
        text = out.read_text(encoding="ascii")
        assert text == pep_csv_reference(cfg, lit) and text.count("\n") == 1 + 2 * len(grid)
        assert capsys.readouterr().out == f"wrote {out} ({2 * len(grid)} rows)\n"


#: SNR grids of 1 to 5 values: negative, fractional and tiny ones among them,
#: some of them repeated (which `validate` rejects: the grid is strictly increasing).
SNR_GRIDS = st.lists(st.one_of(st.sampled_from([-2.5, 0.001, -10.0, 0.0, 17.5]),
                               st.floats(-20.0, 60.0)), min_size=1, max_size=5).map(sorted)


@settings(max_examples=60, deadline=None)
@given(cfg=constellation_configs(), grid=SNR_GRIDS, lit=st.booleans())
@example(cfg=validate(ON_RPM_STEPS), grid=[-2.5, 0.001, 0.001], lit=False)
@example(cfg=validate(replace(SystemConfig(), n_t=8, m_rpm=8, phi_d=0.0)), grid=[-2.5, 0.001],
         lit=True)
def test_pep_csv_is_the_row_by_row_table_on_any_constellation(cfg, grid, lit):
    # the template fill against one formatted line per event and SNR point, byte
    # for byte; a grid with a repeated value is refused and writes no table
    with tempfile.TemporaryDirectory() as tmp:
        case = replace(cfg, snr_grid_db=tuple(grid))
        out = Path(tmp) / "pep.csv"
        argv = ["pep", "--config", _write_cfg(Path(tmp) / "case.cfg", case), "--out", str(out)]
        code = main(argv + (["--paper-literal-args"] if lit else []))
        if len(set(grid)) < len(grid):
            assert code == 1 and not out.exists()
            return
        try:
            expected = pep_csv_reference(validate(case), lit)
        except NumericalError:
            assert code == 2
            return
        assert code == 0
        assert out.read_text(encoding="ascii") == expected


def test_pep_writes_its_table_in_pieces():
    # the per-point bodies go to the file as they are: the traced peak of one
    # call stays within 3 times the CSV, where one joined body, its copy with
    # the header and its encoding took 4.7 times
    cfg = validate(replace(load_config(STRESS_CONFIG), snr_grid_db=(0.0, 10.0, 20.0)))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "pep.csv"
        argv = ["pep", "--config", _write_cfg(Path(tmp) / "stress.cfg", cfg), "--out", str(out)]
        assert main(argv) == 0  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * out.stat().st_size


def test_default_aber_runs_no_quadrature(monkeypatch, tmp_path, capsys):
    # the default union bound prints the Chiani closed form, so it never evaluates
    # the Craig integral and cannot fail on it; --exact-pep still runs the
    # order-doubling check and fails closed
    cfg_path = _write_cfg(tmp_path / "default.cfg", validate(SystemConfig()))
    argv = ["aber", "--config", cfg_path, "--mode", "analytic", "--out", str(tmp_path / "a.csv")]

    def forbidden(*args):
        raise AssertionError("the Craig integral was evaluated")

    with monkeypatch.context() as patch:
        patch.setattr(metrics, "_craig_at_order", forbidden)
        assert main(argv) == 0
    monkeypatch.setattr(metrics, "GL_ORDER", 4)
    assert main(argv) == 0
    assert main(argv + ["--exact-pep"]) == 2
    assert "did not converge" in capsys.readouterr().err


def test_pep_rpm_rows_read_the_pair_index_at_every_antenna(tmp_path):
    # n_t = 8: a phase error m -> m_hat has the same pair index at every
    # antenna t, and its row is bitwise the PEP read there
    cfg = validate(replace(SystemConfig(), n_t=8, m_rpm=8, n_x=8, n_y=8, n_r=4,
                           snr_grid_db=(0.0, 10.0, 20.0)))
    chan = make_channel(cfg)
    out = tmp_path / "pep.csv"
    assert main(["pep", "--config", _write_cfg(tmp_path / "nt8.cfg", cfg), "--out", str(out)]) == 0
    d, index = chan.distances
    unit, k = unit_moments(chan), cfg.m_rpm
    rows = [line.split(",") for line in out.read_text().splitlines() if ",rpm," in line]
    assert len(rows) == len(cfg.snr_grid_db) * k * (k - 1)
    for snr, _, _, _, m, m_hat, exact, chiani in rows:
        v = pep_of_event(unit, 10.0 ** (float(snr) / 10.0) * d)
        for t in range(cfg.n_t):
            at = index[t * k + int(m) - 1, t * k + int(m_hat) - 1]
            assert [exact, chiani] == [repr(float(v.exact[at])), repr(float(v.chiani[at]))]


@pytest.mark.parametrize("command", ["aber", "capacity"])
@pytest.mark.parametrize("mode", ["analytic", "both"])
def test_a_sweep_builds_its_pair_classes_once(command, mode, cold_caches, tmp_path):
    # the pair classes, and the joint distances read from them, depend on neither
    # the SNR nor the mode, and the one channel of the geometry holds them: from cold
    # caches, a sweep builds one channel, so a 21-point sweep builds the classes as
    # often as a 2-point one, and --mode both as often as one column
    full = validate(load_config(config_path("aber_n16.cfg")))
    assert len(full.snr_grid_db) == 21
    for cfg in (replace(full, snr_grid_db=full.snr_grid_db[:2]), full):
        cold_caches()
        assert main([command, "--config", _write_cfg(tmp_path / "s.cfg", cfg), "--mode", mode,
                     "--trials", "100", "--out", str(tmp_path / "s.csv")]) == 0
        assert channel._channel.cache_info().misses == 1
