"""The one unit law at the effective power p_s*|c_i - c_j|^2 against the
per-event references: `unit_moments` scaled by each pair's distance against
`moments_ssk/rpm/joint`, array powers against scalar calls, and the
union-bound components, closed-form capacity and `pep` CSV against the
loops in `oracles`, plus the Craig convergence check on scalar and array
powers."""

import re
from dataclasses import fields, replace
from itertools import permutations

import numpy as np
import pytest

from irs_sskrpm import (NumericalError, SystemConfig, aber_union_terms, capacity_closed,
                        load_config, make_channel, moments_joint, moments_rpm, moments_ssk,
                        pep_of_event, unit_moments, validate)
from irs_sskrpm import metrics
from irs_sskrpm.cli import _fmt, main
from conftest import config_path
from oracles import (aber_union_terms_reference, capacity_closed_reference,
                     pep_rows_reference)

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
    d, index = chan.distances()
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
    d, _ = chan.distances()
    for snr_db in cfg.snr_grid_db:
        powers = 10.0 ** (snr_db / 10.0) * d
        v = pep_of_event(unit, powers)
        assert v.exact.shape == v.chiani.shape == d.shape
        for p, exact, chiani in zip(powers, v.exact, v.chiani):
            ref = pep_of_event(unit, float(p))
            assert exact == pytest.approx(ref.exact, rel=1e-14, abs=0)
            assert chiani == pytest.approx(ref.chiani, rel=1e-14, abs=0)


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
    d, index = chan.distances()
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
        pep_of_event(unit_moments(chan), 100.0 * chan.distances()[0])
    assert main(["pep", "--config", cfg_path, "--out", str(tmp_path / "pep.csv")]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_pep_rpm_rows_read_the_pair_index_at_every_antenna(tmp_path):
    # n_t = 8: a phase error m -> m_hat has the same pair index at every
    # antenna t, and its row is bitwise the PEP read there
    cfg = validate(replace(SystemConfig(), n_t=8, m_rpm=8, n_x=8, n_y=8, n_r=4,
                           snr_grid_db=(0.0, 10.0, 20.0)))
    chan = make_channel(cfg)
    out = tmp_path / "pep.csv"
    assert main(["pep", "--config", _write_cfg(tmp_path / "nt8.cfg", cfg), "--out", str(out)]) == 0
    d, index = chan.distances()
    unit, k = unit_moments(chan), cfg.m_rpm
    rows = [line.split(",") for line in out.read_text().splitlines() if ",rpm," in line]
    assert len(rows) == len(cfg.snr_grid_db) * k * (k - 1)
    for snr, _, _, _, m, m_hat, exact, chiani in rows:
        v = pep_of_event(unit, 10.0 ** (float(snr) / 10.0) * d)
        for t in range(cfg.n_t):
            at = index[t * k + int(m) - 1, t * k + int(m_hat) - 1]
            assert [exact, chiani] == [repr(float(v.exact[at])), repr(float(v.chiani[at]))]
