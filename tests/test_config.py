import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irs_sskrpm import ConfigError, SystemConfig, parse_config, path_loss, validate

# frozen from arbitrary-precision exponentiation: 4**(-2.3)
PATH_LOSS_4KM = 0.041234622211652946


def test_path_loss_reference_distance_is_identity():
    assert path_loss(1.0, 1.0, 2.3) == 1.0


def test_path_loss_frozen_value():
    val = path_loss(1.0, 4.0, 2.3)
    assert val == pytest.approx(PATH_LOSS_4KM, rel=1e-14)
    assert val == pytest.approx(0.04124, abs=2e-5)


def test_path_loss_linear_in_rho0():
    assert path_loss(2.0, 1.0, 2.3) == 2.0
    assert path_loss(3.5, 2.0, 1.7) == pytest.approx(3.5 * path_loss(1.0, 2.0, 1.7), rel=1e-15)


@pytest.mark.parametrize("bad", [dict(rho_0=0.0), dict(d=-1.0), dict(eta=0.0)])
def test_path_loss_domain_errors(bad):
    kv = dict(rho_0=1.0, d=1.0, eta=2.3)
    kv.update(bad)
    with pytest.raises(ValueError):
        path_loss(kv["rho_0"], kv["d"], kv["eta"])


def test_path_loss_monotonicity(rng):
    # strictly decreasing in distance, strictly increasing in rho_0
    for _ in range(200):
        rho = rng.uniform(0.1, 5.0)
        eta = rng.uniform(0.5, 4.0)
        d1, d2 = sorted(rng.uniform(0.1, 20.0, size=2))
        if d1 == d2:
            continue
        assert path_loss(rho, d1, eta) > path_loss(rho, d2, eta)
        r1, r2 = sorted(rng.uniform(0.1, 5.0, size=2))
        if r1 == r2:
            continue
        assert path_loss(r1, d1, eta) < path_loss(r2, d1, eta)


def test_validate_accepts_and_derives():
    cfg = validate(SystemConfig(n_t=2, m_rpm=2, n_x=4, n_y=5))
    assert cfg.n_elements == 20
    assert cfg.bits_total == 2


def test_validate_rejects_non_power_of_two():
    with pytest.raises(ConfigError, match="not a power of two"):
        validate(SystemConfig(m_rpm=3))
    with pytest.raises(ConfigError, match="n_t=6"):
        validate(SystemConfig(n_t=6))


def test_validate_degenerate_single_hypothesis_is_legal():
    cfg = validate(SystemConfig(n_t=1, m_rpm=1))
    assert cfg.bits_total == 0


def test_validate_is_idempotent():
    cfg = SystemConfig()
    assert validate(validate(cfg)) is validate(cfg)


@pytest.mark.parametrize("field,value,frag", [
    ("n_r", 0, "n_r"),
    ("d_r", -1.0, "d_r"),
    ("eta", 0.0, "eta"),
    ("k_r", -0.5, "k_r"),
    ("phi_a", 0.0, "phi_a"),
    ("phi_e", 7.0, "phi_e"),
    ("trials", 0, "trials"),
    ("seed", -1, "seed"),
    ("snr_grid_db", (0.0, 0.0), "snr_grid_db"),
    ("snr_grid_db", (4.0, 2.0), "snr_grid_db"),
    ("snr_grid_db", (0.0, float("nan")), "snr_grid_db"),
    ("snr_grid_db", (0.0, float("inf")), "snr_grid_db"),
    ("snr_grid_db", (float("-inf"), 0.0), "snr_grid_db"),
    ("k_r", float("nan"), "k_r"),
    ("k_r", float("inf"), "k_r"),
    ("d_t", float("inf"), "d_t"),
    ("d_r", float("inf"), "d_r"),
    ("d_0", float("inf"), "d_0"),
    ("eta", float("inf"), "eta"),
    ("rho_0", float("inf"), "rho_0"),
    ("d_r", float("nan"), "d_r"),
    # a path loss must be a normal float: d ** -eta overflows, underflows to 0 or
    # is subnormal
    ("d_t", 1e-200, "nu=rho_0"),
    ("d_r", 1e200, "nu_r=rho_0"),
    ("rho_0", 1e-310, "nu=rho_0"),
    # each link's loss is normal, but their product, the path gain, is subnormal or inf
    ("rho_0", 1e-160, "d_t=1.0 and d_r=4.0"),
    ("rho_0", 1e160, "d_t=1.0 and d_r=4.0"),
    # the channel cache hashes the config, so the grid must be a tuple
    ("snr_grid_db", [0.0, 10.0], "snr_grid_db"),
    ("snr_grid_db", np.array([0.0, 10.0]), "snr_grid_db"),
    # a bool is no integer: True would pass as 1 and share 1's cached channel
    *((name, True, name) for name in ("n_t", "n_r", "n_x", "n_y", "m_rpm", "seed", "trials")),
    ("seed", False, "seed"),
])
def test_validate_reports_offending_field(field, value, frag):
    with pytest.raises(ConfigError, match=frag):
        validate(replace(SystemConfig(), **{field: value}))


def test_validate_rejects_a_grid_whose_linear_power_overflows():
    # the analytic layer forms effective powers up to 8 P_s
    top = 10.0 * math.log10(sys.float_info.max / 8.0)
    for grid in ((0.0, 4000.0), (0.0, top)):
        with pytest.raises(ConfigError, match="snr_grid_db"):
            validate(replace(SystemConfig(), snr_grid_db=grid))
    below = math.nextafter(top, 0.0)
    validate(replace(SystemConfig(), snr_grid_db=(0.0, below)))
    assert math.isfinite(8.0 * 10.0 ** (below / 10.0))


FLOAT_FIELDS = [f.name for f in fields(SystemConfig) if f.type == "float"]
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _broken_configs(draw):
    """(config, finite twin): the twin has every float field at its default and
    a strictly increasing grid below the limit; the config corrupts at least
    one float field with a non-finite value or one grid value with a
    non-finite or over-limit one."""
    top = 10.0 * math.log10(sys.float_info.max / 8.0)
    grid = tuple(sorted(draw(st.sets(st.floats(-1e3, top, exclude_max=True),
                                     min_size=1, max_size=5))))
    twin = replace(SystemConfig(), snr_grid_db=grid)
    bad = draw(st.dictionaries(st.sampled_from(FLOAT_FIELDS), NON_FINITE, max_size=3))
    if not bad or draw(st.booleans()):
        at = draw(st.integers(0, len(grid) - 1))
        value = draw(NON_FINITE | st.floats(min_value=top, allow_infinity=False))
        bad["snr_grid_db"] = grid[:at] + (value,) + grid[at + 1:]
    return replace(twin, **bad), twin, set(bad)


@settings(max_examples=200, deadline=None)
@given(case=_broken_configs())
def test_validate_rejects_non_finite_or_over_limit_values_and_accepts_their_twin(case):
    cfg, twin, bad = case
    with pytest.raises(ConfigError) as err:
        validate(cfg)
    assert any(f"{name}=" in str(err.value) for name in bad), (str(err.value), bad)
    assert validate(twin) is twin


CONFIG_TEXT = """\
# comment line
n_t=2
n_r=2        # trailing comment
n_x=5
n_y=4
m_rpm=2
d_r=4.0
snr_grid_db=0,5,10
seed=42
trials=1000
"""


def test_parse_config_roundtrip():
    cfg = parse_config(CONFIG_TEXT)
    assert cfg.n_elements == 20
    assert cfg.n_r == 2
    assert cfg.snr_grid_db == (0.0, 5.0, 10.0)
    assert cfg.seed == 42
    # unspecified keys keep their defaults
    assert cfg.eta == 2.3


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("n_t=2\nbandwidth=5\n")


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("n_t=2\nn_t=4\n")


def test_parse_config_bad_value():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("n_t=two\n")


@pytest.mark.parametrize("text", ["snr_grid_db=0,,4\n", "snr_grid_db=0,4,\n", "snr_grid_db=,\n"])
def test_parse_config_rejects_an_empty_grid_token(text):
    # a dropped value is a typo, not a shorter grid (an empty value is the grid of no
    # point, which test_pep_csv_is_the_row_by_row_table_at_its_edges writes and reads)
    with pytest.raises(ConfigError, match="line 1: cannot parse snr_grid_db="):
        parse_config(text)


def test_every_exported_name_resolves():
    import irs_sskrpm
    missing = [name for name in irs_sskrpm.__all__ if not hasattr(irs_sskrpm, name)]
    assert missing == []
