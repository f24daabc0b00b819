import os

import numpy as np
import pytest

from irs_sskrpm import SystemConfig, make_channel, validate

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def config_path(name: str) -> str:
    return os.path.abspath(os.path.join(CONFIG_DIR, name))


@pytest.fixture(scope="session")
def cfg():
    """Default scenario: 4x4 surface, 2 TX antennas, 1 RX antenna, binary phases."""
    return validate(SystemConfig())


@pytest.fixture(scope="session")
def chan(cfg):
    """Deterministic H, LoS component and rank-1 reduction of the default scenario."""
    return make_channel(cfg)


@pytest.fixture()
def rng():
    return np.random.default_rng(987)
