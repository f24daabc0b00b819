import os

import numpy as np
import pytest

from irs_sskrpm import SystemConfig, channel, cli, make_channel, validate

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


@pytest.fixture()
def cold_caches():
    """Empties the per-geometry caches (channel, pep layout) now and at each call of the
    function it returns, so the next call of each builds its tables."""
    def clear():
        for cached in (channel._channel, cli._pep_layout):
            cached.cache_clear()
    clear()
    return clear


@pytest.fixture()
def channel_builds(cold_caches, monkeypatch):
    """The configs a channel is built for from now on (one per `build_g_bar` call), with
    the caches emptied first."""
    built, build = [], channel.build_g_bar
    monkeypatch.setattr(channel, "build_g_bar", lambda cfg: built.append(cfg) or build(cfg))
    return built
