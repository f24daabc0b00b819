"""Link-level simulator and analytical toolkit for an IRS-assisted downlink
combining space-shift keying at the base station with reflection-phase
modulation at the surface, over Rician fading."""

__version__ = "0.1.0"

from .airlink import ml_detect, rpm_phases
from .channel import Channel, build_g_bar, make_channel, steering_bs, steering_irs
from .config import ConfigError, SystemConfig, load_config, parse_config, path_loss, validate
from .metrics import (NumericalError, PepValue, aber_union, aber_union_terms,
                      capacity_closed, joint_distances, pep_chiani, pep_of_event)
from .ncx2 import (ErrorEventMoments, laplace, moments_joint, moments_rpm,
                   moments_ssk, unit_moments)
from .simulate import run_sweep, simulate_ber, simulate_capacity

__all__ = [
    "__version__",
    "SystemConfig", "ConfigError", "load_config", "parse_config", "path_loss", "validate",
    "Channel", "steering_irs", "steering_bs", "build_g_bar", "make_channel",
    "rpm_phases", "ml_detect",
    "ErrorEventMoments", "moments_ssk", "moments_rpm", "moments_joint",
    "unit_moments", "laplace",
    "PepValue", "NumericalError", "pep_chiani", "pep_of_event", "aber_union", "aber_union_terms",
    "capacity_closed", "joint_distances",
    "simulate_ber", "simulate_capacity", "run_sweep",
]
