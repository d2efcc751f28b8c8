"""Sensing figures of merit: gravimetry, strain response, required qubits.

All estimates assume the protocol resolves a phase of `phase_resolution`
(default 0.1 rad) within one coherence window T_c, and invert the
closed-form phase expressions:

    gravimeter   dphi = R_earth * delta_g * t * mean_omega * n / c^2
    rotated 1D   dphi = g * mean_omega * spacing * n^2   * t / (4 c^2)
    rotated 2D   dphi = g * mean_omega * spacing * n^1.5 * t / (4 c^2)
    strain gauge dphi = g * spacing * mean_omega * n * t / c^2 * (1 + strain)

The 2D form sums the 1D column expression over the sqrt(n) columns of a
square grid; it inherits the n^(3/2) scaling from the linear chip
dimension L = sqrt(n) * spacing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .gravity import _check_time

__all__ = [
    "PHASE_EXPONENTS",
    "SensingConfig",
    "gravimeter_phase",
    "gravimeter_sensitivity",
    "closed_form_phase",
    "required_qubits",
    "strain_phase",
    "min_detectable_strain",
]

# p of the rotated-chip phase ~ n^p, per chip geometry
PHASE_EXPONENTS = {"1d": 2.0, "2d": 1.5}


@dataclass(frozen=True)
class SensingConfig:
    """Chip and protocol parameters entering the sensitivity estimates.

    n                 qubit count
    mean_frequency    average angular frequency, rad/s
    coherence_time    T_c, s (the longest usable accumulation window)
    spacing           site spacing, m
    phase_resolution  smallest resolvable phase, rad
    """

    n: int
    mean_frequency: float
    coherence_time: float
    spacing: float = 1e-3
    phase_resolution: float = 0.1
    constants: PhysicalConstants = DEFAULT_CONSTANTS

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for name in ("mean_frequency", "coherence_time", "spacing", "phase_resolution"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")


def _check_accumulation(config: SensingConfig, t: float) -> None:
    """Reject a negative t as `gravity` does; warn when t exceeds the coherence time."""
    _check_time(t)
    if t > config.coherence_time:
        warnings.warn(
            f"accumulation time {t} s exceeds the coherence time {config.coherence_time} s",
            stacklevel=3,
        )


def _exponent(geometry: str) -> float:
    if geometry not in PHASE_EXPONENTS:
        raise ValueError(f"geometry must be {' or '.join(map(repr, PHASE_EXPONENTS))}, got {geometry!r}")
    return PHASE_EXPONENTS[geometry]


def gravimeter_phase(config: SensingConfig, delta_g: float, t: float) -> float:
    """Phase R_earth * delta_g * t * mean_omega * n / c^2 picked up by the GHZ register."""
    _check_accumulation(config, t)
    cst = config.constants
    return cst.earth_radius * delta_g * t * config.mean_frequency * config.n / cst.c_squared


def gravimeter_sensitivity(config: SensingConfig) -> dict[str, float]:
    """Smallest delta_g whose phase reaches the resolution within one coherence window.

    Returns {"delta_g": delta_g in m/s^2, "delta_g_over_g": delta_g / g0}.
    """
    cst = config.constants
    delta_g = config.phase_resolution * cst.c_squared / (
        cst.earth_radius * config.coherence_time * config.mean_frequency * config.n)
    return {"delta_g": delta_g, "delta_g_over_g": delta_g / cst.g0}


def closed_form_phase(
    n: float,
    mean_frequency: float,
    spacing: float,
    t: float,
    geometry: str = "1d",
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Rotated-chip phase g * mean_omega * spacing * n^p * t / (4 c^2), p = PHASE_EXPONENTS[geometry].

    An n^p beyond the float range makes the phase inf, like any other overflow.
    """
    p = _exponent(geometry)
    _check_time(t)
    try:
        scale = float(n) ** p
    except OverflowError:
        scale = math.inf
    return constants.g0 * mean_frequency * spacing * scale * t / (4.0 * constants.c_squared)


def required_qubits(config: SensingConfig, geometry: str = "1d") -> dict[str, float]:
    """Qubits needed for the rotated-chip phase to reach the resolution in one T_c.

    Inverts the closed forms: n = s^(1/2) for 1D and n = s^(2/3) for 2D,
    with s = 4 * phase_resolution * c^2 / (g * mean_omega * spacing * T_c),
    rounded up and at least 1.  Returns {"n_required": that int count,
    "length_m": the chip dimension n * spacing (1D) or sqrt(n) * spacing
    (2D)}.  A count beyond the float range raises OverflowError naming
    `n_required`.
    """
    p = _exponent(geometry)
    cst = config.constants
    scale = 4.0 * config.phase_resolution * cst.c_squared / (
        cst.g0 * config.mean_frequency * config.spacing * config.coherence_time)
    root = scale ** (1.0 / p)
    if not math.isfinite(root):
        raise OverflowError(f"n_required = {root}: the qubit count overflows")
    n = max(1, math.ceil(root))
    length = n * config.spacing if geometry == "1d" else math.sqrt(n) * config.spacing
    return {"n_required": n, "length_m": length}


def strain_phase(config: SensingConfig, t: float, strain: float) -> float:
    """Phase g * spacing * mean_omega * n * t / c^2 * (1 + strain) of the strained GHZ register."""
    if not abs(strain) < 1.0:
        raise ValueError(f"|strain| must be < 1, got {strain!r}")
    _check_accumulation(config, t)
    cst = config.constants
    return cst.g0 * config.spacing * config.mean_frequency * config.n * t / cst.c_squared * (1.0 + strain)


def min_detectable_strain(config: SensingConfig) -> dict[str, float]:
    """Strain whose phase contribution over one T_c equals the phase resolution.

    Returns {"baseline_phase_rad": the unstrained phase over T_c,
    "min_strain": phase_resolution / that phase}.  Values far above 1 mean
    the device cannot compete with existing strain gauges (MEMS devices
    resolve about 1e-6) at this resolution.
    """
    baseline = strain_phase(config, config.coherence_time, 0.0)
    return {"baseline_phase_rad": baseline, "min_strain": config.phase_resolution / baseline}
