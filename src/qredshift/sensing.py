"""Sensing figures of merit: gravimetry, strain response, required qubits.

Each estimate is gravity's law on this chip, one site's angle from
`gravity` times the site count, so no estimate builds a chip:

    gravimeter    n sites under UniformDeltaG(delta_g): n times the signed
                  site angle
    rotated 1D    a line of n sites rotated upright: n^2 / 2 times |theta|
                  of the site at spacing / 2
    rotated 2D    an m x m grid (n = m^2) rotated upright: n^1.5 / 2 times
                  that angle; it inherits the n^(3/2) scaling from the
                  linear chip dimension L = sqrt(n) * spacing
    strain gauge  n sites raised by one strained spacing,
                  VerticalTranslation(spacing * (1 + strain)): n times |theta|

The sensitivities assume the protocol resolves a phase of
`phase_resolution` (default 0.1 rad) within one coherence window T_c, and
invert their phase at unit input (delta_g = 1, no strain, n = 1); a unit
phase that underflows to 0 gives inf.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .gravity import UniformDeltaG, VerticalRotation, VerticalTranslation, _angles, _check_time

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
# the rotated chips stand upright, so a site's axis coordinate is its height
_UPRIGHT = VerticalRotation(math.pi / 2.0)


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


def _inverse(resolution: float, unit_phase: float) -> float:
    """The input whose phase is `resolution`, from the phase of a unit input; inf when that phase is 0."""
    return resolution / unit_phase if unit_phase else math.inf


def gravimeter_phase(config: SensingConfig, delta_g: float, t: float) -> float:
    """Phase of the GHZ register: n times the signed site angle under UniformDeltaG(delta_g)."""
    _check_accumulation(config, t)
    return config.n * _angles(UniformDeltaG(delta_g), config.constants, t, 0.0, config.mean_frequency)


def gravimeter_sensitivity(config: SensingConfig) -> dict[str, float]:
    """Smallest delta_g whose phase reaches the resolution within one coherence window.

    Returns {"delta_g": delta_g in m/s^2, "delta_g_over_g": delta_g / g0}.
    """
    delta_g = _inverse(config.phase_resolution, gravimeter_phase(config, 1.0, config.coherence_time))
    return {"delta_g": delta_g, "delta_g_over_g": delta_g / config.constants.g0}


def closed_form_phase(
    n: float,
    mean_frequency: float,
    spacing: float,
    t: float,
    geometry: str = "1d",
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> float:
    """Rotated-chip phase: n^p / 2 times |theta| of the upright chip's site at spacing / 2.

    p = PHASE_EXPONENTS[geometry].  n is real, so a phase sweep reaches
    n = 1e300; at odd n the exact sum of a line's angles has floor(n^2 / 2)
    in place of n^2 / 2.  An n^p beyond the float range makes the phase
    inf, like any other overflow.
    """
    if geometry not in PHASE_EXPONENTS:
        raise ValueError(f"geometry must be {' or '.join(map(repr, PHASE_EXPONENTS))}, got {geometry!r}")
    _check_time(t)
    try:
        scale = float(n) ** PHASE_EXPONENTS[geometry]
    except OverflowError:
        scale = math.inf
    return scale / 2.0 * abs(_angles(_UPRIGHT, constants, t, spacing / 2.0, mean_frequency))


def required_qubits(config: SensingConfig, geometry: str = "1d") -> dict[str, float]:
    """Qubits needed for the rotated-chip phase to reach the resolution in one T_c.

    Inverts the closed form: n = s^(1/p), with s the resolution over the
    phase at n = 1, rounded up and at least 1.  Returns {"n_required":
    that int count, "length_m": the chip dimension n * spacing (1D) or
    sqrt(n) * spacing (2D)}.  A count beyond the float range raises
    OverflowError naming `n_required`.
    """
    unit = closed_form_phase(1, config.mean_frequency, config.spacing, config.coherence_time, geometry,
                             config.constants)
    root = _inverse(config.phase_resolution, unit) ** (1.0 / PHASE_EXPONENTS[geometry])
    if not math.isfinite(root):
        raise OverflowError(f"n_required = {root}: the qubit count overflows")
    n = max(1, math.ceil(root))
    length = n * config.spacing if geometry == "1d" else math.sqrt(n) * config.spacing
    return {"n_required": n, "length_m": length}


def strain_phase(config: SensingConfig, t: float, strain: float) -> float:
    """Phase of a GHZ register raised by one strained spacing: n times |theta| of each site."""
    if not abs(strain) < 1.0:
        raise ValueError(f"|strain| must be < 1, got {strain!r}")
    _check_accumulation(config, t)
    raised = VerticalTranslation(config.spacing * (1.0 + strain))
    return config.n * abs(_angles(raised, config.constants, t, 0.0, config.mean_frequency))


def min_detectable_strain(config: SensingConfig) -> dict[str, float]:
    """Strain whose phase contribution over one T_c equals the phase resolution.

    Returns {"baseline_phase_rad": the unstrained phase over T_c,
    "min_strain": phase_resolution / that phase}.  Values far above 1 mean
    the device cannot compete with existing strain gauges (MEMS devices
    resolve about 1e-6) at this resolution.
    """
    baseline = strain_phase(config, config.coherence_time, 0.0)
    return {"baseline_phase_rad": baseline, "min_strain": _inverse(config.phase_resolution, baseline)}
