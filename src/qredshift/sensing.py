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

Every estimate takes plain arguments, only the ones its law reads: a GHZ
count n is an integer >= 1 (a real in the closed form), t a finite real
>= 0 and the other inputs finite reals > 0, or a TypeError or ValueError
names the argument.  The sensitivities assume the protocol resolves a
phase of `phase_resolution` (default 0.1 rad) within one coherence window
T_c, and invert their phase at unit input (delta_g = 1, no strain, n = 1);
a unit phase that underflows to 0 gives inf.  Nothing here warns about a
time beyond T_c: a phase at time t does not read T_c.
"""

from __future__ import annotations

import math

from .constants import _REAL, DEFAULT_CONSTANTS, PhysicalConstants, _choice, _positive
from .gravity import UniformDeltaG, UniformStrain, VerticalRotation, VerticalTranslation, _angles, _check_time, _index

__all__ = [
    "PHASE_EXPONENTS",
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


def _inverse(resolution: float, unit_phase: float) -> float:
    """The input whose phase is `resolution`, from the phase of a unit input; inf when that phase is 0."""
    return resolution / unit_phase if unit_phase else math.inf


def gravimeter_phase(n: int, mean_frequency: float, delta_g: float, t: float,
                     constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Phase of the GHZ register: n times the signed site angle under UniformDeltaG(delta_g), delta_g a finite real."""
    n = _index(n, "n", 1)
    _positive(mean_frequency=mean_frequency)
    _check_time(t)
    return n * _angles(UniformDeltaG(delta_g), constants, t, 0.0, mean_frequency)


def gravimeter_sensitivity(n: int, mean_frequency: float, coherence_time: float, phase_resolution: float = 0.1,
                           constants: PhysicalConstants = DEFAULT_CONSTANTS) -> dict[str, float]:
    """Smallest delta_g whose phase reaches the resolution within one coherence window.

    Returns {"delta_g": delta_g in m/s^2, "delta_g_over_g": delta_g / g0}.
    A phase at unit delta_g beyond the float range would make delta_g 0,
    so it raises ArithmeticError naming `delta_g`.
    """
    n = _index(n, "n", 1)
    _positive(mean_frequency=mean_frequency, coherence_time=coherence_time, phase_resolution=phase_resolution)
    unit = gravimeter_phase(n, mean_frequency, 1.0, coherence_time, constants)
    if math.isinf(unit):
        raise ArithmeticError(f"delta_g = {phase_resolution / unit}: the phase at delta_g = 1 overflows")
    delta_g = _inverse(phase_resolution, unit)
    return {"delta_g": delta_g, "delta_g_over_g": delta_g / constants.g0}


def closed_form_phase(n: float, mean_frequency: float, spacing: float, t: float, geometry: str = "1d",
                      constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Rotated-chip phase: n^p / 2 times |theta| of the upright chip's site at spacing / 2.

    p = PHASE_EXPONENTS[geometry].  n is real, so a phase sweep reaches
    n = 1e300; at odd n the exact sum of a line's angles has floor(n^2 / 2)
    in place of n^2 / 2.  An n^p beyond the float range makes the phase
    inf, like any other overflow.
    """
    if not (isinstance(n, _REAL) and n >= 1):
        raise ValueError(f"n must be >= 1, got {n}")
    _positive(mean_frequency=mean_frequency, spacing=spacing)
    _choice(geometry, PHASE_EXPONENTS, "geometry")
    _check_time(t)
    try:
        scale = float(n) ** PHASE_EXPONENTS[geometry]
    except OverflowError:
        scale = math.inf
    return scale / 2.0 * abs(_angles(_UPRIGHT, constants, t, spacing / 2.0, mean_frequency))


def required_qubits(mean_frequency: float, spacing: float, coherence_time: float, phase_resolution: float = 0.1,
                    geometry: str = "1d", constants: PhysicalConstants = DEFAULT_CONSTANTS) -> dict[str, float]:
    """Qubits needed for the rotated-chip phase to reach the resolution in one T_c.

    Inverts the closed form: n = s^(1/p), with s the resolution over the
    phase at n = 1, rounded up and at least 1.  Returns {"n_required":
    that int count, "length_m": the chip dimension n * spacing (1D) or
    sqrt(n) * spacing (2D)}.  A count beyond the float range raises
    OverflowError naming `n_required`.
    """
    _positive(mean_frequency=mean_frequency, coherence_time=coherence_time, spacing=spacing,
              phase_resolution=phase_resolution)
    unit = closed_form_phase(1, mean_frequency, spacing, coherence_time, geometry, constants)
    root = _inverse(phase_resolution, unit) ** (1.0 / PHASE_EXPONENTS[geometry])
    if not math.isfinite(root):
        raise OverflowError(f"n_required = {root}: the qubit count overflows")
    n = max(1, math.ceil(root))
    length = n * spacing if geometry == "1d" else math.sqrt(n) * spacing
    return {"n_required": n, "length_m": length}


def strain_phase(n: int, mean_frequency: float, spacing: float, strain: float, t: float,
                 constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Phase of a GHZ register raised by one strained spacing: n times |theta| of each site.

    A strained spacing beyond the float range raises ArithmeticError naming `spacing` and `strain`.
    """
    n = _index(n, "n", 1)
    _positive(mean_frequency=mean_frequency, spacing=spacing)
    UniformStrain(strain)  # rejects |strain| >= 1
    _check_time(t)
    height = spacing * (1.0 + strain)
    if math.isinf(height):
        raise ArithmeticError(f"spacing * (1 + strain) = {height}: the strained spacing overflows")
    return n * abs(_angles(VerticalTranslation(height), constants, t, 0.0, mean_frequency))


def min_detectable_strain(n: int, mean_frequency: float, spacing: float, coherence_time: float,
                          phase_resolution: float = 0.1,
                          constants: PhysicalConstants = DEFAULT_CONSTANTS) -> dict[str, float]:
    """Strain whose phase contribution over one T_c equals the phase resolution.

    Returns {"baseline_phase_rad": the unstrained phase over T_c,
    "min_strain": phase_resolution / that phase}.  Values far above 1 mean
    the device cannot compete with existing strain gauges (MEMS devices
    resolve about 1e-6) at this resolution.
    """
    n = _index(n, "n", 1)
    _positive(mean_frequency=mean_frequency, coherence_time=coherence_time, spacing=spacing,
              phase_resolution=phase_resolution)
    baseline = strain_phase(n, mean_frequency, spacing, 0.0, coherence_time, constants)
    return {"baseline_phase_rad": baseline, "min_strain": _inverse(phase_resolution, baseline)}
