"""Potential changes and per-qubit dephasing angles of perturbed chips.

The model is first-order weak-field gravity: a qubit sitting at potential
Phi runs at a rate scaled by 1 + Phi/c^2, so a change dPhi of the local
potential detunes an omega-frequency qubit by dPhi * omega / c^2.  Over an
accumulation time t, register site k picks up the phase angle

    theta_k = -(t / c^2) * dPhi_k * omega_k

relative to its calibrated frame.  The float array of these angles alone
fixes the diagonal dephasing channel the simulation engines apply.  On a
chip with one qubit frequency, uniform_delta_phi gives their absolute sum
in closed form at O(1) cost, so only per-site paths build per-site arrays.
This module is the only one that multiplies the redshift constants:
potential_change gives dPhi, and the sensing estimates evaluate the same
law on their equivalent chips.

Supported perturbations of a calibrated chip:

  * VerticalRotation    rotate the chip about its center of gravity, so
                        site k moves vertically by x_k = u_k * sin(angle)
                        (u_k is the site coordinate along the chip axis);
  * VerticalTranslation move the whole chip up or down by delta_x;
  * UniformDeltaG       change the surface acceleration g -> g + delta_g
                        at fixed Earth radius, dPhi = -R_earth * delta_g;
  * ProximalMass        park a mass M at distance d, dPhi = -G*M/d
                        (common to all sites, point-chip approximation);
  * UniformStrain       stretch the site spacing by a factor (1 + strain)
                        on a chip rotated by `angle`.

Each perturbation field is a finite real (a distance > 0, a strain in
(-1, 1)), or ValueError names it.  Angles are measured from horizontal;
a chip's `orientation` is carried on ChipGeometry, read by no perturbation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from math import isqrt
from typing import Sequence, Union

import numpy as np

from .constants import _REAL, DEFAULT_CONSTANTS, PhysicalConstants, _choice, _finite, _positive

__all__ = [
    "LAYOUTS",
    "MAX_SITES",
    "ResourceCapError",
    "ChipGeometry",
    "line_chip",
    "grid_chip",
    "VerticalRotation",
    "UniformDeltaG",
    "ProximalMass",
    "VerticalTranslation",
    "UniformStrain",
    "GravScenario",
    "potential_change",
    "universal_rate",
    "dephasing_angles",
    "uniform_delta_phi",
]


# Most sites a per-site array may cover: per-site frequencies, axis
# coordinates, potential changes and dephasing angles raise ResourceCapError
# (CLI exit code 3) above it, before any such array exists.  A chip with one
# frequency is not capped on the paths that need no array (the branch
# backend, uniform_delta_phi).  At the cap, a branch run on the array path
# took 3.0 s and peaked at 1.56 GB RSS on a 2-vCPU machine (numpy 2.4,
# Python 3.11).
MAX_SITES = 5 * 10**7


class ResourceCapError(RuntimeError):
    """A run exceeds a documented cap: per-site arrays, dense or density-matrix size, or shots."""


def _index(value: object, name: str, minimum: int | None = None) -> int:
    """`value` as a Python int (numpy integers too): TypeError naming `name` for a bool, a float or anything
    else, ValueError for an int below `minimum`."""
    try:
        if type(value) is not bool:  # operator.index(True) is 1
            index = operator.index(value)
            if minimum is not None and index < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {index}")
            return index
    except TypeError:
        pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _check_sites(n: int) -> None:
    if n > MAX_SITES:
        raise ResourceCapError(f"{n} sites exceed the cap of {MAX_SITES}")


LAYOUTS = ("line", "grid")


@dataclass(frozen=True)
class ChipGeometry:
    """A line or square-grid chip of `qubit_count` sites `spacing` apart.

    Site coordinates are centered on the center of gravity, so positions sum
    to zero along every axis.  `orientation` records the tilt of the chip
    axis (line axis, or grid row axis) away from horizontal, but no
    perturbation reads it: VerticalRotation and UniformStrain carry their
    own angle, measured from horizontal.

    `frequency` is the chip's one angular frequency (rad/s), kept as a
    float, or one frequency per site; per-site values that are all equal
    are kept as one float too.  `frequencies` hands out the per-site array
    either way.
    """

    layout: str
    qubit_count: int
    spacing: float
    orientation: float
    frequency: float | np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubit_count", _index(self.qubit_count, "qubit_count", 1))
        _choice(self.layout, LAYOUTS, "layout")
        if self.layout == "grid" and isqrt(self.qubit_count) ** 2 != self.qubit_count:
            raise ValueError(f"grid layout needs a perfect-square qubit count, got {self.qubit_count}")
        _positive(spacing=self.spacing)
        _finite(orientation=self.orientation)
        freq = float(self.frequency) if isinstance(self.frequency, _REAL) else self.frequency
        if not isinstance(freq, float):  # one frequency per site
            _check_sites(self.qubit_count)
            freq = np.asarray(freq, dtype=float)
            if freq.shape != (self.qubit_count,):
                raise ValueError(f"expected {self.qubit_count} site frequencies, got shape {freq.shape}")
            if np.all(freq == freq[0]):
                freq = freq[0]
        if not np.all(freq > 0.0):
            raise ValueError("all site frequencies must be positive")
        if not np.all(np.isfinite(freq)):  # 2 pi 1e9 times a GHz value can overflow
            raise ValueError("all site frequencies must be finite")
        object.__setattr__(self, "frequency", freq if isinstance(freq, np.ndarray) else float(freq))

    @property
    def uniform_frequency(self) -> float | None:
        """The chip's one angular frequency (rad/s), or None when its sites differ."""
        return self.frequency if isinstance(self.frequency, float) else None

    @property
    def frequencies(self) -> np.ndarray:
        """One angular frequency per site (rad/s); read-only, a zero-copy view on a uniform chip."""
        _check_sites(self.qubit_count)
        return np.broadcast_to(self.frequency, (self.qubit_count,))

    def axis_coordinates(self) -> np.ndarray:
        """Chip-frame coordinate of each site along the rotation axis, m.

        Sites are numbered so that site 1 ends up highest after rotating
        the axis to vertical: u_k = (n + 1 - 2k) * spacing / 2 along a
        line; on a grid the same formula runs over the sqrt(n) rows and
        every site of a row shares the row coordinate.
        """
        n, ell = self.qubit_count, self.spacing
        _check_sites(n)
        if self.layout == "line":
            k = np.arange(1, n + 1)
            return (n + 1 - 2 * k) * (ell / 2.0)
        m = isqrt(n)
        rows = np.arange(n) // m + 1
        return (m + 1 - 2 * rows) * (ell / 2.0)


def line_chip(
    n: int,
    spacing: float,
    frequency: float | Sequence[float],
    orientation: float = 0.0,
) -> ChipGeometry:
    """A 1D chip of n sites with uniform spacing; frequency in rad/s (scalar or per site)."""
    return ChipGeometry("line", n, spacing, orientation, frequency)


def grid_chip(
    n: int,
    spacing: float,
    frequency: float | Sequence[float],
    orientation: float = 0.0,
) -> ChipGeometry:
    """A square-grid chip of n sites (n must be a perfect square)."""
    return ChipGeometry("grid", n, spacing, orientation, frequency)


class _Perturbation:
    # every field is a finite real; a perturbation checks its own tighter bounds first
    def __post_init__(self) -> None:
        _finite(**{f.name: getattr(self, f.name) for f in fields(self)})


@dataclass(frozen=True)
class VerticalRotation(_Perturbation):
    """Rotate the calibrated chip by `angle` (rad) about its center of gravity."""

    angle: float


@dataclass(frozen=True)
class UniformDeltaG(_Perturbation):
    """Change the local surface acceleration by delta_g (m/s^2) at fixed Earth radius."""

    delta_g: float


@dataclass(frozen=True)
class ProximalMass(_Perturbation):
    """Bring a mass (kg) to distance (m) from the chip; all sites share the distance."""

    mass: float
    distance: float

    def __post_init__(self) -> None:
        _positive(distance=self.distance)
        super().__post_init__()


@dataclass(frozen=True)
class VerticalTranslation(_Perturbation):
    """Move the whole chip vertically by delta_x (m)."""

    delta_x: float


@dataclass(frozen=True)
class UniformStrain(_Perturbation):
    """Stretch site spacings by (1 + strain) on a chip rotated by `angle` (rad)."""

    strain: float
    angle: float = math.pi / 2.0

    def __post_init__(self) -> None:
        if not (isinstance(self.strain, _REAL) and abs(self.strain) < 1.0):
            raise ValueError(f"|strain| must be < 1, got {self.strain!r}")
        super().__post_init__()


Perturbation = Union[VerticalRotation, UniformDeltaG, ProximalMass, VerticalTranslation, UniformStrain]


@dataclass(frozen=True)
class GravScenario:
    """One perturbation applied to a calibrated chip, plus the constants to use."""

    geometry: ChipGeometry
    perturbation: Perturbation
    constants: PhysicalConstants = DEFAULT_CONSTANTS


def universal_rate(
    engineering_factor: float = 1.0, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Frequency-independent dephasing rate N*g/c (rad/s).

    Holds when the qubit spacing tracks the wavelength, dx = N*c/omega,
    with N a dimensionless layout factor (waveguide geometry, index of
    refraction); the frequency then cancels out of the phase rate.
    """
    _positive(engineering_factor=engineering_factor)
    return engineering_factor * constants.g0 / constants.c


# perturbations whose dPhi_k grows with the site's coordinate along the chip axis
_TILTS = (VerticalRotation, UniformStrain)


def potential_change(
    perturbation: Perturbation,
    coordinates: np.ndarray | float = 0.0,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> np.ndarray | float:
    """dPhi (m^2/s^2) of sites at chip-axis `coordinates` (m); only tilts read the coordinates.

    dPhi / c^2 is the fractional frequency shift of a site, and dPhi * omega / c^2
    its phase rate (rad/s).  Unchecked: a NaN coordinate gives a NaN dPhi.
    """
    pert = perturbation
    if isinstance(pert, VerticalRotation):
        return constants.g0 * (coordinates * math.sin(pert.angle))
    if isinstance(pert, UniformStrain):
        return constants.g0 * (coordinates * math.sin(pert.angle)) * (1.0 + pert.strain)
    if isinstance(pert, VerticalTranslation):
        return constants.g0 * pert.delta_x
    if isinstance(pert, UniformDeltaG):
        return -constants.earth_radius * pert.delta_g
    if isinstance(pert, ProximalMass):
        return -constants.G * pert.mass / pert.distance
    raise TypeError(f"unknown perturbation type {type(pert).__name__}")


def _angles(perturbation: Perturbation, constants: PhysicalConstants, t: float,
            coordinates: np.ndarray | float, omega: np.ndarray | float) -> np.ndarray | float:
    """theta = -(t/c^2) * dPhi * omega of sites at chip-axis `coordinates` (m), angular frequency omega."""
    return -(t / constants.c_squared) * potential_change(perturbation, coordinates, constants) * omega


def _check_time(t: float, name: str = "accumulation time t") -> None:
    if not (isinstance(t, _REAL) and 0.0 <= t < math.inf):
        raise ValueError(f"{name} must be finite and >= 0, got {t!r}")


def dephasing_angles(scenario: GravScenario, t: float) -> np.ndarray:
    """Channel angles theta_k = -(t/c^2) * dPhi_k * omega_k after accumulating for t seconds.

    The angles fix the channel Sigma = (x) diag(1, e^{i theta_k}).  The
    minus sign matches the convention that a raised qubit (dPhi > 0) runs
    fast, so its excited state advances and the recorded angle for the
    rotation scenario is theta_k = -(g t / c^2) * omega_k * x_k.
    Builds per-site arrays, so a chip above MAX_SITES raises ResourceCapError.
    Unchecked: an overflow is +-inf and 0 * inf is NaN, without a warning;
    the kernels that apply the angles reject them.
    """
    _check_time(t)
    geom = scenario.geometry
    with np.errstate(over="ignore", invalid="ignore"):
        coordinates = geom.axis_coordinates() if isinstance(scenario.perturbation, _TILTS) else 0.0
        return _angles(scenario.perturbation, scenario.constants, t, coordinates, geom.frequencies)


def uniform_delta_phi(scenario: GravScenario, t: float) -> float:
    """sum_k |theta_k| of a chip with one qubit frequency, in closed form: O(1), no per-site array.

    Every angle is then (t * omega / c^2) * |dPhi_k|.  A rotation or strain
    moves site k in proportion to its axis coordinate (spacing / 2) * j_k,
    j_k = n + 1 - 2k (per row on an m x m grid), so the sum is the angle of
    a j = 1 site, computed by the same law as dephasing_angles, times the exact
    integer sum_k |j_k|: floor(n^2 / 2) on a line, m * floor(m^2 / 2) on a
    grid.  The other perturbations shift all n sites alike: n times one
    angle.  Agrees with the sum of dephasing_angles to a few ulp at any n;
    a sum beyond the float range is inf.  Up to MAX_SITES sites it is inf
    or NaN exactly when the sum of dephasing_angles is: then the largest,
    outermost angle is.
    """
    geom = scenario.geometry
    omega = geom.uniform_frequency
    if omega is None:
        raise ValueError("uniform_delta_phi needs a chip with one qubit frequency")
    _check_time(t)

    n, pert, cst = geom.qubit_count, scenario.perturbation, scenario.constants
    if not isinstance(pert, _TILTS):
        count, angle = n, abs(_angles(pert, cst, t, 0.0, omega))
    else:
        m = n if geom.layout == "line" else isqrt(n)
        count = m * m // 2 * (1 if geom.layout == "line" else m)
        if count == 0:  # a single site sits on the pivot
            return 0.0
        outer = abs(_angles(pert, cst, t, (m - 1) * (geom.spacing / 2.0), omega)) if n <= MAX_SITES else 0.0
        if not math.isfinite(outer):
            return outer
        angle = abs(_angles(pert, cst, t, geom.spacing / 2.0, omega))
    # count may lie beyond the float range while angle * count does not:
    # scale it by a power of two first
    shift = max(0, count.bit_length() - 1000)
    try:
        return math.ldexp(angle * (count >> shift), shift)
    except OverflowError:
        return math.inf
