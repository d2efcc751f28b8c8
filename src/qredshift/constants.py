"""Physical constants for the weak-field gravity model.

Every constant can be overridden per run, which makes it possible to
reproduce back-of-the-envelope estimates that use round numbers
(g = 9.8 or 10 m/s^2) instead of the defaults below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["PhysicalConstants", "DEFAULT_CONSTANTS", "CONSTANT_NAMES"]


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants entering the potentials and redshift factors.

    c            speed of light, m/s
    G            gravitational constant, m^3/(kg s^2)
    g0           surface gravitational acceleration, m/s^2
    earth_radius m
    """

    c: float = 299792458.0
    G: float = 6.6743e-11
    g0: float = 9.80665
    earth_radius: float = 6.371e6

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"constant {f.name} must be finite and strictly positive, got {value!r}")

    @property
    def c_squared(self) -> float:
        return self.c * self.c


DEFAULT_CONSTANTS = PhysicalConstants()
CONSTANT_NAMES = tuple(f.name for f in fields(PhysicalConstants))
