"""Physical constants for the weak-field gravity model.

Every constant can be overridden per run, which makes it possible to
reproduce back-of-the-envelope estimates that use round numbers
(g = 9.8 or 10 m/s^2) instead of the defaults below.  The shared argument
rules (a finite real, one > 0, a choice among fixed values) live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Real

__all__ = ["PhysicalConstants", "DEFAULT_CONSTANTS", "CONSTANT_NAMES"]

# a real number; float and int come first because the check against the Real ABC is several times slower
_REAL = (float, int, Real)


def _finite(**values: float) -> None:
    """Reject, in argument order, each value that is not a finite real: ValueError naming it."""
    for name, value in values.items():
        if not (isinstance(value, _REAL) and -math.inf < value < math.inf):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _positive(**values: float) -> None:
    """Reject, in argument order, each value that is not a finite real > 0: ValueError naming it."""
    for name, value in values.items():
        if not (isinstance(value, _REAL) and 0.0 < value < math.inf):
            raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")


def _choice(value: str, choices: tuple[str, ...] | dict[str, float], name: str) -> str:
    """`value` when it is one of `choices`, else ValueError naming it `name`."""
    if value not in choices:
        raise ValueError(f"{name} must be {' or '.join(map(repr, choices))}, got {value!r}")
    return value


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
        _positive(**{f"constant {f.name}": getattr(self, f.name) for f in fields(self)})

    @property
    def c_squared(self) -> float:
        return self.c * self.c


DEFAULT_CONSTANTS = PhysicalConstants()
CONSTANT_NAMES = tuple(f.name for f in fields(PhysicalConstants))
