"""Scalar arithmetic backends for standard and extended precision.

All series and polynomial code in this package is written against the small
facade below, so it runs unchanged on Python ``complex`` (standard mode,
~16 significant digits) or on ``mpmath`` numbers (extended mode, >= 30
significant digits, arbitrarily escalatable).
"""
from __future__ import annotations

import cmath
import contextlib
import math

import mpmath as mp

STANDARD_MODE = "standard"
EXTENDED_MODE = "extended"

#: dps of the default extended context (container for >= 30 significant digits)
EXTENDED_DPS = 40


class Context:
    """Arithmetic backend: ``standard`` (double) or ``extended`` (mpmath).

    Extended contexts carry a decimal-digit count ``dps``; escalated contexts
    with higher dps are created on demand by cancellation-aware summation.
    """

    __slots__ = ("mode", "dps")

    def __init__(self, mode: str = STANDARD_MODE, dps: int = EXTENDED_DPS):
        if mode not in (STANDARD_MODE, EXTENDED_MODE):
            raise ValueError(f"unknown precision mode {mode!r}")
        self.mode = mode
        self.dps = 16 if mode == STANDARD_MODE else max(int(dps), 30)

    def __repr__(self):
        return f"Context({self.mode!r}, dps={self.dps})"

    @property
    def extended(self) -> bool:
        return self.mode == EXTENDED_MODE

    def guard(self):
        """Context manager installing this precision for mpmath operations."""
        if self.extended:
            return mp.workdps(self.dps)
        return contextlib.nullcontext()

    # -- scalar constructors -------------------------------------------------
    def cnum(self, z):
        """Coerce to the backend complex type."""
        if self.extended:
            if isinstance(z, (mp.mpf, mp.mpc)):
                return mp.mpc(z)
            if isinstance(z, complex):
                return mp.mpc(z.real, z.imag)
            return mp.mpc(z)
        return complex(z)

    def rnum(self, x):
        """Coerce to the backend real type."""
        if self.extended:
            return mp.mpf(x) if not isinstance(x, mp.mpf) else x
        return float(x)

    # -- elementary functions ------------------------------------------------
    def exp(self, z):
        return mp.exp(z) if self.extended else cmath.exp(z)

    def log(self, z):
        """Principal branch, imaginary part in (-pi, pi]."""
        return mp.log(z) if self.extended else cmath.log(z)

    def sqrt(self, z):
        return mp.sqrt(z) if self.extended else cmath.sqrt(z)

    def rsqrt(self, x):
        return mp.sqrt(self.rnum(x)) if self.extended else math.sqrt(x)

    def rexp(self, x):
        """exp of a real argument, staying in the real backend type."""
        return mp.exp(self.rnum(x)) if self.extended else math.exp(x)

    def cos(self, x):
        return mp.cos(x) if self.extended else math.cos(x)

    def sin(self, x):
        return mp.sin(x) if self.extended else math.sin(x)

    def acos(self, x):
        return mp.acos(self.rnum(x)) if self.extended else math.acos(x)

    def expi(self, theta):
        """exp(i*theta) for real theta."""
        if self.extended:
            return mp.exp(mp.mpc(0, 1) * theta)
        return complex(math.cos(theta), math.sin(theta))

    # -- predicates ----------------------------------------------------------
    def is_finite(self, z) -> bool:
        if self.extended:
            return mp.isfinite(z)
        z = complex(z)
        return math.isfinite(z.real) and math.isfinite(z.imag)


STANDARD = Context(STANDARD_MODE)
EXTENDED = Context(EXTENDED_MODE, EXTENDED_DPS)


def extended_context(dps: int) -> Context:
    """Extended context with at least ``dps`` decimal digits."""
    return Context(EXTENDED_MODE, dps)