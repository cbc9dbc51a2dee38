"""Scalar arithmetic backends for standard and extended precision.

All series and polynomial code in this package is written against the small
facade below, so it runs unchanged on Python ``complex`` (standard mode,
~16 significant digits) or on ``mpmath`` numbers (extended mode, >= 30
significant digits, arbitrarily escalatable).

Precision is carried by values, not by a setting.  Each extended context owns
an ``mpmath.MPContext`` at its dps; its numbers are of that context's types
and compute at its precision, whatever mpmath's global precision is and
whatever another thread does.  A binary operation on two mpmath numbers runs
at the precision of its left operand's context, so a value entering a
context passes through ``cnum``/``rnum``, which return this context's type,
and a value handed back by an escalation passes through ``adopt``.  This is
the only module that imports mpmath.
"""
from __future__ import annotations

import cmath
import math

import mpmath as mp

STANDARD_MODE = "standard"
EXTENDED_MODE = "extended"

#: dps of the default extended context (container for >= 30 significant digits)
EXTENDED_DPS = 40
#: escalated precisions are rounded up to a multiple of this many digits
_DPS_RUNG = 10


class Context:
    """Arithmetic backend: ``standard`` (double) or ``extended`` (mpmath).

    Extended contexts carry a decimal-digit count ``dps`` and the mpmath
    context that computes at it; escalated contexts with higher dps come from
    :func:`extended_context`.  A standard context keeps a 53-bit mpmath
    context for the values of ``adopt``.
    """

    __slots__ = ("mode", "dps", "_mpctx")

    def __init__(self, mode: str = STANDARD_MODE, dps: int = EXTENDED_DPS):
        if mode not in (STANDARD_MODE, EXTENDED_MODE):
            raise ValueError(f"unknown precision mode {mode!r}")
        self.mode = mode
        self.dps = 16 if mode == STANDARD_MODE else max(int(dps), 30)
        self._mpctx = mp.MPContext()
        if mode == EXTENDED_MODE:
            self._mpctx.dps = self.dps

    def __repr__(self):
        return f"Context({self.mode!r}, dps={self.dps})"

    @property
    def extended(self) -> bool:
        return self.mode == EXTENDED_MODE

    # -- scalar constructors -------------------------------------------------
    def cnum(self, z):
        """Coerce to the backend complex type; an mpmath complex keeps its
        value, an mpmath real is rounded to this precision."""
        if self.extended:
            return self._mpctx.mpc(z)
        return complex(z)

    def rnum(self, x):
        """Coerce to the backend real type; an mpmath real keeps its value."""
        if self.extended:
            return self._mpctx.convert(x)
        return float(x)

    def adopt(self, v):
        """A value handed back by an escalated context, as a value of this
        one: an mpmath number is copied exactly into this context's mpmath
        context (53-bit for a standard context, so that further arithmetic
        on it rounds like double precision), anything else is unchanged."""
        if isinstance(v, (int, float, complex)):
            return v
        return self._mpctx.convert(v)

    # -- elementary functions ------------------------------------------------
    def exp(self, z):
        return self._mpctx.exp(z) if self.extended else cmath.exp(z)

    def log(self, z):
        """Principal branch, imaginary part in (-pi, pi]."""
        return self._mpctx.log(z) if self.extended else cmath.log(z)

    def sqrt(self, z):
        return self._mpctx.sqrt(z) if self.extended else cmath.sqrt(z)

    def rsqrt(self, x):
        return self._mpctx.sqrt(self.rnum(x)) if self.extended else math.sqrt(x)

    def rexp(self, x):
        """exp of a real argument, staying in the real backend type."""
        return self._mpctx.exp(self.rnum(x)) if self.extended else math.exp(x)

    def rlog(self, x):
        """log of a positive real argument, staying in the real backend type."""
        return self._mpctx.log(self.rnum(x)) if self.extended else math.log(x)

    def cos(self, x):
        return self._mpctx.cos(x) if self.extended else math.cos(x)

    def sin(self, x):
        return self._mpctx.sin(x) if self.extended else math.sin(x)

    def acos(self, x):
        return self._mpctx.acos(self.rnum(x)) if self.extended else math.acos(x)

    def expi(self, theta):
        """exp(i*theta) for real theta."""
        if self.extended:
            return self._mpctx.exp(self._mpctx.mpc(0, 1) * theta)
        return complex(math.cos(theta), math.sin(theta))

    # -- special functions of extended contexts (series has the standard ones)
    def gamma(self, z):
        """Gamma of a backend real or complex z."""
        return self._mpctx.gamma(z)

    def loggamma(self, z):
        """Principal log Gamma of a backend real or complex z."""
        return self._mpctx.loggamma(z)

    # -- predicates ----------------------------------------------------------
    def is_finite(self, z) -> bool:
        if self.extended:
            return self._mpctx.isfinite(z)
        z = complex(z)
        return math.isfinite(z.real) and math.isfinite(z.imag)


STANDARD = Context(STANDARD_MODE)
EXTENDED = Context(EXTENDED_MODE, EXTENDED_DPS)

# one context per rung of the dps ladder: building an mpmath context costs
# about a millisecond, and escalations ask for hundreds of distinct dps values
_LADDER = {EXTENDED_DPS: EXTENDED}


def extended_context(dps: int) -> Context:
    """Extended context with at least ``dps`` decimal digits: ``dps`` rounded
    up to a multiple of ten, one shared context per rung."""
    rung = -(-max(int(dps), 30) // _DPS_RUNG) * _DPS_RUNG
    ctx = _LADDER.get(rung)
    if ctx is None:
        ctx = _LADDER.setdefault(rung, Context(EXTENDED_MODE, rung))
    return ctx


def log10_abs(x) -> float:
    """log10 |x| of any backend scalar, at the precision of x's own context;
    -inf at 0, +inf past overflow."""
    try:
        a = abs(x)
    except OverflowError:
        return float("inf")
    if a == 0:
        return float("-inf")
    if isinstance(a, (int, float)):
        return math.log10(a)
    try:
        return float(a.context.log10(a))
    except (OverflowError, ValueError):
        return float("inf")
