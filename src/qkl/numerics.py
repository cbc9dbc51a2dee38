"""Scalar arithmetic backends for standard and extended precision.

All series and polynomial code in this package is written against the small
facade of :class:`Context`, so it runs unchanged on Python ``complex``
(standard mode, ~16 significant digits) or on ``mpmath`` numbers (extended
mode, >= 30 significant digits, arbitrarily escalatable).  A context chooses
its backend once, when it is built, and stores the backend's functions as its
operations; no call asks for the mode again.  Per operation, standard /
extended:

- ``cnum``: ``complex`` / ``mpc``; an mpmath complex keeps its value, an
  mpmath real is rounded to the context's precision.
- ``rnum``: ``float`` / ``convert``; an mpmath real keeps its value.
- ``exp``, ``log``, ``sqrt``: ``cmath``'s / mpmath's; ``log`` is the principal
  branch, imaginary part in (-pi, pi].
- ``rexp``, ``rlog``, ``rsqrt``, ``cos``, ``sin``, ``acos``: ``math``'s /
  mpmath's, real argument (positive for ``rlog``), real backend type.
- ``expi(theta)``: exp(i theta) for real theta.
- ``gamma``, ``loggamma``: mpmath's in both modes, at 53 bits in standard
  (``series.complex_gamma`` and ``series.log_abs_gamma`` take them);
  ``loggamma`` is the principal branch.
- ``is_finite``: neither part infinite nor nan.
- ``to_dyadic(v)``, ``from_dyadic(t)`` (extended contexts only): ``cnum(v)``
  as an ``(re, im, exp)`` triple of ints standing for (re + i im) 2^exp,
  exactly, and such a triple as a ``cnum`` value rounded to the context's
  precision ``prec`` (bits).  The extended series engines sum on these
  triples (see ``qkl.dyadic``).

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

from .errors import PrecisionError, RangeError

STANDARD_MODE = "standard"
EXTENDED_MODE = "extended"

#: dps of the default extended context (container for >= 30 significant digits)
EXTENDED_DPS = 40
#: escalated precisions are rounded up to a multiple of this many digits
_DPS_RUNG = 10
STANDARD_DIGITS = 15.95  # significant decimal digits of a double


class Context:
    """Arithmetic backend: ``standard`` (double) or ``extended`` (mpmath).

    Extended contexts carry a decimal-digit count ``dps`` and the mpmath
    context that computes at it; escalated contexts with higher dps come from
    :func:`extended_context`.  A standard context keeps a 53-bit mpmath
    context for ``gamma``, ``loggamma`` and the values of ``adopt``.
    """

    __slots__ = ("mode", "extended", "dps", "prec", "_mpctx", "cnum", "rnum",
                 "exp", "log", "sqrt", "rexp", "rlog", "rsqrt", "cos", "sin",
                 "acos", "expi", "gamma", "loggamma", "is_finite", "to_dyadic",
                 "from_dyadic")

    def __init__(self, mode: str = STANDARD_MODE, dps: int = EXTENDED_DPS):
        if mode not in (STANDARD_MODE, EXTENDED_MODE):
            raise ValueError(f"unknown precision mode {mode!r}")
        self.mode = mode
        self.extended = mode == EXTENDED_MODE
        self.dps = max(int(dps), 30) if self.extended else 16
        self._mpctx = mpctx = mp.MPContext()
        self.gamma, self.loggamma = mpctx.gamma, mpctx.loggamma
        if self.extended:
            mpctx.dps = self.dps
            i = mpctx.mpc(0, 1)
            # mpmath converts a foreign argument exactly before it computes,
            # so rsqrt(x) is sqrt(rnum(x)); ln is log without a base argument
            self.cnum, self.rnum = mpctx.mpc, mpctx.convert
            self.exp = self.rexp = mpctx.exp
            self.log = self.rlog = mpctx.ln
            self.sqrt = self.rsqrt = mpctx.sqrt
            self.cos, self.sin, self.acos = mpctx.cos, mpctx.sin, mpctx.acos
            self.expi = lambda theta: mpctx.exp(i * theta)
            self.is_finite = mpctx.isfinite
            self.prec = mpctx.prec
            mpc, mpf, ldexp = mpctx.mpc, mpctx.mpf, mpctx.ldexp

            def to_dyadic(v):
                if v.__class__ is int:
                    return v, 0, 0
                # a number of this context is at its precision already; mpc
                # converts a double exactly: it has 53 bits
                if v.__class__ is mpc:
                    parts = v._mpc_
                elif v.__class__ is mpf:
                    parts = v._mpf_, (0, 0, 0, 0)
                else:
                    parts = mpc(v)._mpc_
                (rs, rm, re, _), (is_, im, ie, _) = parts
                # mpmath's special values are the ones with a zero
                # mantissa and a nonzero exponent
                if not rm and re or not im and ie:
                    raise OverflowError(f"{v} has no dyadic value")
                if not rm:
                    re = ie
                elif not im:
                    ie = re
                e = min(re, ie)
                return ((-rm if rs else rm) << (re - e),
                        (-im if is_ else im) << (ie - e), e)

            # ldexp rounds its int argument at the context's precision,
            # then shifts it exactly
            self.to_dyadic = to_dyadic
            self.from_dyadic = lambda t: mpc(ldexp(t[0], t[2]), ldexp(t[1], t[2]))
        else:
            self.cnum, self.rnum = complex, float
            self.exp, self.log, self.sqrt = cmath.exp, cmath.log, cmath.sqrt
            self.rexp, self.rlog, self.rsqrt = math.exp, math.log, math.sqrt
            self.cos, self.sin, self.acos = math.cos, math.sin, math.acos
            self.expi = lambda theta: complex(math.cos(theta), math.sin(theta))
            self.is_finite = cmath.isfinite
            self.prec = 53

    def __repr__(self):
        return f"Context({self.mode!r}, dps={self.dps})"

    def adopt(self, v):
        """A value handed back by an escalated context, as a value of this
        one: an mpmath number is copied exactly into this context's mpmath
        context (53-bit for a standard context, so that further arithmetic
        on it rounds like double precision), anything else is unchanged."""
        if isinstance(v, (int, float, complex)):
            return v
        return self._mpctx.convert(v)


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


def escalate(build, ctx: Context, predicted_lost: float = 0.0, keep=None):
    """The one precision-escalation loop.  Runs ``build(c) -> (value, lost,
    result)``, ``lost`` the digits the value lost to cancellation, until the
    value keeps ``keep`` digits (by default 12.5 in a standard attempt, 16 in
    an extended one) or keeps none twice running; returns (value, result, c).
    The first attempt runs in ``ctx``, or at ``predicted_lost`` + 20 digits
    where a standard ``ctx`` would miss its target; up to three more run at
    the loss + ``keep`` + 6 digits, at least 10 above the last and 20 past
    ``predicted_lost``.  Raises RangeError if the last attempt overflows,
    else PrecisionError."""
    keeps = (12.5, 16.0) if keep is None else (keep, keep)  # standard, extended
    c, vanished = ctx, False
    if not ctx.extended and predicted_lost > STANDARD_DIGITS - keeps[0]:
        c = extended_context(int(predicted_lost) + 20)
    for attempt in range(4):
        if attempt:
            c = extended_context(max(nxt, c.dps + 10, int(predicted_lost) + 20))
        try:
            value, lost, result = build(c)
            finite = c.is_finite(value)
        except OverflowError:
            finite = False
        if finite:
            kept = (c.dps if c.extended else STANDARD_DIGITS) - lost
            if kept >= keeps[c.extended] or (vanished and kept < 1):
                return value, result, c
        vanished = finite and kept < 1
        nxt = (int(lost + keeps[1]) + 6 if finite and math.isfinite(lost)
               else 2 * c.dps + 20)
    if not finite:
        raise RangeError("series evaluation failed to produce a finite value")
    raise PrecisionError(f"series evaluation kept {kept:.1f} of {keeps[c.extended]} "
                         f"digits after 4 attempts, the last at {c.dps} digits")


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
