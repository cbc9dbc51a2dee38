"""Generalized hypergeometric pFq, basic hypergeometric r-phi-s, and the
very-well-poised 8W7, under one truncation/convergence policy.

Series values are returned as :class:`SeriesEval`, carrying the truncation
metadata needed by the identity drivers (terms used, tail estimate, the
largest term magnitude seen, and the precision mode of the computation).
"""
from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import (
    DenominatorPoleError,
    DivergenceError,
    ParamError,
    RangeError,
    VWPoleError,
)
from .numerics import STANDARD, Context, extended_context, log10_abs
from .series import _INT_TOL, _qval, as_nonneg_int, complex_pow_principal

_ESCALATE_BAND = (0.9, 1.0)  # |z| band that triggers extended precision
_DIVERGENT = {"pFq": "p > q+1", "rphis": "r > s+1"}  # kind -> divergent order
# digits a stable_eval value must keep after cancellation, by precision mode
_KEEP_STANDARD = 12.5
_KEEP_EXTENDED = 16.0


class SeriesStatus(enum.Enum):
    CONVERGED = "Converged"
    TERMINATED_FINITE = "TerminatedFinite"
    MAX_TERMS_REACHED = "MaxTermsReached"


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule shared by every infinite-series evaluation."""

    max_terms: int = 10000
    tail_tol: float = 1e-15
    quiet_window: int = 3

    def __post_init__(self):
        if not (0 < self.tail_tol < 1):
            raise ParamError("tail_tol must lie in (0, 1)")
        if self.quiet_window < 1:
            raise ParamError("quiet_window must be >= 1")
        if self.max_terms < 1:
            raise ParamError("max_terms must be >= 1")


def default_policy() -> TruncationPolicy:
    """Default policy; QKL_MAX_TERMS overrides the term cap."""
    cap = os.environ.get("QKL_MAX_TERMS")
    if cap is not None:
        return TruncationPolicy(max_terms=int(cap))
    return TruncationPolicy()


@dataclass
class SeriesEval:
    value: complex
    terms_used: int
    tail_estimate: float
    status: SeriesStatus
    precision: str = "standard"
    max_term_log10: float = float("-inf")

    def cancellation_digits(self) -> float:
        """Decimal digits lost to cancellation in this summation."""
        if self.max_term_log10 == float("-inf"):
            return 0.0
        v = log10_abs(self.value)
        if v == float("-inf"):
            return float("inf")
        return max(0.0, self.max_term_log10
                   + math.log10(max(self.terms_used, 1)) - v)


def accumulate(term_iter, policy: TruncationPolicy, ctx: Context,
               stop_index: int | None = None) -> SeriesEval:
    """Sum terms from an iterator under the shared convergence protocol.

    Non-terminating series converge after ``quiet_window`` consecutive terms
    below tail_tol * |partial sum|, with a geometric tail estimate from the
    largest recent term ratio.  Terminating series (``stop_index`` given) are
    summed through the stop index exactly, so they are policy-independent.
    """
    total = ctx.cnum(0)
    quiet = 0
    max_term_log = float("-inf")
    prev_abs = None
    recent_ratio = 0.0
    n = -1
    status = SeriesStatus.MAX_TERMS_REACHED
    tail = 0.0
    for n, term in enumerate(term_iter):
        total += term
        a = abs(term)
        max_term_log = max(max_term_log, log10_abs(term))
        if stop_index is not None:
            if n >= stop_index:
                status = SeriesStatus.TERMINATED_FINITE
                tail = 0.0
                break
            continue
        if prev_abs is not None and prev_abs > 0:
            try:
                r = float(a / prev_abs)
            except (OverflowError, ValueError):
                r = float("inf")
            recent_ratio = max(recent_ratio * 0.5, r)
        prev_abs = a
        if a <= policy.tail_tol * abs(total) or a == 0:
            quiet += 1
            if quiet >= policy.quiet_window:
                status = SeriesStatus.CONVERGED
                rho = recent_ratio
                af = _safe_float(a)
                tail = af * rho / (1 - rho) if 0 < rho < 1 else af
                break
        else:
            quiet = 0
        if n + 1 >= policy.max_terms:
            status = SeriesStatus.MAX_TERMS_REACHED
            tail = _safe_float(a)
            break
    return SeriesEval(total, n + 1, tail, status, ctx.mode, max_term_log)


def _safe_float(x) -> float:
    try:
        return float(x)
    except (OverflowError, ValueError):
        return float("inf")


def detect_termination(upper: Sequence, q=None, tol: float = _INT_TOL):
    """Smallest n with an upper parameter equal to -n (classical) or q^{-n}
    (basic), within tolerance; None when the series does not terminate."""
    best = None
    qq = None if q is None else _qval(q)
    for u in upper:
        m = as_nonneg_int(u, tol) if qq is None else _q_power_index(u, qq, tol)
        if m is not None and (best is None or m < best):
            best = m
    return best


def _q_power_index(u, q: float, tol: float = _INT_TOL):
    """m >= 0 with u == q^{-m} within relative tolerance, else None."""
    try:
        uc = complex(u)
        au = abs(uc)
        if not math.isfinite(au) or au < 1.0 - 1e-9 or abs(uc.imag) > tol * au:
            return None
        m = round(-math.log(au) / math.log(q))
        if m < 0:
            return None
        if abs(uc - q ** (-m)) <= tol * max(1.0, au):
            return m
    except (OverflowError, ValueError):
        return None
    return None


def _pole_index(lower: Sequence, q=None):
    """First n with a vanishing denominator: a lower parameter -m
    (classical) or q^{-m} (basic) zeroes (l)_n or (l; q)_n at n = m + 1."""
    m = detect_termination(lower, q)
    return None if m is None else m + 1


def _check_poles(stop, pole, kind: str):
    """Termination wins iff every summed term precedes the pole."""
    if pole is None:
        return
    if stop is None or stop >= pole:
        raise DenominatorPoleError(
            f"{kind} lower parameter pole at term {pole} before termination")


def _sum_series(kind: str, excess: int, stop, pole, z, terms, again,
                policy: TruncationPolicy | None, ctx: Context) -> SeriesEval:
    """The protocol shared by every series engine.

    ``excess`` is the number of upper parameters beyond (lower + 1): positive
    diverges unless terminating, zero converges only for |z| < 1 and near the
    boundary re-runs the engine through ``again(policy, ctx)`` at extended
    precision, whose value comes back as a value of ``ctx``.  ``terms()``
    yields the summands in ``ctx``'s backend.
    """
    policy = policy or default_policy()
    _check_poles(stop, pole, kind)
    az = abs(complex(z))
    if stop is None:
        if excess > 0:
            raise DivergenceError(
                f"{kind} with {_DIVERGENT[kind]} diverges unless terminating")
        if excess == 0:
            if az >= 1.0:
                raise DivergenceError(f"{kind} boundary |z| = {az} >= 1")
            if _ESCALATE_BAND[0] < az < _ESCALATE_BAND[1] and not ctx.extended:
                ev = again(replace(policy, max_terms=max(policy.max_terms, 100000)),
                           extended_context(40))
                ev.value = ctx.adopt(ev.value)
                return ev
    return accumulate(terms(), policy, ctx, stop_index=stop)


def hyp_pfq(upper: Sequence, lower: Sequence, z, policy: TruncationPolicy | None = None,
            ctx: Context = STANDARD) -> SeriesEval:
    """Generalized hypergeometric series sum_n prod(upper)_n z^n / (prod(lower)_n n!).

    Terminating evaluation for any z; otherwise p <= q converges everywhere
    and p = q+1 requires |z| < 1 (near the boundary the evaluation escalates
    to extended precision per policy).
    """

    def terms():
        up = [ctx.cnum(u) for u in upper]
        lo = [ctx.cnum(l) for l in lower]
        zc = ctx.cnum(z)
        term = ctx.cnum(1)
        yield term
        n = 0
        while True:
            num = ctx.cnum(1)
            for u in up:
                num *= u + n
            den = ctx.cnum(n + 1)
            for l in lo:
                den *= l + n
            term = term * num / den * zc
            yield term
            n += 1

    return _sum_series("pFq", len(upper) - len(lower) - 1,
                       detect_termination(upper), _pole_index(lower),
                       z, terms, lambda pol, c: hyp_pfq(upper, lower, z, pol, c),
                       policy, ctx)


def bhs_rphis(upper: Sequence, lower: Sequence, q, z,
              policy: TruncationPolicy | None = None,
              ctx: Context = STANDARD) -> SeriesEval:
    """Basic hypergeometric series r-phi-s with the Gasper-Rahman convention:
    the factor ((-1)^n q^(n choose 2))^(1+s-r) is applied when r < s+1.

    Zero parameters are legal on either side: (0; q)_n = 1.
    """
    qq = _qval(q)
    extra = 1 + len(lower) - len(upper)

    def terms():
        up = [ctx.cnum(u) for u in upper]
        lo = [ctx.cnum(l) for l in lower]
        zc = ctx.cnum(z)
        qc = ctx.rnum(qq)
        term = ctx.cnum(1)
        yield term
        qn = ctx.cnum(1)
        while True:
            num = ctx.cnum(1)
            for u in up:
                num *= 1 - u * qn
            den = ctx.cnum(1 - qc * qn)
            for l in lo:
                den *= 1 - l * qn
            factor = num / den * zc
            if extra:
                factor *= (-qn) ** extra
            term = term * factor
            qn *= qc
            yield term

    return _sum_series("rphis", -extra, detect_termination(upper, qq),
                       _pole_index(lower, qq), z, terms,
                       lambda pol, c: bhs_rphis(upper, lower, q, z, pol, c),
                       policy, ctx)


def vwp_8w7(a, b5: Sequence, q, z, policy: TruncationPolicy | None = None,
            ctx: Context = STANDARD) -> SeriesEval:
    """Very-well-poised 8W7(a; b1..b5; q, z):

        sum_n (1 - a q^{2n}) / (1 - a) * (a; q)_n prod_i (b_i; q)_n
              / ((q; q)_n prod_i (a q / b_i; q)_n) * z^n.

    A zero b_i is legal only with a = 0, whose denominator a q / b_i is 0.
    """
    qq = _qval(q)
    if len(b5) != 5:
        raise ParamError("vwp_8w7 expects exactly five numerator parameters")
    ac = complex(a)
    if abs(ac - 1.0) <= _INT_TOL * max(1.0, abs(ac)):
        raise VWPoleError("very-well-poised series undefined at a = 1")
    if any(complex(b) == 0 for b in b5) and ac != 0:
        raise ParamError("b_i = 0 with a != 0 leaves the denominator a q / b_i undefined")
    denoms = [0 if complex(b) == 0 else a * qq / b for b in b5]

    def terms():
        aa = ctx.cnum(a)
        bs = [ctx.cnum(b) for b in b5]
        ds = [ctx.cnum(d) for d in denoms]
        zc = ctx.cnum(z)
        qc = ctx.rnum(qq)
        # base_n excludes the (1 - a q^{2n}) factor so its zeros never
        # enter a ratio denominator
        base = ctx.cnum(1) / (1 - aa)
        yield base * (1 - aa)
        qn = ctx.cnum(1)
        q2n = ctx.cnum(1)
        while True:
            num = (1 - aa * qn) * zc
            den = ctx.cnum(1 - qc * qn)
            for b, d in zip(bs, ds):
                num *= 1 - b * qn
                den *= 1 - d * qn
            base = base * num / den
            qn *= qc
            q2n *= qc * qc
            yield base * (1 - aa * q2n)

    return _sum_series("8W7", 0, detect_termination(b5, qq),
                       _pole_index(denoms, qq), z, terms,
                       lambda pol, c: vwp_8w7(a, b5, q, z, pol, c),
                       policy, ctx)


def stable_eval(build, ctx: Context, predicted_lost: float = 0.0):
    """Run ``build(c) -> (value, SeriesEval)`` escalating precision until the
    cancellation-adjusted digit count is adequate, the value vanishes, or
    attempts run out; returns the value, its SeriesEval and the context of the
    attempt that produced them.

    Used by every terminating-series polynomial evaluation: the definitional
    sums lose digits like q^(-n(n-1)/2) (q-families) or (1+|z|)^n (classical),
    so fixed precision cannot honour the accuracy contracts at high degree.
    A value that keeps no significant digit on two successive attempts (an
    exact 0 included) vanishes to the working precision; the second of them
    runs at least 20 digits past ``predicted_lost``.  Raises RangeError when
    the last attempt overflows.
    """
    c = ctx
    if not ctx.extended and predicted_lost > 15.95 - _KEEP_STANDARD:
        c = extended_context(int(predicted_lost) + 20)
    vanished = False
    for attempt in range(4):
        if attempt:
            c = extended_context(max(nxt, c.dps + 10, int(predicted_lost) + 20))
        try:
            value, ev = build(c)
            finite = c.is_finite(value)
        except OverflowError:
            value, ev, finite = None, None, False
        if finite:
            lost = ev.cancellation_digits()
            kept = (15.95 if not c.extended else c.dps) - lost
            keep = _KEEP_STANDARD if not c.extended else _KEEP_EXTENDED
            if kept >= keep or (vanished and kept < 1):
                return value, ev, c
            vanished = kept < 1
        else:
            lost, vanished = float("inf"), False
        nxt = int(lost) + 22 if math.isfinite(lost) else 2 * c.dps + 20
    if value is None:
        raise RangeError("series evaluation failed to produce a finite value")
    return value, ev, c


def hyp_pfq_stable(upper: Sequence, lower: Sequence, z, ctx: Context = STANDARD,
                   lost_hint: float = 0.0):
    """Value of a (typically terminating) pFq summed with automatic
    cancellation-driven precision escalation."""

    def build(c: Context):
        ev = hyp_pfq(upper, lower, z, ctx=c)
        return ev.value, ev

    value, _, _ = stable_eval(build, ctx, lost_hint)
    return ctx.adopt(value)


def gauss_2f1(a, b, c, z, policy: TruncationPolicy | None = None,
              ctx: Context = STANDARD) -> SeriesEval:
    """Gauss 2F1 with automatic Pfaff transformation.

    Terminating series are summed directly for any z.  Otherwise the series
    is summed at whichever of z and z/(z-1) lies deeper inside the unit disc;
    the Pfaff route extends evaluation to the half-plane Re z < 1/2 (needed by
    the closed-form kernels, whose argument r runs far below -1), and keeps
    the summands near-positive for real z < 0.
    """
    policy = policy or default_policy()
    if detect_termination([a, b]) is not None:
        return hyp_pfq([a, b], [c], z, policy, ctx)
    zc = complex(z)
    if zc == 0:
        return hyp_pfq([a, b], [c], z, policy, ctx)
    w = zc / (zc - 1.0)
    if abs(zc) <= abs(w):
        if abs(zc) >= 1.0:
            raise DivergenceError(f"2F1 argument |z| = {abs(zc)} >= 1")
        return hyp_pfq([a, b], [c], z, policy, ctx)
    if abs(w) >= 1.0:
        raise DivergenceError(
            f"2F1 argument z = {zc} outside both unit discs (no continuation)")
    inner = hyp_pfq([a, ctx.cnum(c) - ctx.cnum(b)], [c], w, policy, ctx)
    pref = complex_pow_principal(1 - ctx.cnum(z), -ctx.cnum(a), ctx)
    inner.value = pref * inner.value
    inner.max_term_log10 += log10_abs(pref)
    inner.tail_estimate *= _safe_float(abs(pref))
    return inner
