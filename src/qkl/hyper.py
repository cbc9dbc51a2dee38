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
from itertools import count
from typing import Sequence

from .errors import (
    DenominatorPoleError,
    DivergenceError,
    ParamError,
    PoleError,
    PrecisionError,
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
# values each pair of anchors of contiguous_ladder is recurred down over
_LADDER_BLOCK = 24
# largest |s| at which a q ladder recurs: past it the backward steps damp
# the other solution of the relation too little, and each y_j is summed
_LADDER_MAX_RATIO = 0.5


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
    max_abs = 0
    prev_abs = None
    recent_ratio = 0.0
    n = -1
    status = SeriesStatus.MAX_TERMS_REACHED
    tail = 0.0
    for n, term in enumerate(term_iter):
        total += term
        a = abs(term)
        if a > max_abs:
            max_abs = a
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
    return SeriesEval(total, n + 1, tail, status, ctx.mode, log10_abs(max_abs))


def worst_status(statuses) -> SeriesStatus:
    """The worst of some stop statuses: a term cap, else a convergence (a
    truncated sum), else a termination."""
    statuses = set(statuses)
    for worse in (SeriesStatus.MAX_TERMS_REACHED, SeriesStatus.CONVERGED):
        if worse in statuses:
            return worse
    return SeriesStatus.TERMINATED_FINITE


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
            num = 1
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
            num = 1
            for u in up:
                num *= 1 - u * qn
            den = 1 - qc * qn
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
            den = 1 - qc * qn
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
    """Run ``build(c) -> (value, SeriesEval)`` escalating precision, at most
    four attempts, until the cancellation-adjusted digit count is adequate or
    the value vanishes; returns the value, its SeriesEval and the context of
    the attempt that produced them.

    Used by every terminating-series polynomial evaluation: the definitional
    sums lose digits like q^(-n(n-1)/2) (q-families) or (1+|z|)^n (classical),
    so fixed precision cannot honour the accuracy contracts at high degree.
    A value that keeps no significant digit on two successive attempts (an
    exact 0 included) vanishes to the working precision; the second of them
    runs at least 20 digits past ``predicted_lost``.  Raises RangeError when
    the last attempt overflows, and PrecisionError when it is finite but
    still misses its digit target.
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
    if not finite:
        raise RangeError("series evaluation failed to produce a finite value")
    raise PrecisionError(f"series evaluation kept {kept:.1f} of {keep} digits "
                         f"after 4 attempts, the last at {c.dps} digits")


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


def _ladder(anchor, step, s=0):
    """The block driver of every contiguous ladder: yields y_0, y_1, ... as
    SeriesEval, each block recurred backward from two summed anchors.

    ``anchor(j)`` sums y_j; ``step(j)`` returns (alpha, beta) with
    y_{j-1} = alpha y_j - beta y_{j+1}, raising PoleError through
    :func:`_divisors` where a divisor vanishes.  Each block starts with the
    anchors y_J and y_{J+1}, J being ``_LADDER_BLOCK`` past the block's first
    j, recurs down to that first j, and yields its values and both anchors;
    the next block starts at J + 2.  The fields of a yielded SeriesEval other
    than its value describe its block's anchors: their terms together, the
    larger tail estimate and the worse stop status, so an anchor stopped at
    its term cap marks every value recurred from it.

    ``s`` is the ratio by which the relation's other solution shrinks at
    each backward step once j is large (the q relations tend to
    y_{j-1} = (1 + s) y_j - s y_{j+1}).  Backward recurrence damps an error
    along that solution only while |s| < 1, and damps it too little near 1:
    past ``_LADDER_MAX_RATIO`` every y_j is ``anchor(j)``, summed directly.
    :func:`contiguous_ladder` leaves ``s`` at 0: for real z < 1 its y_j is
    minimal at every j.
    """
    if abs(s) > _LADDER_MAX_RATIO:
        yield from map(anchor, count())
        return
    j0 = 0
    while True:
        top = j0 + _LADDER_BLOCK
        hi, lo = anchor(top + 1), anchor(top)
        status = worst_status((hi.status, lo.status))
        terms = hi.terms_used + lo.terms_used
        tail = max(hi.tail_estimate, lo.tail_estimate)
        ys = [hi.value, lo.value]
        for j in range(top, j0, -1):
            alpha, beta = step(j)
            ys.append(alpha * ys[-1] - beta * ys[-2])
        for y in reversed(ys):
            yield SeriesEval(y, terms, tail, status, lo.precision)
        j0 = top + 2


def _divisors(j, *divs):
    """PoleError unless every divisor of the step from j to j - 1 is nonzero."""
    if 0 in divs:
        raise PoleError(f"contiguous ladder: zero divisor from j = {j} to {j - 1}")


def contiguous_ladder(upper: Sequence, c, z, policy: TruncationPolicy | None = None,
                      ctx: Context = STANDARD):
    """Yields y_j = 2F1(a+j, b+j; c+2j; z) for j = 0, 1, ... given
    ``upper = (a, b)``, or the confluent 1F1(a+j; c+2j; z) given
    ``upper = (a,)``, each as a SeriesEval.

    With A = a + j, B = b + j and C = c + 2j the values satisfy the
    contiguous relation y_{j-1} = (1 + z q_j) y_j - z^2 p_j y_{j+1}, where

        2F1: q_j = (2AB - AC - BC + C) / (C (C-2)),
             p_j = AB (A-C)(B-C) / (C^2 (C-1)(C+1));
        1F1: q_j = (2A - C) / (C (C-2)),  p_j = A (A-C) / (C^2 (C-1)(C+1)).

    For real z < 1, y_j is its minimal solution: it decays like
    (2 / (1 + sqrt(1-z)))^{2j} while a dominant one grows, so the relation is
    run backward only (Gil, Segura and Temme, "The ABC of hyper recursions",
    J. Comput. Appl. Math. 190, 2006): that way the part of an error that
    lies along a dominant solution shrinks.  :func:`_ladder` runs the blocks;
    the anchors are summed by :func:`gauss_2f1` (:func:`hyp_pfq` for 1F1) in
    ``ctx`` under ``policy``.  A step whose divisor C (C-2)(C^2-1) vanishes
    raises PoleError.
    """
    up = [ctx.cnum(u) for u in upper]
    cc, zc = ctx.cnum(c), ctx.cnum(z)
    z2 = zc * zc

    def anchor(j):
        if len(up) == 2:
            return gauss_2f1(up[0] + j, up[1] + j, cc + 2 * j, z, policy, ctx)
        return hyp_pfq([up[0] + j], [cc + 2 * j], z, policy, ctx)

    def step(j):
        A, C = up[0] + j, cc + 2 * j
        down, down2 = C * (C - 2), C * C * (C * C - 1)
        _divisors(j, down, down2)
        if len(up) == 2:
            B = up[1] + j
            q = (2 * A * B - (A + B) * C + C) / down
            p = A * B * (A - C) * (B - C) / down2
        else:
            q = (2 * A - C) / down
            p = A * (A - C) / down2
        return 1 + zc * q, z2 * p

    return _ladder(anchor, step)


def phi21_ladder(a, b, c, q, z, policy: TruncationPolicy | None = None,
                 ctx: Context = STANDARD):
    """Yields y_j = 2phi1(a, b q^j; c q^j; q, z) for j = 0, 1, ... as
    SeriesEval.

    With B = b q^j and C = c q^j the values satisfy the contiguous relation

        y_{j-1} = (a z - B z - C + q) / (q - C) y_j
                  - z (B - 1)(a - C) / ((q - C)(C - 1)) y_{j+1}.

    As j grows the relation tends to y_{j-1} = (1 + s) y_j - s y_{j+1} with
    s = a z / q, whose solutions tend to a constant and to s^{-j}.  So for
    |a z| < q, y_j (which tends to (a z; q)_inf / (z; q)_inf) is its minimal
    solution, and the relation runs backward only, on the blocks of
    :func:`_ladder`, from anchors summed by :func:`bhs_rphis` in ``ctx``
    under ``policy``; for |s| past ``_LADDER_MAX_RATIO`` every y_j is summed
    so.  Every coefficient is built in ``ctx``.  A vanishing
    (q - C)(C - 1) raises PoleError.
    """
    qq = _qval(q)
    qc = ctx.rnum(qq)
    aa, bb, cc, zc = ctx.cnum(a), ctx.cnum(b), ctx.cnum(c), ctx.cnum(z)

    def anchor(j):
        qj = qc ** j
        return bhs_rphis([aa, bb * qj], [cc * qj], qq, zc, policy, ctx)

    def step(j):
        qj = qc ** j
        B, C = bb * qj, cc * qj
        _divisors(j, qc - C, C - 1)
        return ((aa * zc - B * zc - C + qc) / (qc - C),
                zc * (B - 1) * (aa - C) / ((qc - C) * (C - 1)))

    return _ladder(anchor, step, aa * zc / qc)


def phi32_ladder(u: Sequence, rho: Sequence, w, omega, q,
                 policy: TruncationPolicy | None = None, ctx: Context = STANDARD):
    """Yields y_j = 3phi2(u1 q^j, u2 q^j, w; w rho1 q^j, w rho2 q^j; q, z) for
    j = 0, 1, ... as SeriesEval, at z = w / omega, given ``u = (u1, u2)`` and
    ``rho = (rho1, rho2)`` with u1 u2 = omega rho1 rho2.

    With U_i = u_i q^j and V_i = w rho_i q^j, that condition makes z the
    natural argument V1 V2 / (U1 U2 w) at every j, and only there does the
    series have the contiguous relation

        (q - V1)(q - V2) y_{j-1} = M_j y_j - K_j y_{j+1},
        M_j = (q - V1)(q - V2)
              + [q (w - U1)(w - U2) - U1 U2 (1 - w)(q - w)] / omega,
        K_j = q (w - V1)(w - V2)(1 - U1)(1 - U2)
              / (omega (1 - V1)(1 - V2)).

    omega = w / z is passed on its own because it stays finite where
    w = z = 0 (every y_j is then 1) and where a u_i and a rho_i vanish
    together.  As j grows the relation tends to y_{j-1} = (1 + s) y_j
    - s y_{j+1} with s = w z / q, so for |w z| < q, y_j is its minimal
    solution, and the relation runs backward only, on the blocks of
    :func:`_ladder`, from anchors summed by :func:`bhs_rphis` in ``ctx``
    under ``policy``; for |s| past ``_LADDER_MAX_RATIO`` every y_j is summed
    so.  Every coefficient is built in ``ctx``.  A vanishing divisor raises
    PoleError.
    """
    qq = _qval(q)
    qc = ctx.rnum(qq)
    u1, u2, r1, r2 = (ctx.cnum(x) for x in (*u, *rho))
    ww, om = ctx.cnum(w), ctx.cnum(omega)
    if om == 0:
        raise PoleError("phi32_ladder: omega = w / z must be nonzero")
    v1, v2 = ww * r1, ww * r2
    zc = ww / om

    def anchor(j):
        qj = qc ** j
        return bhs_rphis([u1 * qj, u2 * qj, ww], [v1 * qj, v2 * qj], qq, zc,
                         policy, ctx)

    def step(j):
        qj = qc ** j
        U1, U2, V1, V2 = u1 * qj, u2 * qj, v1 * qj, v2 * qj
        down = (qc - V1) * (qc - V2)
        _divisors(j, down, (1 - V1) * (1 - V2))
        m = down + (qc * (ww - U1) * (ww - U2) - U1 * U2 * (1 - ww) * (qc - ww)) / om
        k = (qc * (ww - V1) * (ww - V2) * (1 - U1) * (1 - U2)
             / (om * (1 - V1) * (1 - V2)))
        return m / down, k / down

    return _ladder(anchor, step, ww * zc / qc)


def vwp_ladder(a, b: Sequence, ratio, q, policy: TruncationPolicy | None = None,
               ctx: Context = STANDARD):
    """Yields y_j = 8W7(a q^{2j}; b1 q^j, ..., b4 q^j, b5; q, z) for
    j = 0, 1, ... as SeriesEval, given ``b = (b1, ..., b4)``, where
    b5 = a / ratio and z = ratio a q^2 / (b1 b2 b3 b4) is Watson's natural
    argument a^2 q^2 / (b1 b2 b3 b4 b5).

    With A = a q^{2j}, B_i = b_i q^j and r = ratio q^{2j} = A / b5, z keeps
    its natural value at every j, and only there does the series have the
    contiguous relation y_{j-1} = alpha_j y_j - beta_j y_{j+1}, where

        alpha_j = 1 + r A / ((q - 1) prod_i (B_i - A))
                  * [(q - A)(q - b5) prod_i (1 - B_i) / (1 - r q)
                     - (1 - A)(1 - b5) prod_i (q - B_i) / (q (q - r))],
        beta_j = A^2 (q - A)(1 - A)(1 - A q)(1 - A q^2)
                 prod_i (1 - B_i)(B_i - r q) / ((B_i - A)(B_i - A q))
                 / ((1 - r)(1 - r q)^2 (1 - r q^2)),

    products over i = 1..4 (a q-Zeilberger certificate, rational in q^n,
    proves it; Gupta and Masson, "Contiguous relations, continued fractions
    and orthogonality", Trans. AMS 350, 1998, study relations of this kind).
    Taking b5 and z from ``ratio`` keeps the condition exact in ``ctx``, and
    keeps a = b5 = z = 0 an ordinary point: there alpha_j = 1, beta_j = 0
    and every y_j is 1.  A zero ratio or b_i leaves z undefined and raises
    PoleError.  As j grows the relation tends to y_{j-1} = (1 + s) y_j
    - s y_{j+1} with s = b5 z / q, so for |b5 z| < q, y_j is its minimal
    solution, and the relation runs backward only, on the blocks of
    :func:`_ladder`, from anchors summed by :func:`vwp_8w7` in ``ctx`` under
    ``policy``; for |s| past ``_LADDER_MAX_RATIO`` every y_j is summed so.
    Every coefficient is built in ``ctx``, with the factors grouped so that
    no product of powers of q^j underflows where the quotient does not.  A
    vanishing divisor raises PoleError.
    """
    qq = _qval(q)
    qc = ctx.rnum(qq)
    aa, rr = ctx.cnum(a), ctx.cnum(ratio)
    bs = [ctx.cnum(x) for x in b]
    if 0 in (rr, *bs):
        raise PoleError("vwp_ladder: the natural argument needs ratio and b1..b4 nonzero")
    b5c = aa / rr
    zc = rr * aa * qc * qc / (bs[0] * bs[1] * bs[2] * bs[3])

    def anchor(j):
        qj = qc ** j
        return vwp_8w7(aa * qj * qj, [x * qj for x in bs] + [b5c], qq, zc, policy, ctx)

    def step(j):
        qj = qc ** j
        A, r = aa * qj * qj, rr * qj * qj
        B = [x * qj for x in bs]
        gaps, qgaps = [x - A for x in B], [x - A * qc for x in B]
        _divisors(j, (qc - 1) * (1 - r) * (1 - r * qc) * (qc - r) * (1 - r * qc * qc),
                  *gaps, *qgaps)
        ones, qs = 1, 1
        for x in B:
            ones *= 1 - x
            qs *= qc - x
        # r A / prod_i (B_i - A) and A^2 prod_i (B_i - r q) / ((B_i - A)
        # (B_i - A q)) are O(1) while their numerators and denominators
        # scale like q^{4j}: divided factor by factor
        f = [(1 - x) * ((x - r * qc) / g) / h for x, g, h in zip(B, gaps, qgaps)]
        alpha = 1 + r / gaps[0] / gaps[1] * (A / gaps[2] / gaps[3]) / (qc - 1) * (
            (qc - A) * (qc - b5c) * ones / (1 - r * qc)
            - (1 - A) * (1 - b5c) * qs / (qc * (qc - r)))
        beta = (A * f[0] * f[1] * (A * f[2] * f[3])
                * (qc - A) * (1 - A) * (1 - A * qc) * (1 - A * qc * qc)
                / ((1 - r) * (1 - r * qc) ** 2 * (1 - r * qc * qc)))
        return alpha, beta

    return _ladder(anchor, step, b5c * zc / qc)
