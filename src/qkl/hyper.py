"""Generalized hypergeometric pFq, basic hypergeometric r-phi-s, and the
very-well-poised 8W7, under one truncation/convergence policy, which also
stops every sum of products of streams (:func:`sum_streams`).

Series values are returned as :class:`SeriesEval`, carrying the truncation
metadata needed by the identity drivers (terms used, tail estimate, the
largest term magnitude seen, and the precision mode of the computation).
"""
from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, replace
from itertools import count, repeat
from typing import Sequence

from .errors import (
    DenominatorPoleError,
    DivergenceError,
    ParamError,
    PoleError,
    RangeError,
    VWPoleError,
)
from .dyadic import FixedSum, Magnitude, SeriesTerms, magnitude
from .numerics import STANDARD, Context, escalate, log10_abs
from .series import _DBL_MIN, _neg_int_index, _q_power_index, _qval, complex_pow_principal

_DIVERGENT = {"pFq": "p > q+1", "rphis": "r > s+1"}  # kind -> divergent order
# values each pair of anchors of contiguous_ladder is recurred down over
_LADDER_BLOCK = 24
# largest |s| at which a q ladder recurs: past it the backward steps damp
# the other solution of the relation too little, and each y_j is summed
_LADDER_MAX_RATIO = 0.5
_VWP_POLE_TOL = 1e-12  # relative distance within which an 8W7's a is its pole 1


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

    def scale(self, factor) -> "SeriesEval":
        """This sum times ``factor``, in place: its value, largest term and
        tail estimate scale alike, so the cancellation stays the same.
        Returns ``self``."""
        self.value = factor * self.value
        self.max_term_log10 += log10_abs(factor)
        self.tail_estimate *= _safe_float(abs(factor))
        return self


def accumulate(term_iter, policy: TruncationPolicy, ctx: Context,
               stop_index: int | None = None) -> SeriesEval:
    """Sum terms from an iterator under the shared convergence protocol.

    Non-terminating series converge after ``quiet_window`` consecutive terms
    below tail_tol * |partial sum|, with a geometric tail estimate from the
    largest recent term ratio.  Terminating series (``stop_index`` given) are
    summed through the stop index exactly, so they are policy-independent;
    an iterator that runs out ends a terminating sum too.

    The terms are values of ``ctx``, or the triples of a
    :class:`dyadic.SeriesTerms`, which add up in a :class:`dyadic.FixedSum`
    and whose magnitudes compare through their exponents; the value is
    returned in ``ctx`` either way.
    """
    dyadic = isinstance(term_iter, SeriesTerms)
    total, size = (FixedSum(term_iter.wp), magnitude) if dyadic else (ctx.cnum(0), abs)
    quiet = 0
    max_abs = 0
    prev_abs = None
    recent_ratio = 0.0
    n = -1
    for n, term in enumerate(term_iter):
        total += term
        a = size(term)
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
    else:
        status, tail = SeriesStatus.TERMINATED_FINITE, 0.0
    if dyadic:
        return SeriesEval(ctx.from_dyadic(total.parts()), n + 1, tail, status,
                          ctx.mode, Magnitude.of(max_abs).log10())
    return SeriesEval(total, n + 1, tail, status, ctx.mode, log10_abs(max_abs))


def worst_status(statuses) -> SeriesStatus:
    """The worst of some stop statuses: a term cap, else a convergence (a
    truncated sum), else a termination."""
    statuses = set(statuses)
    for worse in (SeriesStatus.MAX_TERMS_REACHED, SeriesStatus.CONVERGED):
        if worse in statuses:
            return worse
    return SeriesStatus.TERMINATED_FINITE


def sum_streams(factors, policy: TruncationPolicy | None, ctx: Context) -> SeriesEval:
    """The sum over j of the left-to-right product of the j-th values of the
    streams in ``factors``, under the series stopping rule: the one place a
    term of a kernel sum or a j-sum is built.  A :class:`SeriesEval` value
    enters by its value, and its stop status joins the sum's.  The first
    stream is the coefficient; a 0 there ends the sum, terminated, and no
    other stream is pulled again (past it one may divide by zero)."""
    coefs, *streams = factors
    capped, finite = SeriesStatus.MAX_TERMS_REACHED, SeriesStatus.TERMINATED_FINITE
    worst = finite

    def terms():
        nonlocal worst
        rows = zip(*streams) if streams else repeat(())
        for co in coefs:
            if co == 0:
                return
            term = co
            for v in next(rows):
                if v.__class__ is SeriesEval:
                    if v.status is not finite and worst is not capped:
                        worst = v.status
                    v = v.value
                term = term * v
            yield term

    ev = accumulate(terms(), policy or default_policy(), ctx)
    ev.status = worst_status((ev.status, worst))
    return ev


def _safe_float(x) -> float:
    try:
        return float(x)
    except (OverflowError, ValueError):
        return float("inf")


def detect_termination(upper: Sequence, q=None):
    """Smallest n with an upper parameter equal to -n (classical) or to
    q^{-n} (basic), None when the series does not terminate.  Both are
    decided exactly, in each parameter's own arithmetic, by
    ``series._neg_int_index`` and ``series._q_power_index`` (by which
    ``qpoch`` is exactly 0), as are the poles of :func:`_pole_index`: a
    parameter one rounding off leaves its series infinite."""
    best = None
    qq = None if q is None else _qval(q)
    for u in upper:
        m = _neg_int_index(u) if qq is None else _q_power_index(u, qq)
        if m is not None and (best is None or m < best):
            best = m
    return best


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


def _sum_series(kind: str, excess: int, stop, pole, num, den, z, again,
                policy: TruncationPolicy | None, ctx: Context, q=None, head=1,
                weight=None) -> SeriesEval:
    """The protocol shared by every series engine, and its one declaration
    of a series: ``num``, ``den``, ``z``, ``q``, ``head`` and ``weight``,
    values of ``ctx``, are the factor lists and values of
    :class:`dyadic.SeriesTerms`, which sums the terms on Python integers in
    an extended ``ctx``; :func:`_float_terms` yields them in a standard one.

    ``excess`` is the number of upper parameters beyond (lower + 1): positive
    diverges unless terminating, zero converges only for |z| < 1 and past
    |z| = 0.9 in a standard ``ctx`` escalates ``again(policy, c)``, first at
    40 digits, its value coming back as a value of ``ctx``.
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
            if az > 0.9 and not ctx.extended:
                wide = replace(policy, max_terms=max(policy.max_terms, 100000))

                def attempt(c):
                    ev = again(wide, c)
                    return ev.value, ev.cancellation_digits(), ev

                _, ev, _ = escalate(attempt, ctx, predicted_lost=20)
                ev.value = ctx.adopt(ev.value)
                return ev
    if not ctx.extended:
        terms = _float_terms(num, den, z, q, head, weight)
    else:
        d = ctx.to_dyadic

        def pairs(factors):
            return [(d(c), d(s)) for c, s in factors]

        terms = SeriesTerms(pairs(num), pairs(den), d(z), ctx.prec,
                            q=None if q is None else d(q), head=d(head),
                            weight=None if weight is None else tuple(map(d, weight)))
    return accumulate(terms, policy, ctx, stop_index=stop)


def _float_terms(num, den, z, q, head, weight):
    """The terms of :func:`_sum_series`'s series in doubles: from one term
    to the next, term * N(x) / D(x) * z, each product taken factor by
    factor in its list's order from 1; x_m is m, or q^m carried as a
    running product.  The weight multiplies a term as it is yielded."""
    term, x = head, 0 if q is None else 1.0
    while True:
        yield term if weight is None else term * (weight[0] + weight[1] * (x * x))
        up = down = 1
        for c, s in num:
            up *= c + s * x
        for c, s in den:
            down *= c + s * x
        term = term * up / down * z
        x = x + 1 if q is None else x * q


def hyp_pfq(upper: Sequence, lower: Sequence, z, policy: TruncationPolicy | None = None,
            ctx: Context = STANDARD) -> SeriesEval:
    """Generalized hypergeometric series sum_n prod(upper)_n z^n / (prod(lower)_n n!).

    Terminating evaluation for any z; otherwise p <= q converges everywhere
    and p = q+1 requires |z| < 1 (past |z| = 0.9 a standard evaluation
    escalates to extended precision on its measured cancellation).
    """
    return _sum_series("pFq", len(upper) - len(lower) - 1,
                       detect_termination(upper), _pole_index(lower),
                       [(ctx.cnum(u), 1) for u in upper],
                       [(1, 1)] + [(ctx.cnum(l), 1) for l in lower], ctx.cnum(z),
                       lambda pol, c: hyp_pfq(upper, lower, z, pol, c), policy, ctx)


def bhs_rphis(upper: Sequence, lower: Sequence, q, z,
              policy: TruncationPolicy | None = None,
              ctx: Context = STANDARD) -> SeriesEval:
    """Basic hypergeometric series r-phi-s with the Gasper-Rahman convention:
    the factor ((-1)^n q^(n choose 2))^(1+s-r) is applied when r < s+1.

    Zero parameters are legal on either side: (0; q)_n = 1.
    """
    qq = _qval(q)
    qc = ctx.rnum(qq)
    extra = 1 + len(lower) - len(upper)
    # (-q^n)^extra is extra factors 0 - q^n above, or -extra below
    return _sum_series("rphis", -extra, detect_termination(upper, qq),
                       _pole_index(lower, qq),
                       [(1, -ctx.cnum(u)) for u in upper] + [(0, -1)] * max(extra, 0),
                       [(1, -qc)] + [(1, -ctx.cnum(l)) for l in lower]
                       + [(0, -1)] * max(-extra, 0), ctx.cnum(z),
                       lambda pol, c: bhs_rphis(upper, lower, q, z, pol, c),
                       policy, ctx, q=qc)


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
    if abs(ac - 1.0) <= _VWP_POLE_TOL * max(1.0, abs(ac)):
        raise VWPoleError("very-well-poised series undefined at a = 1")
    if any(complex(b) == 0 for b in b5) and ac != 0:
        raise ParamError("b_i = 0 with a != 0 leaves the denominator a q / b_i undefined")
    denoms = [0 if complex(b) == 0 else a * qq / b for b in b5]
    aa, qc = ctx.cnum(a), ctx.rnum(qq)
    # the head 1 / (1 - a) and the weight 1 - a q^{2n} keep the zeros of
    # (1 - a q^{2n}) out of every ratio
    return _sum_series("8W7", 0, detect_termination(b5, qq), _pole_index(denoms, qq),
                       [(1, -aa)] + [(1, -ctx.cnum(b)) for b in b5],
                       [(1, -qc)] + [(1, -ctx.cnum(d)) for d in denoms], ctx.cnum(z),
                       lambda pol, c: vwp_8w7(a, b5, q, z, pol, c), policy, ctx,
                       q=qc, head=ctx.cnum(1) / (1 - aa), weight=(1, -aa))


def stable_eval(build, ctx: Context, predicted_lost: float = 0.0):
    """:func:`numerics.escalate` at its default targets for ``build(c) ->
    (value, SeriesEval)``, the loss read from the SeriesEval: the escalation
    of every definitional polynomial value, whose sum cancels with degree."""

    def measured(c: Context):
        value, ev = build(c)
        return value, ev.cancellation_digits(), ev

    return escalate(measured, ctx, predicted_lost)


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
    return inner.scale(complex_pow_principal(1 - ctx.cnum(z), -ctx.cnum(a), ctx))


def _ladder(anchor, step, s=0):
    """The block driver of every contiguous ladder: yields y_0, y_1, ... as
    SeriesEval, each block recurred backward from two summed anchors.

    ``anchor(j)`` sums y_j; ``step(j)`` returns (alpha, beta) with
    y_{j-1} = alpha y_j - beta y_{j+1}, raising the PoleError of
    :func:`_zero_divisor` where a divisor vanishes.  Each block starts with
    the anchors y_J and y_{J+1}, J being ``_LADDER_BLOCK`` past the block's
    first j, recurs down to that first j, and yields its values and both
    anchors; the next block starts at J + 2.  The fields of a yielded SeriesEval other
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


def _zero_divisor(j):
    """The PoleError of a ladder step from j to j - 1 that divides by 0."""
    return PoleError(f"contiguous ladder: zero divisor from j = {j} to {j - 1}")


def _divisors(j, *divs):
    """PoleError unless every divisor of the step from j to j - 1 is nonzero."""
    if 0 in divs:
        raise _zero_divisor(j)


def contiguous_ladder(upper: Sequence, c, z, policy: TruncationPolicy | None = None,
                      ctx: Context = STANDARD):
    """Yields y_j = 2F1(a+j, b+j; c+2j; z) for j = 0, 1, ... given
    ``upper = (a, b)``, the confluent 1F1(a+j; c+2j; z) given
    ``upper = (a,)``, or its own confluent limit 0F1(; c+2j; z) given
    ``upper = ()``, each as a SeriesEval.

    With A = a + j, B = b + j and C = c + 2j the values satisfy the
    contiguous relation y_{j-1} = (1 + z q_j) y_j - z^2 p_j y_{j+1}, where

        2F1: q_j = (2AB - AC - BC + C) / (C (C-2)),
             p_j = AB (A-C)(B-C) / (C^2 (C-1)(C+1));
        1F1: q_j = (2A - C) / (C (C-2)),  p_j = A (A-C) / (C^2 (C-1)(C+1));
        0F1: q_j = 2 / (C (C-2)),         p_j = 1 / (C^2 (C-1)(C+1)),

    the 0F1 relation being the limit of the 1F1 one at argument z / a as a
    grows.  For real z < 1 (any z for 0F1), y_j is its minimal solution: the
    2F1 and 1F1 values decay like (2 / (1 + sqrt(1-z)))^{2j} and the 0F1
    values tend to 1, while a dominant solution grows, so the relation is
    run backward only (Gil, Segura and Temme, "The ABC of hyper recursions",
    J. Comput. Appl. Math. 190, 2006): that way the part of an error that
    lies along a dominant solution shrinks.  :func:`_ladder` runs the blocks; the anchors
    are summed by :func:`gauss_2f1` (:func:`hyp_pfq` for 1F1 and 0F1) in
    ``ctx`` under ``policy``.  A step whose divisor C (C-2)(C^2-1) vanishes
    raises PoleError.
    """
    up = [ctx.cnum(u) for u in upper]
    cc, zc = ctx.cnum(c), ctx.cnum(z)
    z2 = zc * zc
    if len(up) == 2:
        a, b = up

        def anchor(j):
            return gauss_2f1(a + j, b + j, cc + 2 * j, z, policy, ctx)

        def step(j):
            A, B, C = a + j, b + j, cc + 2 * j
            down, down2 = C * (C - 2), C * C * (C * C - 1)
            if down == 0 or down2 == 0:
                raise _zero_divisor(j)
            return (1 + zc * ((2 * A * B - (A + B) * C + C) / down),
                    z2 * (A * B * (A - C) * (B - C) / down2))
    elif up:
        [a] = up

        def anchor(j):
            return hyp_pfq([a + j], [cc + 2 * j], z, policy, ctx)

        def step(j):
            A, C = a + j, cc + 2 * j
            down, down2 = C * (C - 2), C * C * (C * C - 1)
            if down == 0 or down2 == 0:
                raise _zero_divisor(j)
            return 1 + zc * ((2 * A - C) / down), z2 * (A * (A - C) / down2)
    else:
        def anchor(j):
            return hyp_pfq([], [cc + 2 * j], z, policy, ctx)

        def step(j):
            C = cc + 2 * j
            down, down2 = C * (C - 2), C * C * (C * C - 1)
            if down == 0 or down2 == 0:
                raise _zero_divisor(j)
            return 1 + zc * (2 / down), z2 * (1 / down2)

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
    PoleError, and b1 b2 b3 b4 below the normal double range, in standard
    precision, RangeError.  As j grows the relation tends to y_{j-1} =
    (1 + s) y_j - s y_{j+1} with s = b5 z / q, so for |b5 z| < q, y_j is its
    minimal solution, and the relation runs backward only, on the blocks of
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
    den = bs[0] * bs[1] * bs[2] * bs[3]
    if not ctx.extended and not abs(den.real) + abs(den.imag) >= _DBL_MIN:
        raise RangeError("vwp_ladder: b1 b2 b3 b4 is below the normal double range")
    zc = rr * aa * qc * qc / den

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
