"""Poisson kernels: bilinear sums over orthonormal polynomial streams and the
printed closed forms they must equal.

A kernel sum declares its streams, t^n from ``series.pochhammer_ladder`` and
the products p_n(x) p_n(y), to ``hyper.sum_streams``, the driver of every
j-sum, which builds each term and stops the sum.

The Meixner-Pollaczek kernel closed form is assembled in log space (the
Gamma(2k) prefactor overflows long before the value does) and its 2F1 runs
through the Pfaff-transformed route, since the argument r = -4t sin^2(phi) /
(1-t)^2 falls below -1 already at moderate |t|.  The Al-Salam-Chihara kernel
has two printed closed forms related by a Bailey transform; both are exposed.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import DivergenceError, DomainError
from .hyper import (
    SeriesEval,
    TruncationPolicy,
    contiguous_ladder,
    gauss_2f1,
    sum_streams,
    vwp_8w7,
    vwp_ladder,
)
from .numerics import STANDARD, Context
from .polys import (
    MPParams,
    asc_orthonormal_stream,
    in_spectral_window,
    mp_orthonormal_stream,
    unit_phase,
)
from .series import _qval, check_exp_range, log_gamma_real, pochhammer_ladder, qpoch_many


@dataclass(frozen=True)
class KernelPoint:
    """Evaluation point of a Poisson kernel: |t| < 1, real x, y; the q-case
    additionally carries the spectral parameters s, sigma."""

    t: complex
    x: float
    y: float
    s: complex | None = None
    sigma: complex | None = None

    def __post_init__(self):
        if abs(complex(self.t)) >= 1.0:
            raise DivergenceError(f"kernel point requires |t| < 1, got {self.t}")


def unit_phases(x, y, ctx: Context):
    """(e^{i theta}, e^{-i theta}, e^{i phi}, e^{-i phi}) at x = cos theta,
    y = cos phi in the backend of ``ctx``, by ``polys.unit_phase``."""
    eit, eip = unit_phase(x, "q-kernel x", ctx), unit_phase(y, "q-kernel y", ctx)
    return eit, eit.conjugate(), eip, eip.conjugate()


def mp_kernel_sum(k: float, phi: float, pt: KernelPoint,
                  policy: TruncationPolicy | None = None,
                  ctx: Context = STANDARD) -> SeriesEval:
    """sum_n p_n(x) p_n(y) t^n over orthonormal Meixner-Pollaczek values,
    generated by two simultaneous recurrence streams."""
    p = MPParams(k, phi)
    xs, ys = mp_orthonormal_stream(p, pt.x, ctx), mp_orthonormal_stream(p, pt.y, ctx)
    return sum_streams([pochhammer_ladder(pt.t, ctx=ctx), map(operator.mul, xs, ys)],
                       policy, ctx)


def mp_kernel_closed(k: float, phi: float, pt: KernelPoint,
                     policy: TruncationPolicy | None = None,
                     ctx: Context = STANDARD) -> SeriesEval:
    """(1/Gamma(2k)) (1-t e^{2 i phi})^{i(x+y)} (1-t)^{-2k-ix-iy}
    2F1(k+ix, k+iy; 2k; r) with r = -4 t sin^2 phi / (1-t)^2.

    All powers are principal-branch; for |t| < 1 both power bases have
    positive real part, so no branch cut is crossed; a point where either
    base has not (possible only for |t| >= 1) raises DomainError.

    Returns the 2F1's SeriesEval scaled to the kernel's value
    (``SeriesEval.scale``), whose terms and stop status a caller can report.
    """
    pref, a, b, r = _mp_closed_parts(k, phi, pt, ctx)
    return gauss_2f1(a, b, 2 * ctx.rnum(k), r, policy, ctx).scale(pref)


def _mp_closed_parts(k: float, phi: float, pt: KernelPoint, ctx: Context):
    """(prefactor, k + ix, k + iy, r) of :func:`mp_kernel_closed`, whose
    value is the prefactor times 2F1(k + ix, k + iy; 2k; r).  The prefactor
    is assembled as a log: in standard precision, one whose modulus leaves
    the normal double range raises RangeError."""
    MPParams(k, phi)
    i = ctx.cnum(1j)
    t = ctx.cnum(pt.t)
    x, y = ctx.rnum(pt.x), ctx.rnum(pt.y)
    sinphi = ctx.sin(ctx.rnum(phi))
    r = -4 * t * sinphi * sinphi / (1 - t) ** 2
    base1 = 1 - t * ctx.expi(2 * ctx.rnum(phi))
    base2 = 1 - t
    if not (base1.real > 0 and base2.real > 0):
        raise DomainError(f"mp_kernel_closed: principal branch violated at t = {pt.t}")
    logpref = (-log_gamma_real(2 * k, ctx)
               + i * (x + y) * ctx.log(base1)
               + (-2 * k - i * (x + y)) * ctx.log(base2))
    check_exp_range(logpref, ctx, "mp_kernel_closed prefactor")
    return ctx.exp(logpref), k + i * x, k + i * y, r


def mp_kernel_closed_ladder(k: float, phi: float, pt: KernelPoint,
                            policy: TruncationPolicy | None = None,
                            ctx: Context = STANDARD):
    """The closed forms K_k, K_{k+1}, K_{k+2}, ... of :func:`mp_kernel_closed`
    at one point, as an unbounded generator of SeriesEval.

    The prefactor of K_{k+j} is that of K_k times (1-t)^{-2j} / (2k)_{2j},
    declared to ``series.pochhammer_ladder``; the 2F1(k+j+ix, k+j+iy; 2k+2j; r)
    comes from ``hyper.contiguous_ladder``, whose metadata each value keeps.
    So no per-j sum starts afresh.
    """
    pref, a, b, r = _mp_closed_parts(k, phi, pt, ctx)
    t = ctx.cnum(pt.t)
    c = 2 * ctx.rnum(k)
    prefs = pochhammer_ladder(1 / ((1 - t) * (1 - t)), (), [(c, 0, 2)], ctx=ctx)
    for co, f in zip(prefs, contiguous_ladder([a, b], c, r, policy, ctx)):
        f.value = ctx.cnum(pref * co * f.value)
        yield f


def ac_kernel_sum(k: float, q, pt: KernelPoint,
                  policy: TruncationPolicy | None = None,
                  ctx: Context = STANDARD) -> SeriesEval:
    """sum_n r_n(x; q^k s, q^k/s) r_n(y; q^k sigma, q^k/sigma) t^n over
    orthonormal Al-Salam-Chihara recurrence streams."""
    qq = _qval(q)
    _check_spectral(k, qq, pt)
    s, sg = ctx.cnum(pt.s), ctx.cnum(pt.sigma)
    qk = ctx.rnum(qq) ** k
    xs = asc_orthonormal_stream(qk * s, qk / s, qq, pt.x, ctx)
    ys = asc_orthonormal_stream(qk * sg, qk / sg, qq, pt.y, ctx)
    return sum_streams([pochhammer_ladder(pt.t, ctx=ctx), map(operator.mul, xs, ys)],
                       policy, ctx)


def _check_spectral(k: float, q: float, pt: KernelPoint):
    if pt.s is None or pt.sigma is None:
        raise DomainError("q-kernel point requires spectral parameters s, sigma")
    for name, v in (("s", pt.s), ("sigma", pt.sigma)):
        if not in_spectral_window(v, q, k):
            raise DomainError(f"|{name}| = {abs(complex(v))} outside (q^k, q^-k) "
                              "and not on the unit circle")


def _ac_closed_point(k: float, q, pt: KernelPoint, ctx: Context):
    """What both closed forms start from, after the spectral check:
    (q, t, s, sigma, q^k, e^{i theta}, e^{-i theta}, e^{i phi}, e^{-i phi}),
    all but q in the backend of ``ctx``."""
    qq = _qval(q)
    _check_spectral(k, qq, pt)
    return (qq, ctx.cnum(pt.t), ctx.cnum(pt.s), ctx.cnum(pt.sigma),
            ctx.rnum(qq) ** k, *unit_phases(pt.x, pt.y, ctx))


def ac_kernel_closed(k: float, q, pt: KernelPoint,
                     policy: TruncationPolicy | None = None,
                     ctx: Context = STANDARD) -> SeriesEval:
    """Closed form of the nonsymmetric Al-Salam-Chihara Poisson kernel:
    q-infinite-product prefactor times 8W7 with argument t e^{i(theta+phi)}.

    Returns the 8W7's SeriesEval scaled to the kernel's value, as
    :func:`mp_kernel_closed` does."""
    qq, prefs, a8, bs, b5, z, _ = _ac_closed_parts(k, q, pt, ctx)
    return vwp_8w7(a8, [*bs, b5], qq, z, policy, ctx).scale(next(prefs))


def _ac_closed_parts(k: float, q, pt: KernelPoint, ctx: Context):
    """(q, prefactor ladder, a, [b1, b2, b3, b4], b5, z, a / b5) of the closed
    form K_k = prefactor * 8W7(a; b1, ..., b5; q, z) of :func:`ac_kernel_closed`.

    The prefactor of K_{k+j} is declared to ``series.pochhammer_ladder``: four
    numerator bases move by q and one denominator base by q^2 per step.  Of
    the 8W7, a moves by q^2 and b1..b4 by q; b5 = t e^{-i theta} e^{-i phi}
    and z = t e^{i theta} e^{i phi} stay, and z is the natural argument
    a^2 q^2 / (b1 b2 b3 b4 b5).  a / b5 = q^{2k-1} stays finite at t = 0.
    """
    qq, t, s, sg, qk, eit, emt, eip, emp = _ac_closed_point(k, q, pt, ctx)
    qc = ctx.rnum(qq)
    inf = math.inf
    prefs = pochhammer_ladder(
        1, [(qk * t * emp * s, 1, inf), (qk * t * emp / s, 1, inf),
            (qk * t * emt * sg, 1, inf), (qk * t * emt / sg, 1, inf)],
        [(t * eit * emp, 0, inf), (t * emt * eip, 0, inf), (t * emt * emp, 0, inf),
         (qc ** (2 * k) * t * emt * emp, 2, inf)], qq, ctx)
    bs = [qk * emt * s, qk * emt / s, qk * emp * sg, qk * emp / sg]
    return (qq, prefs, qc ** (2 * k - 1) * t * emt * emp, bs, t * emt * emp,
            t * eit * eip, qc ** (2 * k - 1))


def ac_kernel_closed_ladder(k: float, q, pt: KernelPoint,
                            policy: TruncationPolicy | None = None,
                            ctx: Context = STANDARD):
    """The closed forms K_k, K_{k+1}, K_{k+2}, ... of :func:`ac_kernel_closed`
    at one point, as an unbounded generator of SeriesEval.

    The prefactors come from the ladder of :func:`_ac_closed_parts`, the
    8W7s from ``hyper.vwp_ladder``, whose metadata each value keeps.  So no
    per-j sum starts afresh.
    """
    qq, prefs, a8, bs, _, _, ratio = _ac_closed_parts(k, q, pt, ctx)
    for pref, w in zip(prefs, vwp_ladder(a8, bs, ratio, qq, policy, ctx)):
        w.value = ctx.cnum(pref * w.value)
        yield w


def ac_kernel_closed_alt(k: float, q, pt: KernelPoint,
                         policy: TruncationPolicy | None = None,
                         ctx: Context = STANDARD) -> SeriesEval:
    """The Bailey-transformed variant of :func:`ac_kernel_closed`, an 8W7 in
    the argument q^k e^{-i theta} / s (requires |s| > q^k), returned as
    there."""
    qq, t, s, sg, qk, eit, emt, eip, emp = _ac_closed_point(k, q, pt, ctx)
    if abs(complex(pt.s)) <= qq ** k:
        raise DivergenceError("alt kernel form needs |s| > q^k")
    num = [t * t, qk * emt / s, qk * t * eit * sg, qk * t * eit / sg,
           qk * t * s * eip, qk * t * s * emp]
    den = [ctx.rnum(qq) ** (2 * k), qk * s * t * t * eit, t * eit * eip,
           t * eit * emp, t * emt * emp, t * emt * eip]
    pref = qpoch_many(num, qq, over=den, ctx=ctx)
    return vwp_8w7(ctx.rnum(qq) ** (k - 1) * s * t * t * eit,
                   [t * eit * eip, t * eit * emp, qk * s * eit, s * t / sg, s * t * sg],
                   qq, qk * emt / s, policy, ctx).scale(pref)
