"""Registry of the verifiable bilinear-generating-function identities.

Every entry evaluates its two sides through structurally independent code
paths (bilinear polynomial sum vs. closed form, product of series vs.
expansion), so a shared bug cannot certify itself, and emits an
:class:`IdentityReport` with the two values and their residual.

Each identity also carries a deterministic parameter sampler producing
admissible cases from a seed (its keys are the identity's parameter names),
and a hypothesis validator that raises :class:`HypothesisError` naming the
violated constraint.

A side that is a j-sum, infinite or terminating, declares its factor
streams in the order of its printed product and hands them to
``hyper.sum_streams``, which also sums the Poisson kernels: the one place a
term of a sum of streams is built.  It multiplies the j-th values, collects
the stop statuses of the per-j series among them, and owns the loop, which
stops under the policy's term cap.  The first stream is the coefficient,
declared as the printed formula reads to ``series.pochhammer_ladder``, which
carries it from one j to the next; once it is 0 the sum has terminated and
no other stream is pulled.  ``_sum_j`` turns the sum into a side's report.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Callable

from .errors import DivergenceError, HypothesisError, ParamError
from .hyper import (
    SeriesStatus,
    TruncationPolicy,
    bhs_rphis,
    contiguous_ladder,
    default_policy,
    gauss_2f1,
    hyp_pfq,
    hyp_pfq_stable,
    phi21_ladder,
    phi32_ladder,
    sum_streams,
    vwp_8w7,
    vwp_ladder,
    worst_status,
)
from .kernels import (
    KernelPoint,
    ac_kernel_closed,
    ac_kernel_closed_alt,
    ac_kernel_closed_ladder,
    ac_kernel_sum,
    mp_kernel_closed,
    mp_kernel_closed_ladder,
    mp_kernel_sum,
    unit_phases,
)
from .numerics import EXTENDED, STANDARD, Context
from .polys import (
    ASCParams,
    AWParams,
    CHahnParams,
    MPParams,
    _2f1_stream,
    _3f2_stream,
    _aw_coefficients,
    _aw_slots,
    _mp_coefficients,
    aw_poly,
    aw_stream,
    chahn_stream,
    in_spectral_window,
    jacobi_stream,
    mp_poly,
    sj_ac_stream,
    sj_mp_stream,
    unit_phase,
)
from .series import (
    bessel_j,
    log_gamma_real,
    nonneg_int,
    pochhammer,
    pochhammer_ladder,
    qpoch,
    qpoch_many,
)

_TINY = 1e-300


@dataclass(frozen=True)
class IdentityCase:
    """One parameterised instance of a registered identity."""

    identity_id: str
    params: dict
    tol_rel: float = 1e-8
    policy: TruncationPolicy = field(default_factory=default_policy)
    seed: int | None = None

    def __post_init__(self):
        if self.tol_rel <= 0:
            raise ValueError("tol_rel must be positive")


@dataclass
class IdentityReport:
    identity_id: str
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    passed: bool
    terms: dict
    precision_used: str
    seed: int | None = None
    note: str | None = None


@dataclass(frozen=True)
class IdentityEntry:
    identity_id: str
    description: str
    sampler: Callable[[random.Random], dict]
    validator: Callable[[dict], None]
    eval_lhs: Callable[[dict, TruncationPolicy, Context], tuple]
    eval_rhs: Callable[[dict, TruncationPolicy, Context], tuple]

    @property
    def param_names(self) -> tuple:
        """The parameter names, in the order the sampler draws them."""
        return tuple(self.sampler(_rng(self.identity_id, 0)))


REGISTRY: dict[str, IdentityEntry] = {}


def _register(identity_id, description, sampler, validator, lhs, rhs):
    REGISTRY[identity_id] = IdentityEntry(identity_id, description, sampler,
                                          validator, lhs, rhs)


def identity_ids() -> list[str]:
    return list(REGISTRY.keys())


def get_entry(identity_id: str) -> IdentityEntry:
    try:
        return REGISTRY[identity_id]
    except KeyError:
        raise KeyError(f"unknown identity {identity_id!r}; "
                       f"known: {', '.join(REGISTRY)}") from None


def _require(cond: bool, constraint: str):
    if not cond:
        raise HypothesisError(f"violated hypothesis: {constraint}")


def _nonneg_int(p, name: str, error=HypothesisError) -> int:
    """p[name] as an int; ``error`` unless it is exactly a nonnegative
    integer."""
    return nonneg_int(p[name], name, error)


def _require_conv(cond: bool, constraint: str):
    """Convergence-domain constraints (|t| < 1 etc.) are divergences."""
    if not cond:
        raise DivergenceError(f"outside convergence region: {constraint}")


def _sum_j(factors, policy: TruncationPolicy, ctx: Context):
    """A j-sum on ``hyper.sum_streams``: its value, and its terms and stop
    status as a side's report."""
    ev = sum_streams(factors, policy, ctx)
    return ev.value, {"terms": ev.terms_used, "status": ev.status.value}


def _series_meta(*evs):
    """The report of a side that is the series ``evs``, or their product:
    their terms together, their worst stop status, so that a factor stopped
    at its term cap fails the case, and the larger tail estimate."""
    return {"terms": sum(ev.terms_used for ev in evs),
            "status": worst_status(ev.status for ev in evs).value,
            "tail": max(ev.tail_estimate for ev in evs)}


# ---------------------------------------------------------------------------
# samplers: shared draws


def _rng(identity_id: str, seed: int) -> random.Random:
    return random.Random(f"qkl:{identity_id}:{seed}")


def _u(rng, lo, hi):
    return lo + (hi - lo) * rng.random()


def _signed(rng, lo, hi):
    return (1 if rng.random() < 0.5 else -1) * _u(rng, lo, hi)


def _qchoice(rng):
    return rng.choice([0.3, 0.5, 0.7])


def _param(rng):
    """A real q-family parameter, 0.15 <= |v| <= 0.7."""
    return _signed(rng, 0.15, 0.7)


def _cos_angle(rng):
    """A point x = cos(theta) of [-1, 1], theta kept 0.15 off the ends."""
    return math.cos(_u(rng, 0.15, math.pi - 0.15))


def _mate(rng, prod):
    """x' = prod / y', with |y'| drawn so that |x'| and |y'| stay <= 0.7 by
    construction (the sampler keeps x'; y' is recovered from prod)."""
    return prod / _signed(rng, max(0.15, abs(prod) / 0.7), 0.7)


def _halved_t(rng, num, den):
    """t drawn from +-[0.05, 0.4], halved until |num t / den| < 0.95."""
    t = _signed(rng, 0.05, 0.4)
    while abs(num * t / den) >= 0.95:
        t *= 0.5
    return t


# ---------------------------------------------------------------------------
# Meixner-Pollaczek Poisson kernel: bilinear sum vs closed form


def _mp_poisson_sample(rng):
    return {"k": _u(rng, 0.2, 3.0), "phi": _u(rng, 0.2, math.pi - 0.2),
            "t": _signed(rng, 0.05, 0.6), "x": _u(rng, -5, 5), "y": _u(rng, -5, 5)}


def _mp_poisson_validate(p):
    _require(p["k"] > 0, "k > 0")
    _require(0 < p["phi"] < math.pi, "0 < phi < pi")
    _require_conv(abs(complex(p["t"])) < 1, "|t| < 1")


def _mp_poisson_lhs(p, policy, ctx):
    ev = mp_kernel_sum(p["k"], p["phi"], KernelPoint(p["t"], p["x"], p["y"]),
                       policy, ctx)
    return ev.value, _series_meta(ev)


def _mp_poisson_rhs(p, policy, ctx):
    ev = mp_kernel_closed(p["k"], p["phi"], KernelPoint(p["t"], p["x"], p["y"]),
                          policy, ctx)
    return ev.value, _series_meta(ev)


_register("mp_poisson", "MP Poisson kernel: bilinear sum equals closed form",
          _mp_poisson_sample, _mp_poisson_validate, _mp_poisson_lhs, _mp_poisson_rhs)


# ---------------------------------------------------------------------------
# MP three-term recurrence (definitional values)


def _mp_rec_sample(rng):
    k = _u(rng, 0.2, 3.0)
    phi = _u(rng, 0.2, math.pi - 0.2)
    n = rng.randrange(1, 31)
    p = MPParams(k, phi)
    y = _u(rng, -5, 5)
    for _ in range(40):
        if abs(2 * y * math.sin(phi) * mp_poly(p, n, y, orthonormal=True)) > 1e-2:
            break
        y = _u(rng, -5, 5)
    return {"k": k, "phi": phi, "y": y, "n": n}


def _mp_rec_validate(p):
    _require(p["k"] > 0, "k > 0")
    _require(0 < p["phi"] < math.pi, "0 < phi < pi")
    _nonneg_int(p, "n")


def _mp_rec_lhs(p, policy, ctx):
    mpp = MPParams(p["k"], p["phi"])
    two_y = 2 * ctx.rnum(p["y"]) * ctx.sin(ctx.rnum(p["phi"]))
    return two_y * mp_poly(mpp, int(p["n"]), p["y"], True, ctx), {}


def _mp_rec_rhs(p, policy, ctx):
    mpp = MPParams(p["k"], p["phi"])
    y, n = p["y"], int(p["n"])
    up, mid, low = _mp_coefficients(p["k"], ctx.cos(ctx.rnum(p["phi"])), n, ctx)
    v = up * mp_poly(mpp, n + 1, y, True, ctx) + mid * mp_poly(mpp, n, y, True, ctx)
    if n > 0:
        v += low * mp_poly(mpp, n - 1, y, True, ctx)
    return v, {}


_register("mp_recurrence", "MP three-term recurrence on definitional values",
          _mp_rec_sample, _mp_rec_validate, _mp_rec_lhs, _mp_rec_rhs)


# ---------------------------------------------------------------------------
# product of two 2F1 as a bilinear continuous-Hahn sum


def _hahn_product_sample(rng):
    return {"k1": _u(rng, 0.2, 2.5), "k2": _u(rng, 0.2, 2.5),
            "x1": _u(rng, -3, 3), "x2": _u(rng, -3, 3),
            "y1": _u(rng, -3, 3), "y2": _u(rng, -3, 3),
            "r": _signed(rng, 0.05, 0.6)}


def _hahn_product_validate(p):
    _require(p["k1"] > 0 and p["k2"] > 0, "k1, k2 > 0")
    _require_conv(abs(complex(p["r"])) < 1, "|r| < 1")


def _hahn_as_chahn(p):
    """The continuous Hahn bilinear parameters of a product of two 2F1:
    a = k1, beta = k2, u = -(x1 + x2), v = -(y1 + y2), x = x1, y = y1."""
    return {"a": p["k1"], "beta": p["k2"], "u": -(p["x1"] + p["x2"]),
            "v": -(p["y1"] + p["y2"]), "x": p["x1"], "y": p["y1"], "r": p["r"]}


_register("hahn_product", "product of two 2F1 as continuous-Hahn bilinear sum",
          _hahn_product_sample, _hahn_product_validate,
          lambda p, pol, ctx: _chahn_bilinear_rhs(_hahn_as_chahn(p), pol, ctx),
          lambda p, pol, ctx: _chahn_bilinear_lhs(_hahn_as_chahn(p), pol, ctx))


# ---------------------------------------------------------------------------
# continuous Hahn bilinear sum formula


def _chahn_bilinear_sample(rng):
    return {"a": _u(rng, 0.25, 2.2), "beta": _u(rng, 0.25, 2.0),
            "u": _u(rng, -2, 2), "v": _u(rng, -2, 2),
            "x": _u(rng, -3, 3), "y": _u(rng, -3, 3),
            "r": _signed(rng, 0.05, 0.6)}


def _chahn_abcd(p):
    b = complex(p["beta"], p["u"])
    d = b.conjugate()
    b2 = complex(p["beta"], p["v"])
    d2 = b2.conjugate()
    return p["a"], b, d, b2, d2


def _chahn_bilinear_validate(p):
    a, b, d, b2, d2 = _chahn_abcd(p)
    _require(a > 0, "a > 0")
    _require(b.real > 0 and b2.real > 0, "Re b, Re b' > 0")
    _require(abs((b + d) - (b2 + d2)) <= 1e-12, "b + d = b' + d'")
    _require_conv(abs(complex(p["r"])) < 1, "|r| < 1")


def _chahn_bilinear_lhs(p, policy, ctx):
    a, b, d, b2, d2 = _chahn_abcd(p)
    r, x, y = p["r"], p["x"], p["y"]
    bd = (b + d).real
    # (-r)^j j! / ((2a)_j (b+d)_j (2a+b+d-1+j)_j)
    coefs = pochhammer_ladder(-r, [(1, 0, 1)],
                              [(2 * a, 0, 1), (bd, 0, 1), (2 * a + bd - 1, 1, 1)],
                              ctx=ctx)
    px = chahn_stream(CHahnParams(a, b, a, d), x, ctx)
    py = chahn_stream(CHahnParams(a, b2, a, d2), y, ctx)
    # 2F1(a+d+j, a+d'+j; 2a+b+d+2j; r)
    fs = contiguous_ladder([a + d, a + d2], 2 * a + bd, r, policy, ctx)
    return _sum_j([coefs, fs, px, py], policy, ctx)


def _chahn_bilinear_rhs(p, policy, ctx):
    a, b, d, b2, d2 = _chahn_abcd(p)
    r, x, y = p["r"], p["x"], p["y"]
    f1 = gauss_2f1(complex(a, x), complex(a, y), 2 * a, r, policy, ctx)
    f2 = gauss_2f1(d - 1j * x, d2 - 1j * y, b + d, r, policy, ctx)
    return f1.value * f2.value, _series_meta(f1, f2)


_register("chahn_bilinear", "continuous Hahn bilinear sum formula",
          _chahn_bilinear_sample, _chahn_bilinear_validate,
          _chahn_bilinear_lhs, _chahn_bilinear_rhs)


# ---------------------------------------------------------------------------
# Jacobi x Bessel bilinear generating function (Bateman 1904)


def _jacobi_bessel_sample(rng):
    return {"alpha": _u(rng, -0.45, 3.0), "beta": _u(rng, -0.45, 3.0),
            "x": _u(rng, -0.9, 0.9), "y": _u(rng, -0.9, 0.9),
            "z": _u(rng, 0.5, 10.0)}


def _jacobi_bessel_validate(p):
    _require(p["alpha"] > -1 and p["beta"] > -1, "alpha, beta > -1")
    _require(abs(p["x"]) < 1 and abs(p["y"]) < 1, "|x|, |y| < 1")
    _require(0 <= p["z"] <= 30, "0 <= z <= 30")


def _jacobi_bessel_params(p, ctx):
    """alpha, beta, x, y and z as reals of ``ctx``, so that the orders and
    arguments built from them keep the context's precision."""
    return (ctx.rnum(p[k]) for k in ("alpha", "beta", "x", "y", "z"))


def _jacobi_bessel_lhs(p, policy, ctx):
    al, be, x, y, z = _jacobi_bessel_params(p, ctx)
    s = al + be + 1
    # (-1)^j (s + 2j) Gamma(j+1) Gamma(s+j) / (Gamma(al+j+1) Gamma(be+j+1))
    # = (-1)^j (s + 2j) / (s + j) g j! (s+1)_j / ((al+1)_j (be+1)_j), whose
    # Gammas have positive arguments also at s <= 0; (s + 2j) / (s + j) is 1
    # at j = 0, its limit at s = 0
    g = ctx.rexp(log_gamma_real(s + 1, ctx) - log_gamma_real(al + 1, ctx)
                 - log_gamma_real(be + 1, ctx))
    coefs = pochhammer_ladder(-1, [(1, 0, 1), (s + 1, 0, 1)],
                              [(al + 1, 0, 1), (be + 1, 0, 1)], ctx=ctx)
    ratios = ((ctx.rnum(al + be + 2 * j + 1) / (s + j) if j else 1) * g
              for j in count())
    px = jacobi_stream(al, be, x, ctx)
    py = jacobi_stream(al, be, y, ctx)
    # J_{al+be+2j+1}(z)
    js = (bessel_j(al + be + 2 * j + 1, z, ctx) for j in count())
    return _sum_j([coefs, ratios, px, py, js], policy, ctx)


def _jacobi_bessel_rhs(p, policy, ctx):
    al, be, x, y, z = _jacobi_bessel_params(p, ctx)
    mm = (1 - x) * (1 - y)
    pp = (1 + x) * (1 + y)
    v = (ctx.rnum(2.0) ** (al + be - 1) * ctx.rnum(mm) ** (-al / 2)
         * ctx.rnum(pp) ** (-be / 2) * z
         * bessel_j(al, z / 2 * ctx.rsqrt(mm), ctx)
         * bessel_j(be, z / 2 * ctx.rsqrt(pp), ctx))
    return ctx.cnum(v), {}


_register("jacobi_bessel", "Jacobi-Bessel bilinear generating function",
          _jacobi_bessel_sample, _jacobi_bessel_validate,
          _jacobi_bessel_lhs, _jacobi_bessel_rhs)


# ---------------------------------------------------------------------------
# terminating continuous-Hahn sum (coefficient of r^K) and its Whipple form


def _chahn_finite_sample(rng):
    return {"a": _u(rng, 0.25, 2.2), "beta": _u(rng, 0.25, 2.0),
            "u": _u(rng, -2, 2), "v": _u(rng, -2, 2),
            "x": _u(rng, -3, 3), "y": _u(rng, -3, 3),
            "K": rng.randrange(1, 11)}


def _chahn_finite_validate(p):
    _chahn_bilinear_validate({**p, "r": 0.0})
    _require(1 <= _nonneg_int(p, "K") <= 10, "1 <= K <= 10")


def _chahn_finite_values(p, ctx):
    """a, b, d, b', d', x, y and b + d of a terminating sample as values of
    ``ctx``, so that the parameters built from them keep its precision."""
    a, b, d, b2, d2 = _chahn_abcd(p)
    b, d, b2, d2 = (ctx.cnum(v) for v in (b, d, b2, d2))
    return ctx.rnum(a), b, d, b2, d2, ctx.rnum(p["x"]), ctx.rnum(p["y"]), (b + d).real


def _chahn_finite_lhs(p, policy, ctx):
    a, b, d, b2, d2, x, y, bd = _chahn_finite_values(p, ctx)
    K = int(p["K"])
    S = 2 * a + bd
    # (-K)_j (S)_{2j} j! / ((2a)_j (b+d)_j (S+j-1)_j (a+d)_j (a+d')_j (S+K)_j)
    coefs = pochhammer_ladder(
        1, [(-K, 0, 1), (S, 0, 2), (1, 0, 1)],
        [(2 * a, 0, 1), (bd, 0, 1), (S - 1, 1, 1), (a + d, 0, 1), (a + d2, 0, 1),
         (S + K, 0, 1)], ctx=ctx)
    px = chahn_stream(CHahnParams(a, b, a, d), x, ctx)
    py = chahn_stream(CHahnParams(a, b2, a, d2), y, ctx)
    return _sum_j([coefs, px, py], policy, ctx)


def _chahn_finite_pref(p, ctx):
    """(d - ix, d' - iy, 2a + b + d)_K / (a + d, a + d', b + d)_K, the
    prefactor of both terminating right sides."""
    a, b, d, b2, d2, x, y, bd = _chahn_finite_values(p, ctx)
    K = int(p["K"])
    return (pochhammer(d - 1j * x, K, ctx) * pochhammer(d2 - 1j * y, K, ctx)
            * pochhammer(2 * a + bd, K, ctx)
            / (pochhammer(a + d, K, ctx) * pochhammer(a + d2, K, ctx)
               * pochhammer(bd, K, ctx)))


def _chahn_finite_rhs(p, policy, ctx):
    a, b, d, b2, d2, x, y, bd = _chahn_finite_values(p, ctx)
    K = int(p["K"])
    pref = _chahn_finite_pref(p, ctx)
    f = hyp_pfq_stable([-K, 1 - K - bd, a + 1j * x, a + 1j * y],
                       [2 * a, 1 - K - d + 1j * x, 1 - K - d2 + 1j * y],
                       1, ctx, lost_hint=0.6 * K)
    return pref * f, {"terms": K + 1}


_register("chahn_finite", "terminating continuous-Hahn bilinear sum",
          _chahn_finite_sample, _chahn_finite_validate,
          _chahn_finite_lhs, _chahn_finite_rhs)


def _chahn_whipple_sample(rng):
    p = _chahn_finite_sample(rng)
    p.pop("v")
    return p


def _chahn_whipple_params(p):
    # b' = d, d' = b: the balanced case b = d'
    return {**p, "v": -p["u"]}


def _chahn_whipple_validate(p):
    _chahn_finite_validate(_chahn_whipple_params(p))


def _chahn_whipple_lhs(p, policy, ctx):
    return _chahn_finite_lhs(_chahn_whipple_params(p), policy, ctx)


def _chahn_whipple_rhs(p, policy, ctx):
    q = _chahn_whipple_params(p)
    a, b, d, b2, d2, x, y, bd = _chahn_finite_values(q, ctx)
    K = int(q["K"])
    S = 2 * a + bd
    pref = _chahn_finite_pref(q, ctx)
    whip = (pochhammer(a + d, K, ctx)
            * pochhammer(a + b + 1j * (x - y), K, ctx)
            / (pochhammer(d - 1j * x, K, ctx) * pochhammer(b - 1j * y, K, ctx)))
    f = hyp_pfq_stable([-K, S + K - 1, a + 1j * x, a - 1j * y],
                       [2 * a, a + d, a + b + 1j * (x - y)],
                       1, ctx, lost_hint=0.6 * K)
    return pref * whip * f, {"terms": K + 1}


_register("chahn_finite_whipple",
          "terminating continuous-Hahn sum, Whipple-transformed right side",
          _chahn_whipple_sample, _chahn_whipple_validate,
          _chahn_whipple_lhs, _chahn_whipple_rhs)


# ---------------------------------------------------------------------------
# multiplication formula for 2F1 x 2F1


def _away_from_nonpos_int(rng, lo, hi, *sums):
    """Draw v such that v + s stays 0.07 clear of nonpositive integers for
    every s in sums."""
    for _ in range(100):
        v = _u(rng, lo, hi)
        ok = True
        for s in sums:
            w = v + s
            if w < 0.07 and abs(w - round(w)) < 0.07:
                ok = False
                break
        if ok:
            return v
    return hi


def _mult_2f1_sample(rng):
    a = _u(rng, -2.5, 2.5)
    b = _u(rng, -2.5, 2.5)
    a2 = _away_from_nonpos_int(rng, -2.5, 2.5, a)
    b2 = _away_from_nonpos_int(rng, -2.5, 2.5, b)
    c = _away_from_nonpos_int(rng, 0.4, 3.0, 0.0)
    c2 = _away_from_nonpos_int(rng, 0.4, 3.0, 0.0, c - 1.0)
    return {"a": a, "b": b, "c": c, "a2": a2, "b2": b2, "c2": c2,
            "z": _signed(rng, 0.05, 0.6)}


def _is_nonpos_int(v, tol=1e-9):
    vc = complex(v)
    return (abs(vc.imag) <= tol and vc.real <= tol
            and abs(vc.real - round(vc.real)) <= tol)


def _mult_2f1_validate(p):
    _require(not _is_nonpos_int(p["c"]) and not _is_nonpos_int(p["c2"]),
             "c, c' not nonpositive integers")
    _require_conv(abs(complex(p["z"])) < 1, "|z| < 1")
    for u, u2 in (("a", "a2"), ("b", "b2")):
        if _is_nonpos_int(p[u] + p[u2]):
            _require(_is_nonpos_int(p[u]) and _is_nonpos_int(p[u2]),
                     f"{u}+{u}' nonpositive integer only when both are")


def _mult_2f1_lhs(p, policy, ctx):
    f1 = gauss_2f1(p["a"], p["b"], p["c"], p["z"], policy, ctx)
    f2 = gauss_2f1(p["a2"], p["b2"], p["c2"], p["z"], policy, ctx)
    return f1.value * f2.value, _series_meta(f1, f2)


def _mult_2f1_rhs(p, policy, ctx):
    a, b, c, a2, b2, c2, z = (p[k] for k in ("a", "b", "c", "a2", "b2", "c2", "z"))
    A, B, C = a + a2, b + b2, c + c2 - 1
    # z^j (c)_j (A)_j (B)_j / (j! (c')_j (C+j)_j)
    coefs = pochhammer_ladder(z, [(c, 0, 1), (A, 0, 1), (B, 0, 1)],
                              [(1, 0, 1), (c2, 0, 1), (C, 1, 1)], ctx=ctx)
    s, cc = ctx.cnum(c + c2), ctx.cnum(c)
    f3a = _3f2_stream(s, ctx.cnum(a), ctx.cnum(A), cc, ctx)
    f3b = _3f2_stream(s, ctx.cnum(b), ctx.cnum(B), cc, ctx)
    # 2F1(A+j, B+j; c+c'+2j; z)
    fs = contiguous_ladder([A, B], c + c2, z, policy, ctx)
    return _sum_j([coefs, f3a, f3b, fs], policy, ctx)


_register("mult_2f1", "multiplication formula for a product of two 2F1",
          _mult_2f1_sample, _mult_2f1_validate, _mult_2f1_lhs, _mult_2f1_rhs)


def _bc_sample(rng):
    a = _u(rng, -2.2, 2.2)
    b = _u(rng, -2.2, 2.2)
    if _is_nonpos_int(2 * a, 0.07):
        a += 0.11
    if _is_nonpos_int(2 * b, 0.07):
        b += 0.11
    c = _away_from_nonpos_int(rng, 0.4, 3.0, 0.0)
    return {"a": a, "b": b, "c": c, "z": _signed(rng, 0.05, 0.6)}


def _bc_expand(p):
    return {"a": p["a"], "b": p["b"], "c": p["c"],
            "a2": p["a"], "b2": p["b"], "c2": p["c"], "z": p["z"]}


_register("burchnall_chaundy",
          "square of a 2F1 as a self-consistency case of the multiplication formula",
          _bc_sample,
          lambda p: _mult_2f1_validate(_bc_expand(p)),
          lambda p, pol, ctx: _mult_2f1_lhs(_bc_expand(p), pol, ctx),
          lambda p, pol, ctx: _mult_2f1_rhs(_bc_expand(p), pol, ctx))


# ---------------------------------------------------------------------------
# confluent limit: product of two 1F1


def _conf_sample(rng):
    a = _u(rng, -2.0, 2.5)
    a2 = _away_from_nonpos_int(rng, -2.0, 2.5, a)
    c = _away_from_nonpos_int(rng, 0.4, 3.0, 0.0)
    c2 = _away_from_nonpos_int(rng, 0.4, 3.0, 0.0, c - 1.0)
    return {"a": a, "c": c, "a2": a2, "c2": c2,
            "x": _u(rng, 0.2, 3.0), "y": _u(rng, 0.2, 3.0)}


def _conf_validate(p):
    _require(not _is_nonpos_int(p["c"]) and not _is_nonpos_int(p["c2"]),
             "c, c' not nonpositive integers")
    if _is_nonpos_int(p["a"] + p["a2"]):
        _require(_is_nonpos_int(p["a"]) and _is_nonpos_int(p["a2"]),
                 "a+a' nonpositive integer only when both are")
    _require(p["x"] > 0 and p["y"] > 0, "x, y > 0")


def _conf_lhs(p, policy, ctx):
    f1 = hyp_pfq([p["a"]], [p["c"]], p["x"], policy, ctx)
    f2 = hyp_pfq([p["a2"]], [p["c2"]], p["y"], policy, ctx)
    return f1.value * f2.value, _series_meta(f1, f2)


def _conf_rhs(p, policy, ctx):
    a, c, a2, c2, x, y = (p[k] for k in ("a", "c", "a2", "c2", "x", "y"))
    A, C = a + a2, c + c2 - 1
    s = x + y
    # s^j (c)_j (A)_j / (j! (c')_j (C+j)_j)
    coefs = pochhammer_ladder(s, [(c, 0, 1), (A, 0, 1)],
                              [(1, 0, 1), (c2, 0, 1), (C, 1, 1)], ctx=ctx)
    cs, cc = ctx.cnum(c + c2), ctx.cnum(c)
    f3 = _3f2_stream(cs, ctx.cnum(a), ctx.cnum(A), cc, ctx)
    f2a = _2f1_stream(cs, cc, ctx.cnum(x) / s, ctx)
    # 1F1(A+j; c+c'+2j; s)
    fs = contiguous_ladder([A], c + c2, s, policy, ctx)
    return _sum_j([coefs, f3, f2a, fs], policy, ctx)


_register("conf_1f1", "confluent product formula for two 1F1",
          _conf_sample, _conf_validate, _conf_lhs, _conf_rhs)


# ---------------------------------------------------------------------------
# discrete Hahn bilinear theorem (floating route)


def _hahn_disc_sample(rng):
    M = rng.randrange(2, 7)
    N = rng.randrange(2, 7)
    return {"alpha": _u(rng, -0.25, 3.0), "beta": _u(rng, -0.25, 3.0),
            "M": M, "N": N, "x": rng.randrange(0, M + 1),
            "y": rng.randrange(0, N + 1), "z": _signed(rng, 0.1, 1.2)}


def _hahn_disc_validate(p):
    M, N = _nonneg_int(p, "M"), _nonneg_int(p, "N")
    _require(M >= 1 and N >= 1, "M, N positive integers")
    _require(_nonneg_int(p, "x") <= M, "x in {0..M}")
    _require(_nonneg_int(p, "y") <= N, "y in {0..N}")
    _require(not _is_nonpos_int(p["beta"] + 1), "beta + 1 not a nonpositive integer")
    _require(not _is_nonpos_int(p["alpha"] + 1), "alpha + 1 not a nonpositive integer")


def _hahn_disc_lhs(p, policy, ctx):
    al, be = ctx.cnum(p["alpha"]), ctx.cnum(p["beta"])
    M, N, x, y, z = int(p["M"]), int(p["N"]), int(p["x"]), int(p["y"]), p["z"]
    K = min(M, N)
    # z^j (alpha+1)_j (-M)_j (-N)_j / (j! (beta+1)_j (alpha+beta+j+1)_j)
    coefs = pochhammer_ladder(z, [(al + 1, 0, 1), (-M, 0, 1), (-N, 0, 1)],
                              [(1, 0, 1), (be + 1, 0, 1), (al + be + 1, 1, 1)], ctx=ctx)
    # Q_j(x; alpha, beta, M) = 3F2(-j, j+alpha+beta+1, -x; alpha+1, -M; 1)
    u = al + 1
    s = u + be + 1
    hahn_x = _3f2_stream(s, ctx.cnum(-x), u, ctx.cnum(-M), ctx)
    hahn_y = _3f2_stream(s, ctx.cnum(-y), u, ctx.cnum(-N), ctx)
    # 2F1(j-M, j-N; alpha+beta+2j+2; z); at alpha + beta = -L, L >= 2, a
    # stream first divides by 2n + s - 1 or 2n + s = 0 at j = ceil(L/2), and
    # this factor meets its lower-parameter pole at an earlier j, so the sum
    # stops before that pull
    fs = (hyp_pfq_stable([j - M, j - N], [al + be + 2 * j + 2], z, ctx,
                         lost_hint=0.4 * (K - j)) for j in count())
    return _sum_j([coefs, hahn_x, hahn_y, fs], policy, ctx)


def _hahn_disc_rhs(p, policy, ctx):
    al, be = ctx.cnum(p["alpha"]), ctx.cnum(p["beta"])
    M, N, x, y, z = int(p["M"]), int(p["N"]), int(p["x"]), int(p["y"]), p["z"]
    fa = hyp_pfq_stable([-x, -y], [al + 1], z, ctx, lost_hint=0.4 * min(x, y))
    fb = hyp_pfq_stable([x - M, y - N], [be + 1], z, ctx,
                        lost_hint=0.4 * min(M - x, N - y))
    return fa * fb, {"terms": min(x, y) + min(M - x, N - y) + 2}


_register("hahn_bilinear_discrete",
          "discrete Hahn bilinear theorem (floating route, corrected 1/j!)",
          _hahn_disc_sample, _hahn_disc_validate, _hahn_disc_lhs, _hahn_disc_rhs)


# ---------------------------------------------------------------------------
# Al-Salam-Chihara Poisson kernel: sum vs closed vs Bailey-transformed


def _ac_point_sample(rng):
    q = _qchoice(rng)
    k = _u(rng, 0.2, 1.6)
    lo, hi = q ** k + 0.05, q ** (-k) - 0.05

    def draw_s():
        if rng.random() < 0.3:
            return cmath.exp(1j * _u(rng, 0.1, math.pi - 0.1))
        return _u(rng, lo, hi)

    return {"q": q, "k": k, "s": draw_s(), "sigma": draw_s(),
            "t": _signed(rng, 0.05, 0.5), "x": _cos_angle(rng), "y": _cos_angle(rng)}


def _ac_point_validate(p):
    q, k = p["q"], p["k"]
    _require(0 < q < 1, "0 < q < 1")
    _require(k > 0, "k > 0")
    _require_conv(abs(complex(p["t"])) < 1, "|t| < 1")
    for name in ("s", "sigma"):
        _require(in_spectral_window(p[name], q, k),
                 f"|{name}| in (q^k, q^-k) or |{name}| = 1")
    _require(abs(p["x"]) <= 1 and abs(p["y"]) <= 1, "x, y in [-1, 1]")


def _ac_pt(p):
    return KernelPoint(p["t"], p["x"], p["y"], s=p["s"], sigma=p["sigma"])


def _ac_poisson_lhs(p, policy, ctx):
    ev = ac_kernel_sum(p["k"], p["q"], _ac_pt(p), policy, ctx)
    return ev.value, _series_meta(ev)


def _ac_poisson_rhs(p, policy, ctx):
    ev = ac_kernel_closed(p["k"], p["q"], _ac_pt(p), policy, ctx)
    return ev.value, _series_meta(ev)


_register("ac_poisson", "ASC Poisson kernel: bilinear sum equals 8W7 closed form",
          _ac_point_sample, _ac_point_validate, _ac_poisson_lhs, _ac_poisson_rhs)


def _ac_alt_validate(p):
    _ac_point_validate(p)
    _require(abs(complex(p["s"])) > p["q"] ** p["k"], "|s| > q^k for the alt form")


def _ac_poisson_alt_rhs(p, policy, ctx):
    ev = ac_kernel_closed_alt(p["k"], p["q"], _ac_pt(p), policy, ctx)
    return ev.value, _series_meta(ev)


_register("ac_poisson_alt",
          "the two printed 8W7 closed forms of the ASC kernel agree",
          _ac_point_sample, _ac_alt_validate,
          # a function of its own: the bench checks each side's call count
          # against cProfile, which would add ac_poisson's right side here
          lambda p, pol, ctx: _ac_poisson_rhs(p, pol, ctx), _ac_poisson_alt_rhs)


# ---------------------------------------------------------------------------
# coupled expansion of a product of two ASC kernels


def _ac_spoisson_sample(rng):
    q = _qchoice(rng)
    k1 = _u(rng, 0.2, 1.4)
    k2 = _u(rng, 0.2, 1.4)
    lo, hi = q ** k2 + 0.05, q ** (-k2) - 0.05
    return {"q": q, "k1": k1, "k2": k2,
            "s": _u(rng, lo, hi), "sigma": _u(rng, lo, hi),
            "t": _signed(rng, 0.05, 0.35),
            "x1": _cos_angle(rng), "x2": _cos_angle(rng),
            "y1": _cos_angle(rng), "y2": _cos_angle(rng)}


def _ac_spoisson_validate(p):
    q, k1, k2 = p["q"], p["k1"], p["k2"]
    _require(0 < q < 1, "0 < q < 1")
    _require(k1 > 0 and k2 > 0, "k1, k2 > 0")
    _require_conv(abs(complex(p["t"])) < 1, "|t| < 1")
    for name in ("s", "sigma"):  # in logs: q^-k2 overflows for large k2
        m = abs(complex(p[name]))
        _require(0 < m and abs(math.log(m)) < -k2 * math.log(q), f"|{name}| in (q^k2, q^-k2)")
    for name in ("x1", "x2", "y1", "y2"):
        _require(abs(p[name]) <= 1, f"{name} in [-1, 1]")


def _ac_spoisson_lhs(p, policy, ctx):
    pt1 = KernelPoint(p["t"], p["x1"], p["y1"],
                      s=unit_phase(p["x2"], "ac_spoisson x2", ctx),
                      sigma=unit_phase(p["y2"], "ac_spoisson y2", ctx))
    pt2 = KernelPoint(p["t"], p["x2"], p["y2"], s=p["s"], sigma=p["sigma"])
    e1 = ac_kernel_sum(p["k1"], p["q"], pt1, policy, ctx)
    e2 = ac_kernel_sum(p["k2"], p["q"], pt2, policy, ctx)
    return e1.value * e2.value, _series_meta(e1, e2)


def _ac_spoisson_rhs(p, policy, ctx):
    q, k1, k2, t = p["q"], p["k1"], p["k2"], p["t"]
    s, sg = p["s"], p["sigma"]
    sx = sj_ac_stream(k1, k2, p["x1"], p["x2"], s, q, ctx)
    sy = sj_ac_stream(k1, k2, p["y1"], p["y2"], sg, q, ctx)
    ks = ac_kernel_closed_ladder(
        k1 + k2, q, KernelPoint(t, p["x1"], p["y1"], s=s, sigma=sg), policy, ctx)
    return _sum_j([pochhammer_ladder(t, ctx=ctx), ks, sx, sy], policy, ctx)


_register("ac_spoisson",
          "product of two ASC kernels as a coupled Askey-Wilson expansion",
          _ac_spoisson_sample, _ac_spoisson_validate,
          _ac_spoisson_lhs, _ac_spoisson_rhs)


# ---------------------------------------------------------------------------
# Askey-Wilson bilinear generating function (8W7 coefficients H_j)


def _aw_bilinear_sample(rng):
    q = _qchoice(rng)
    a, b, c, d = _param(rng), _param(rng), _param(rng), _param(rng)
    a2 = _mate(rng, a * b)
    c2 = _mate(rng, c * d)
    return {"q": q, "a": a, "b": b, "c": c, "d": d, "a2": a2, "c2": c2,
            "t": _halved_t(rng, a2, b), "x": _cos_angle(rng), "y": _cos_angle(rng)}


def _aw_primed(p):
    b2 = p["a"] * p["b"] / p["a2"]
    d2 = p["c"] * p["d"] / p["c2"]
    return b2, d2


def _aw_bilinear_validate(p):
    b2, d2 = _aw_primed(p)
    _require(0 < p["q"] < 1, "0 < q < 1")
    mods = [abs(complex(p[k])) for k in ("a", "b", "c", "d", "a2", "c2")]
    mods += [abs(complex(b2)), abs(complex(d2))]
    _require(max(mods) < 1, "max parameter modulus < 1")
    _require_conv(abs(complex(p["t"])) < 1, "|t| < 1")
    _require_conv(abs(p["a2"] * p["t"] / p["b"]) < 1, "|a' t / b| < 1")
    _require(abs(p["a"] * p["b"] - p["a2"] * b2) <= 1e-12 * max(1, abs(p["a"] * p["b"])),
             "ab = a'b'")
    _require(abs(p["c"] * p["d"] - p["c2"] * d2) <= 1e-12 * max(1, abs(p["c"] * p["d"])),
             "cd = c'd'")


def _aw_bilinear_lhs(p, policy, ctx):
    q, t = p["q"], p["t"]
    a, b, c, d, a2, c2 = (p[k] for k in ("a", "b", "c", "d", "a2", "c2"))
    b2, d2 = _aw_primed(p)
    px = aw_stream(AWParams(q, a, b, c, d), p["x"], ctx)
    py = aw_stream(AWParams(q, a2, b2, c2, d2), p["y"], ctx)
    # the q-products of H_j times t^j:
    # t^j (b c' q^j t, b' c q^j t, b d' q^j t, b' d q^j t; q)_inf
    # / ((q, ab, cd; q)_j (b b' c d q^{2j} t; q)_inf (abcd q^{j-1}; q)_j)
    coefs = pochhammer_ladder(
        t, [(b * c2 * t, 1, math.inf), (b2 * c * t, 1, math.inf),
            (b * d2 * t, 1, math.inf), (b2 * d * t, 1, math.inf)],
        [(q, 0, 1), (a * b, 0, 1), (c * d, 0, 1), (b * b2 * c * d * t, 2, math.inf),
         (a * b * c * d / q, 1, 1)], q, ctx)

    # 8W7(b b' c d q^{2j-1} t; b c q^j, b d q^j, b' c' q^j, b' d' q^j, b t/a';
    # q, a' t/b), whose a / b5 is a' b' c d / q
    ws = vwp_ladder(b * b2 * c * d * t / q, [b * c, b * d, b2 * c2, b2 * d2],
                    a2 * b2 * c * d / q, q, policy, ctx)
    return _sum_j([coefs, ws, px, py], policy, ctx)


def _aw_bilinear_rhs(p, policy, ctx):
    q, t = p["q"], p["t"]
    a, b, c, d, a2, c2 = (p[k] for k in ("a", "b", "c", "d", "a2", "c2"))
    b2, d2 = _aw_primed(p)
    eit, emt, eip, emp = unit_phases(p["x"], p["y"], ctx)
    num = [b * t * eip, b * t * emp, c * t * emp, d * t * emp,
           b2 * t * eit, b2 * t * emt, c2 * t * emt, d2 * t * emt]
    den = [b * b2 * t, t * eit * emp, t * emt * eip, t * emt * emp,
           c * d * t * emt * emp]
    pref = qpoch_many(num, q, over=den, ctx=ctx)
    w1 = vwp_8w7(b * b2 * t / q, [b * eit, b * emt, b2 * eip, b2 * emp, b * t / a2],
                 q, a2 * t / b, policy, ctx)
    w2 = vwp_8w7(c * d * t * emt * emp / q,
                 [c * emt, d * emt, c2 * emp, d2 * emp, t * emt * emp],
                 q, t * eit * eip, policy, ctx)
    return pref * w1.value * w2.value, _series_meta(w1, w2)


_register("aw_bilinear", "Askey-Wilson bilinear generating function",
          _aw_bilinear_sample, _aw_bilinear_validate,
          _aw_bilinear_lhs, _aw_bilinear_rhs)


# ---------------------------------------------------------------------------
# Askey-Wilson three-term recurrence (definitional values)


def _aw_rec_sample(rng):
    q = _qchoice(rng)
    nonzero = rng.choice((4, 3, 2, 1, 0))
    a, b, c, d = (_param(rng) if i < nonzero else 0.0 for i in range(4))
    n = rng.randrange(1, 31)
    x = _cos_angle(rng)
    aw = AWParams(q, a, b, c, d)
    for _ in range(40):
        near = list(islice(aw_stream(aw, x), n - 1, n + 2))
        if abs(2 * x * near[1]) > 1e-2 * max(map(abs, near)):
            break
        x = _cos_angle(rng)
    return {"q": q, "a": a, "b": b, "c": c, "d": d, "n": n, "x": x}


def _aw_rec_validate(p):
    _require(0 < p["q"] < 1, "0 < q < 1")
    _nonneg_int(p, "n")
    _require(abs(p["x"]) <= 1, "x in [-1, 1]")


def _aw_rec_params(p):
    return AWParams(p["q"], p["a"], p["b"], p["c"], p["d"])


def _aw_rec_lhs(p, policy, ctx):
    v = 2 * ctx.rnum(p["x"]) * aw_poly(_aw_rec_params(p), int(p["n"]), p["x"], ctx)
    return v, {}


def _aw_rec_rhs(p, policy, ctx):
    aw = _aw_rec_params(p)
    n, x = int(p["n"]), p["x"]
    a, b, c, d = (ctx.cnum(v) for v in _aw_slots(aw))
    up, mid, low = _aw_coefficients(a, b, c, d, ctx.rnum(aw.q), n)
    v = up * aw_poly(aw, n + 1, x, ctx) + mid * aw_poly(aw, n, x, ctx)
    if n > 0:
        v += low * aw_poly(aw, n - 1, x, ctx)
    return v, {}


_register("aw_recurrence", "Askey-Wilson three-term recurrence on definitional values",
          _aw_rec_sample, _aw_rec_validate, _aw_rec_lhs, _aw_rec_rhs)


# ---------------------------------------------------------------------------
# continuous dual q-Hahn specialisation (d = d' = 0)


def _cdqh_sample(rng):
    q = _qchoice(rng)
    a, b, c, c2 = _param(rng), _param(rng), _param(rng), _param(rng)
    a2 = _mate(rng, a * b)
    return {"q": q, "a": a, "b": b, "c": c, "a2": a2, "c2": c2,
            "t": _halved_t(rng, a2, b), "x": _cos_angle(rng), "y": _cos_angle(rng)}


def _cdqh_validate(p):
    b2 = p["a"] * p["b"] / p["a2"]
    _require(0 < p["q"] < 1, "0 < q < 1")
    mods = [abs(complex(p[k])) for k in ("a", "b", "c", "a2", "c2")] + [abs(b2)]
    _require(max(mods) < 1, "max parameter modulus < 1")
    _require_conv(abs(complex(p["t"])) < 1, "|t| < 1")
    _require_conv(abs(p["a2"] * p["t"] / p["b"]) < 1, "|a' t / b| < 1")


def _cdqh_lhs(p, policy, ctx):
    q, t = p["q"], p["t"]
    a, b, c, a2, c2 = (p[k] for k in ("a", "b", "c", "a2", "c2"))
    b2 = a * b / a2
    px = aw_stream(AWParams(q, a, b, c, 0.0), p["x"], ctx)
    py = aw_stream(AWParams(q, a2, b2, c2, 0.0), p["y"], ctx)
    # t^j (b c' q^j t, b' c q^j t; q)_inf / (q, ab; q)_j
    gs = pochhammer_ladder(t, [(b * c2 * t, 1, math.inf), (b2 * c * t, 1, math.inf)],
                           [(q, 0, 1), (a * b, 0, 1)], q, ctx)
    # 3phi2(b c q^j, b' c' q^j, b t/a'; b c' t q^j, b' c t q^j; q, a' t/b):
    # its lower parameters are b t/a' times a' c' and a c, and omega is
    # b^2/a'^2, built in the context
    bc, a2c = ctx.cnum(b), ctx.cnum(a2)
    fs = phi32_ladder([bc * c, ctx.cnum(b2) * c2], [a2c * c2, ctx.cnum(a) * c],
                      bc * t / a2c, (bc / a2c) ** 2, q, policy, ctx)
    return _sum_j([gs, fs, px, py], policy, ctx)


def _cdqh_rhs(p, policy, ctx):
    q, t = p["q"], p["t"]
    a, b, c, a2, c2 = (p[k] for k in ("a", "b", "c", "a2", "c2"))
    b2 = a * b / a2
    eit, emt, eip, emp = unit_phases(p["x"], p["y"], ctx)
    num = [b * t * eip, b * t * emp, c * t * emp,
           b2 * t * eit, b2 * t * emt, c2 * t * emt]
    den = [b * b2 * t, t * eit * emp, t * emt * eip, t * emt * emp]
    pref = qpoch_many(num, q, over=den, ctx=ctx)
    w1 = vwp_8w7(b * b2 * t / q, [b * eit, b * emt, b2 * eip, b2 * emp, b * t / a2],
                 q, a2 * t / b, policy, ctx)
    f = bhs_rphis([c * emt, c2 * emp, t * emt * emp],
                  [c * t * emp, c2 * t * emt], q, t * eit * eip, policy, ctx)
    return pref * w1.value * f.value, _series_meta(w1, f)


_register("cdqh_bilinear",
          "continuous dual q-Hahn bilinear generating function (d = d' = 0)",
          _cdqh_sample, _cdqh_validate, _cdqh_lhs, _cdqh_rhs)


# ---------------------------------------------------------------------------
# Al-Salam-Chihara bilinear generating function (no product constraint)


def _asc_bilinear_sample(rng):
    q = _qchoice(rng)
    a, c, a2, c2 = _param(rng), _param(rng), _param(rng), _param(rng)
    return {"q": q, "a": a, "c": c, "a2": a2, "c2": c2,
            "t": _halved_t(rng, c2, c), "x": _cos_angle(rng), "y": _cos_angle(rng)}


def _asc_bilinear_validate(p):
    _require(0 < p["q"] < 1, "0 < q < 1")
    _require(max(abs(p["a"]), abs(p["c"])) < 1, "max(|a|, |c|) < 1")
    _require(max(abs(p["a2"]), abs(p["c2"])) < 1, "max(|a'|, |c'|) < 1")
    _require_conv(abs(complex(p["t"])) < 1, "|t| < 1")
    _require_conv(abs(p["t"] * p["c2"] / p["c"]) < 1, "|t c'/c| < 1")


def _asc_bilinear_lhs(p, policy, ctx):
    q, t = p["q"], p["t"]
    a, c, a2, c2 = (p[k] for k in ("a", "c", "a2", "c2"))
    rx = aw_stream(ASCParams(q, a, c).as_aw(), p["x"], ctx)
    ry = aw_stream(ASCParams(q, a2, c2).as_aw(), p["y"], ctx)
    # t^j / (q, a' c t; q)_j
    coeffs = pochhammer_ladder(t, (), [(q, 0, 1), (a2 * c * t, 0, 1)], q, ctx)
    # 2phi1(c t/c', a c q^j; a' c t q^j; q, t c'/c)
    fs = phi21_ladder(c * t / c2, a * c, a2 * c * t, q, t * c2 / c, policy, ctx)
    return _sum_j([coeffs, fs, rx, ry], policy, ctx)


def _asc_bilinear_rhs(p, policy, ctx):
    q, t = p["q"], p["t"]
    a, c, a2, c2 = (p[k] for k in ("a", "c", "a2", "c2"))
    eit, emt, eip, emp = unit_phases(p["x"], p["y"], ctx)
    num = [c * t * emp, c2 * t * emt, a * t * eip, a2 * t * eit]
    den = [t * eit * emp, t * emt * eip, c2 * t / c, a2 * c * t]
    pref = qpoch_many(num, q, over=den, ctx=ctx)
    f1 = bhs_rphis([a2 * eip, a * eit, t * eit * eip],
                   [a * t * eip, a2 * t * eit], q, t * emt * emp, policy, ctx)
    f2 = bhs_rphis([c * emt, c2 * emp, t * emt * emp],
                   [c * t * emp, c2 * t * emt], q, t * eit * eip, policy, ctx)
    return pref * f1.value * f2.value, _series_meta(f1, f2)


_register("asc_bilinear",
          "Al-Salam-Chihara bilinear generating function",
          _asc_bilinear_sample, _asc_bilinear_validate,
          _asc_bilinear_lhs, _asc_bilinear_rhs)


# ---------------------------------------------------------------------------
# continuous big q-Hermite reduction (a = a' = 0)


def _cbqh_sample(rng):
    q = _qchoice(rng)
    c, c2 = _param(rng), _param(rng)
    return {"q": q, "c": c, "c2": c2, "t": _halved_t(rng, c2, c),
            "x": _cos_angle(rng), "y": _cos_angle(rng)}


def _cbqh_validate(p):
    _require(0 < p["q"] < 1, "0 < q < 1")
    _require(abs(p["c"]) < 1 and abs(p["c2"]) < 1, "|c|, |c'| < 1")
    _require_conv(abs(complex(p["t"])) < 1, "|t| < 1")
    _require_conv(abs(p["t"] * p["c2"] / p["c"]) < 1, "|t c'/c| < 1")


def _cbqh_lhs(p, policy, ctx):
    """Directly summed big q-Hermite bilinear kernel; the j-independent
    2phi1 factor is q-binomial-summed to (t^2; q)_inf / (t c'/c; q)_inf."""
    q, t, c, c2 = p["q"], p["t"], p["c"], p["c2"]
    pref = qpoch(t * t, q, ctx=ctx) / qpoch(t * c2 / c, q, ctx=ctx)
    hx = aw_stream(AWParams(q, c, 0.0, 0.0, 0.0), p["x"], ctx)
    hy = aw_stream(AWParams(q, c2, 0.0, 0.0, 0.0), p["y"], ctx)
    # pref t^j / (q; q)_j
    coefs = (pref * co for co in pochhammer_ladder(t, (), [(q, 0, 1)], q, ctx))
    return _sum_j([coefs, hx, hy], policy, ctx)


def _cbqh_rhs(p, policy, ctx):
    return _asc_bilinear_rhs({**p, "a": 0.0, "a2": 0.0}, policy, ctx)


_register("cbqh_reduction",
          "continuous big q-Hermite reduction of the ASC bilinear formula",
          _cbqh_sample, _cbqh_validate, _cbqh_lhs, _cbqh_rhs)


# ---------------------------------------------------------------------------
# coupled expansion of a product of two MP kernels


def _mp_spoisson_sample(rng):
    k1, k2 = _u(rng, 0.2, 1.8), _u(rng, 0.2, 1.8)
    phi = _u(rng, 0.2, math.pi - 0.2)
    t = _signed(rng, 0.05, 0.6)
    while abs(-4 * t * math.sin(phi) ** 2 / (1 - t) ** 2) > 0.6:
        t *= 0.5
    return {"k1": k1, "k2": k2, "phi": phi, "t": t,
            "x1": _u(rng, -3, 3), "x2": _u(rng, -3, 3),
            "y1": _u(rng, -3, 3), "y2": _u(rng, -3, 3)}


def _mp_spoisson_validate(p):
    _require(p["k1"] > 0 and p["k2"] > 0, "k1, k2 > 0")
    _require(0 < p["phi"] < math.pi, "0 < phi < pi")
    _require_conv(abs(complex(p["t"])) < 1, "|t| < 1")


def _mp_spoisson_lhs(p, policy, ctx):
    e1 = mp_kernel_sum(p["k1"], p["phi"], KernelPoint(p["t"], p["x1"], p["y1"]),
                       policy, ctx)
    e2 = mp_kernel_sum(p["k2"], p["phi"], KernelPoint(p["t"], p["x2"], p["y2"]),
                       policy, ctx)
    return e1.value * e2.value, _series_meta(e1, e2)


def _mp_spoisson_rhs(p, policy, ctx):
    k1, k2, phi, t = p["k1"], p["k2"], p["phi"], p["t"]
    X, Y = p["x1"] + p["x2"], p["y1"] + p["y2"]
    sx = sj_mp_stream(k1, k2, p["x1"], p["x2"], phi, ctx)
    sy = sj_mp_stream(k1, k2, p["y1"], p["y2"], phi, ctx)
    # the kernels K_{k1+k2+j}(t; X, Y)
    ks = mp_kernel_closed_ladder(k1 + k2, phi, KernelPoint(t, X, Y), policy, ctx)
    return _sum_j([pochhammer_ladder(t, ctx=ctx), ks, map(ctx.cnum, sx),
                   map(ctx.cnum, sy)], policy, ctx)


_register("mp_spoisson",
          "product of two MP kernels as a coupled continuous-Hahn expansion",
          _mp_spoisson_sample, _mp_spoisson_validate,
          _mp_spoisson_lhs, _mp_spoisson_rhs)


# ---------------------------------------------------------------------------
# drivers


def sample_params(identity_id: str, seed: int) -> IdentityCase:
    """Deterministic admissible parameters for one identity instance."""
    entry = get_entry(identity_id)
    params = entry.sampler(_rng(identity_id, seed))
    return IdentityCase(identity_id, params, seed=seed)


def run_case(case: IdentityCase, precision: str = "auto") -> IdentityReport:
    """Evaluate both sides of an identity case through independent routes.

    ``precision``: "standard", "extended", or "auto" (standard first, retried
    at extended precision when the residual lands in (tol, 1e3 tol)).  A case
    with a side sum stopped at its term cap fails, whatever its residual.
    Any other ``precision`` raises ParamError.
    """
    if precision not in ("standard", "extended", "auto"):
        raise ParamError(f"precision must be standard, extended or auto, "
                         f"got {precision!r}")
    entry = get_entry(case.identity_id)
    entry.validator(case.params)
    ctx = EXTENDED if precision == "extended" else STANDARD
    report = _evaluate(entry, case, ctx)
    if (precision == "auto"
            and case.tol_rel < report.rel_err <= 1e3 * case.tol_rel):
        report = _evaluate(entry, case, EXTENDED)
        report.note = "extended retry"
    return report


def _evaluate(entry: IdentityEntry, case: IdentityCase, ctx: Context) -> IdentityReport:
    lhs, meta_l = entry.eval_lhs(case.params, case.policy, ctx)
    rhs, meta_r = entry.eval_rhs(case.params, case.policy, ctx)
    if not (ctx.is_finite(lhs) and ctx.is_finite(rhs)):
        raise DivergenceError(f"{case.identity_id}: non-finite side value")
    diff = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), ctx.rnum(_TINY))
    rel = float(diff / scale)
    abs_err = float(diff)
    capped = any(m.get("status") == SeriesStatus.MAX_TERMS_REACHED.value
                 for m in (meta_l, meta_r))
    return IdentityReport(
        identity_id=case.identity_id,
        lhs=complex(lhs), rhs=complex(rhs),
        abs_err=abs_err, rel_err=rel,
        passed=rel <= case.tol_rel and not capped,
        terms={"lhs": meta_l, "rhs": meta_r},
        precision_used=ctx.mode,
        seed=case.seed)
