"""Orthonormality verification by numerical integration: Gram matrices of the
Meixner-Pollaczek and Al-Salam-Chihara families against their printed weights.

Both integrals are taken by the trapezoid rule, whose error falls
geometrically with the node count for an integrand analytic in a strip about
the interval and negligible at its ends, or periodic over it (Trefethen and
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review 56,
2014).  The Meixner-Pollaczek integrand, analytic in |Im x| < k and decaying
exponentially, is integrated in t after x = sinh t, which spreads the nodes
evenly over the peak and thins them out over the tails.  The Al-Salam-Chihara
integrand is integrated over theta in [0, pi] after x = cos(theta); it is even
and 2 pi-periodic in theta and its weight vanishes at theta = 0 and pi, so the
interior nodes give the whole trapezoid sum.  The step halves level by level,
each level evaluating the integrand once on its new midpoints only, until two
successive sums agree within the tolerance elementwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ConvergenceError, ParamError, RangeError
from .polys import ASCParams, MPParams, asc_orthonormal_nodes, mp_orthonormal_nodes
from .series import log_abs_gamma, qpoch

# the finest grid the trapezoid rule refines to, in nodes
_MAX_NODES = 2 ** 16


@dataclass
class QuadratureResult:
    """A Gram matrix with its accumulated error estimate and counts."""

    value: np.ndarray
    error_estimate: float
    evaluations: int


def mp_weight(k: float, phi: float, x):
    """Meixner-Pollaczek orthogonality density
    ((2 sin phi)^(2k) / 2 pi) e^((2 phi - pi) x) |Gamma(k + i x)|^2 at a
    float ``x`` (a float comes back) or elementwise on a float array, with
    log |Gamma| by ``series.log_abs_gamma``'s Lanczos array in both cases.

    Assembled in log space: the two exponential factors overflow/underflow
    individually far inside the region where their product still matters.
    """
    MPParams(k, phi)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    logw = (2 * k * math.log(2 * math.sin(phi)) - math.log(2 * math.pi)
            + (2 * phi - math.pi) * xs + 2 * log_abs_gamma(k + 1j * xs))
    w = np.where(logw < -745.0, 0.0, np.exp(logw))
    return w if np.ndim(x) else float(w[0])


def aw_weight(params, x):
    """Askey-Wilson-type weight w(x) = h(x,1) h(x,-1) h(x,q^(1/2)) h(x,-q^(1/2))
    / prod over nonzero parameters of h(x,p), with
    h(x,alpha) = (alpha e^(i theta), alpha e^(-i theta); q)_inf
               = prod_m (1 - 2 alpha x q^m + alpha^2 q^(2m)), x = cos theta;
    ``x`` is a float or, elementwise, a float array.

    Accepts ASCParams (two-parameter denominator) or AWParams (up to four).
    The numerator is one product, (e^(2 i theta), e^(-2 i theta); q)_inf,
    since (a, -a, q^(1/2) a, -q^(1/2) a; q)_inf = (a^2; q)_inf.  Each factor
    is written as a sum over sin^2 theta = (1 - x)(1 + x), which keeps its
    relative accuracy up to x = +-1, where the numerator vanishes.  Every
    product stops before the first M with max(1, |p|) q^M < 1e-17 (1 - q),
    p over the parameters, and takes no tail: the factors it leaves out
    move it by at most 3 max(1, |p|) q^M / (1 - q) < 3e-17 relative, below
    double rounding.
    """
    if isinstance(params, ASCParams):
        q, denom_params = params.q, (params.a, params.b)
    else:
        q, denom_params = params.q, (params.a, params.b, params.c, params.d)
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) >= 1.0):
        raise RangeError("aw_weight is evaluated strictly inside (-1, 1)")
    alphas = [complex(p_) for p_ in denom_params if complex(p_) != 0]
    top = max([1.0] + [abs(p_) for p_ in alphas])
    qm = q ** np.arange(1 + int(math.log(1e-17 * (1 - q) / top) / math.log(q)))
    x = x[..., None]
    s2 = (1 - x) * (1 + x)
    # 1 - 2 cos(2 theta) q^m + q^2m = (1 - q^m)^2 + 4 q^m sin^2 theta
    w = np.prod((1 - qm) ** 2 + 4 * qm * s2, axis=-1)
    # h(x, alpha) is complex for complex alpha; only the assembled ratio is
    # real (conjugate parameter pairs), so realness is taken at the end
    for alpha in alphas:
        # 1 - 2 a x + a^2 = (1 - a x)^2 + a^2 sin^2 theta, a = alpha q^m
        aq = alpha * qm
        w = w / np.prod((1 - aq * x) ** 2 + aq * aq * s2, axis=-1)
    return w.real


def _trapezoid(f, a: float, b: float, tol: float):
    """Trapezoid rule on [a, b] for an integrand negligible at both ends, so
    that the interior nodes carry the whole sum; f takes a vector of nodes and
    returns the sum of the integrand over them (an array of any shape).

    The rule starts from 16 intervals and halves the step at each level,
    calling f once per level, on the new midpoints only, so the evaluations
    add up to the node count of the final grid.  It stops when two successive
    sums differ by at most tol elementwise, and returns (the finer sum, that
    largest difference, evaluations).  A grid finer than _MAX_NODES nodes
    raises ConvergenceError.
    """
    n = 16
    h = (b - a) / n
    total = f(a + h * np.arange(1, n))
    value = h * total
    n_eval = n - 1
    while True:
        total = total + f(a + h * (np.arange(n) + 0.5))
        n_eval += n
        n *= 2
        h /= 2
        value, prev = h * total, value
        err = float(np.abs(value - prev).max())
        if err <= tol:
            return value, err, n_eval
        if 2 * n - 1 > _MAX_NODES:
            raise ConvergenceError(
                f"quadrature error estimate {err:.3e} exceeds {tol}")


def _mp_support(k: float, phi: float, nmax: int):
    """Interval outside which weight * (1 + x^2)^(nmax+1) is below 1e-18 of
    the weight's peak (the polynomial envelope keeps the truncation honest):
    the first of -8, -10, ..., -400 and of 8, 10, ..., 400 where it is."""
    peak = float(mp_weight(k, phi, np.arange(-8.0, 8.0001, 0.5)).max())
    steps = 8.0 + 2.0 * np.arange(197)
    xs = np.concatenate((-steps, steps))
    small = (mp_weight(k, phi, xs) * (1 + xs * xs) ** (nmax + 1)
             <= 1e-18 * peak).reshape(2, -1)
    # the walk stops at +-400 whether or not the envelope is small there
    small[:, -1] = True
    first = small.argmax(axis=1)
    return -float(steps[first[0]]), float(steps[first[1]])


def _node_table(values, nodes, nmax: int) -> np.ndarray:
    """The first nmax + 1 values of a recurrence run on ``nodes``, one row per
    degree (p_0 is broadcast to every node)."""
    rows = list(islice(values, nmax + 1))
    rows[0] = np.full(nodes.shape, rows[0])
    return np.array(rows)


def ortho_gram(family: str, params: dict, nmax: int = 8,
               tol: float = 1e-9) -> QuadratureResult:
    """Gram matrix G[m][n] = integral of p_m p_n against the printed measure,
    for the orthonormal Meixner-Pollaczek ("mp") or Al-Salam-Chihara ("asc")
    family; exact orthonormality means G = I.

    Both families run the one trapezoid driver (``_trapezoid``): MP in t
    over [asinh(lo), asinh(hi)] of its support (``_mp_support``), with x =
    sinh t and the weight times cosh t; ASC in theta over [0, pi], with x =
    cos(theta).  Each level of the driver evaluates the integrand once on its
    new nodes: one recurrence over the node vector, one weight call on it,
    and the node sum of w p_m p_n as one matrix product.  ``error_estimate``
    is the largest entry of the difference between the last two levels, at
    most ``tol``.
    """
    if nmax < 0:
        raise ParamError("ortho_gram needs nmax >= 0")
    if nmax > 12:
        raise ParamError("ortho_gram supports nmax <= 12")
    if family == "mp":
        k, phi = params["k"], params["phi"]
        mpp = MPParams(k, phi)
        lo, hi = _mp_support(k, phi, nmax)

        def f(ts):
            xs = np.sinh(ts)
            vals = _node_table(mp_orthonormal_nodes(mpp, xs), xs, nmax)
            return (vals * (mp_weight(k, phi, xs) * np.cosh(ts))) @ vals.T

        value, err, n_eval = _trapezoid(f, math.asinh(lo), math.asinh(hi), tol)
        return QuadratureResult(value, err, n_eval)
    if family == "asc":
        q, a, b = params["q"], params["a"], params["b"]
        asc = ASCParams(q, a, b)
        if not asc.in_measure_regime():
            raise ParamError(
                "ASC parameters must be real or conjugate with moduli < 1 "
                "(absolutely continuous measure regime)")
        const = float(complex(qpoch(q, q)).real
                      * complex(qpoch(complex(a) * complex(b), q)).real) / (2 * math.pi)

        def f(thetas):
            xs = np.cos(thetas)
            vals = _node_table(asc_orthonormal_nodes(a, b, q, xs), xs, nmax).real
            return (vals * (const * aw_weight(asc, xs))) @ vals.T

        value, err, n_eval = _trapezoid(f, 0.0, math.pi, tol)
        return QuadratureResult(value, err, n_eval)
    raise ParamError(f"unknown family {family!r}; use 'mp' or 'asc'")
