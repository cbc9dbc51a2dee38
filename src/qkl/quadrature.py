"""Orthonormality verification by numerical integration: Gram matrices of the
Meixner-Pollaczek and Al-Salam-Chihara families against their printed weights.

Integration uses adaptive Gauss-Kronrod (G7, K15) panels with elementwise
error tracking; the Al-Salam-Chihara integral is taken over theta in [0, pi]
after x = cos(theta), which removes the 1/sqrt(1-x^2) endpoint singularity.
Refinement runs in rounds, each evaluating the integrand once on the nodes of
all the panels it makes: a round bisects every panel whose error exceeds its
width-proportional share tol (hi - lo) / (b - a) of the error budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ConvergenceError, ParamError, RangeError
from .numerics import STANDARD, Context
from .polys import ASCParams, MPParams, asc_orthonormal_nodes, mp_orthonormal_nodes
from .series import log_abs_gamma, qpoch

# Gauss-Kronrod 15-point nodes / weights, with the embedded Gauss-7 rule
# (QUADPACK constants).
_XGK = (0.991455371120813, 0.949107912342759, 0.864864423359769,
        0.741531185599394, 0.586087235467691, 0.405845151377397,
        0.207784955007898, 0.0)
_WGK = (0.022935322010529, 0.063092092629979, 0.104790010322250,
        0.140653259715525, 0.169004726639267, 0.190350578064785,
        0.204432940075298, 0.209482141084728)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119,
       0.417959183673469)
# the seven off-centre abscissae, for all nodes of a panel at once
_XGK_LR = np.array(_XGK[:7])
_MAX_PANELS = 2000


@dataclass
class QuadratureResult:
    """A Gram matrix with its accumulated error estimate and counts."""

    value: np.ndarray
    error_estimate: float
    evaluations: int


def mp_weight(k: float, phi: float, x, ctx: Context = STANDARD):
    """Meixner-Pollaczek orthogonality density
    ((2 sin phi)^(2k) / 2 pi) e^((2 phi - pi) x) |Gamma(k + i x)|^2;
    ``x`` is a float or, in standard precision, elementwise a float array.

    Assembled in log space: the two exponential factors overflow/underflow
    individually far inside the region where their product still matters.
    """
    MPParams(k, phi)
    if np.ndim(x):
        x = np.asarray(x, dtype=float)
    logw = (2 * k * math.log(2 * math.sin(phi)) - math.log(2 * math.pi)
            + (2 * phi - math.pi) * x + 2 * log_abs_gamma(k + 1j * x, ctx))
    if np.ndim(logw):
        return np.where(logw < -745.0, 0.0, np.exp(logw))
    if logw < -745.0:
        return 0.0
    return math.exp(logw)


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
    relative accuracy up to x = +-1, where the numerator vanishes.  The
    products stop where max(1, |p|) q^m < 1e-17 (1 - q), as ``qpoch`` does;
    what they leave out is below double rounding.
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


def _gk15(f, lo: np.ndarray, hi: np.ndarray):
    """Apply G7/K15 on the panels [lo[i], hi[i]], with the integrand f
    evaluated once on the vector of all their nodes (per panel: centre, then
    left and right halves); f returns one value per node along its first
    axis.

    Returns (K15 integrals, elementwise |K15 - G7| estimates, evaluations),
    the first two with one entry per panel along their first axis.
    """
    h = 0.5 * (hi - lo)
    mid = (0.5 * (lo + hi))[:, None]
    dx = h[:, None] * _XGK_LR
    nodes = np.concatenate((mid, mid - dx, mid + dx), axis=1)
    fx = f(nodes.ravel())
    fx = fx.reshape(nodes.shape + fx.shape[1:])
    fc, fl, fr = fx[:, 0], fx[:, 1:8], fx[:, 8:]
    k15 = _WGK[7] * fc
    g7 = _WG[3] * fc
    for i in range(7):
        k15 = k15 + _WGK[i] * (fl[:, i] + fr[:, i])
        if i % 2 == 1:
            g7 = g7 + _WG[i // 2] * (fl[:, i] + fr[:, i])
    h = h.reshape(h.shape + (1,) * (k15.ndim - 1))
    k15 = k15 * h
    g7 = g7 * h
    return k15, np.abs(k15 - g7), nodes.size


def _adaptive(f, a: float, b: float, tol: float, initial_panels: int = 8):
    """Adaptive bisection of GK15 panels driven by the max elementwise error.

    Each round calls f once: first on the nodes of all initial panels, then
    on those of the halves of every panel whose largest elementwise error
    exceeds its width-proportional share tol (hi - lo) / (b - a) of the
    budget.  The panels are kept in order of lo, and the integral and error
    are summed over them in that order.
    """
    edges = np.linspace(a, b, initial_panels + 1)
    lo, hi = edges[:-1], edges[1:]
    val, err, n_eval = _gk15(f, lo, hi)
    while True:
        total_err = float(np.add.accumulate(err)[-1].max())
        if total_err <= tol:
            break
        worst = err.reshape(len(lo), -1).max(axis=1)
        split = worst * (b - a) > tol * (hi - lo)
        # the panel with the most error per width always splits: the shares
        # add up to tol only up to rounding, so a round may otherwise find none
        split[np.argmax(worst / (hi - lo))] = True
        if len(lo) + split.sum() > _MAX_PANELS:
            raise ConvergenceError(
                f"quadrature error estimate {total_err:.3e} exceeds {tol}")
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_val, new_err, ne = _gk15(f, new_lo, new_hi)
        n_eval += ne
        keep = ~split
        lo, hi, val, err = (np.concatenate((old[keep], new)) for old, new in (
            (lo, new_lo), (hi, new_hi), (val, new_val), (err, new_err)))
        order = np.argsort(lo)
        lo, hi, val, err = lo[order], hi[order], val[order], err[order]
    return np.add.accumulate(val)[-1], total_err, n_eval


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


def _gram_integrand(w, vals):
    """w(x) p_m(x) p_n(x) per node, as an array [node, m, n], from the weights
    ``w`` [node] and the values ``vals`` [n, node]."""
    v = vals.T
    out = v[:, :, None] * v[:, None, :]
    # in place: a round's nodes make this the largest array of a Gram
    out *= w[:, None, None]
    return out


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

    Each refinement round evaluates the integrand once, on the 15 nodes of
    every panel it makes: one recurrence over the node vector and one weight
    call on it.  Panels are bisected until their errors, each within its
    width-proportional share of ``tol``, add up to at most ``tol``.
    """
    if nmax < 0:
        raise ParamError("ortho_gram needs nmax >= 0")
    if nmax > 12:
        raise ParamError("ortho_gram supports nmax <= 12")
    if family == "mp":
        k, phi = params["k"], params["phi"]
        mpp = MPParams(k, phi)
        lo, hi = _mp_support(k, phi, nmax)

        def f(xs):
            vals = _node_table(mp_orthonormal_nodes(mpp, xs), xs, nmax)
            return _gram_integrand(mp_weight(k, phi, xs), vals)

        value, err, n_eval = _adaptive(f, lo, hi, tol,
                                       initial_panels=max(16, int((hi - lo) / 4)))
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
            vals = _node_table(asc_orthonormal_nodes(a, b, q, xs), xs, nmax)
            return _gram_integrand(const * aw_weight(asc, xs), vals.real)

        value, err, n_eval = _adaptive(f, 1e-13, math.pi - 1e-13, tol)
        return QuadratureResult(value, err, n_eval)
    raise ParamError(f"unknown family {family!r}; use 'mp' or 'asc'")
