"""Scalar building blocks: Pochhammer symbols, q-shifted factorials, the
(q-)Pochhammer ladder ``pochhammer_ladder`` on which every j-sum coefficient
steps from one j to the next, Gamma, principal-branch complex powers, and
Bessel J.

Scalar Gamma and log |Gamma| come from the mpmath context behind the
``Context`` (53 bits in standard precision).  The one Lanczos approximation,
``_log_abs_gamma_array``, takes log |Gamma| on a numpy array of quadrature
nodes in one pass; its tests compare it with the scalar functions.

Everything here is pure and re-entrant.  Functions accept an optional
``Context`` selecting standard (double) or extended (mpmath) arithmetic;
results are returned in the backend scalar type of that context.
"""
from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParamError, PoleError, RangeError
from .numerics import STANDARD, STANDARD_DIGITS, Context, escalate, log10_abs

# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
# Gives ~15 significant digits on the right half plane.
_LANCZOS_G = 4.7421875
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)


@dataclass(frozen=True)
class QBase:
    """Base of the q-deformation; the whole engine assumes 0 < q < 1."""

    q: float

    def __post_init__(self):
        _qval(self.q)


def _qval(q) -> float:
    """Accept a QBase or a bare float and return the validated base."""
    if isinstance(q, QBase):
        return q.q
    qq = float(q)
    if not 0.0 < qq < 1.0:
        raise ParamError(f"q must satisfy 0 < q < 1, got {qq}")
    return qq


def _neg_int_index(u):
    """m >= 0 with u == -m exactly, in u's own arithmetic, else None."""
    try:
        m = -round(complex(u).real)
    except (OverflowError, ValueError):
        return None
    return m if m >= 0 and u == -m else None


def _q_power_index(u, q: float):
    """m >= 0 with u == q^{-m} exactly, in u's own arithmetic, else None:
    a Python number must equal ``q ** -m``, an mpmath number q converted to
    its context, to the power -m (as :func:`polys.aw_poly` forms q^{-n} in
    either precision).  q^{-m} >= 1, so no u with |u| < 1 is one."""
    try:
        r = abs(complex(u))
        if not r >= 1:
            return None
        m = round(math.log(r) / -math.log(q))
        mpctx = getattr(u, "context", None)
        return m if u == (q if mpctx is None else mpctx.convert(q)) ** -m else None
    except (OverflowError, ValueError):
        return None


def nonneg_int(v, name: str, error=ParamError) -> int:
    """v as an int; ``error`` unless it is exactly a nonnegative integer
    (int() would truncate 2.5 to 2): the check on every degree and order."""
    if isinstance(v, numbers.Number) and _neg_int_index(-v) is not None:
        return int(v.real)
    raise error(f"{name} must be a nonnegative integer, got {v!r}")


def pochhammer(a, n: int, ctx: Context = STANDARD):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), exact ascending order.

    (a)_0 = 1.  Zero results are legal when a is a nonpositive integer > -n.
    """
    n = nonneg_int(n, "pochhammer order n")
    a = ctx.cnum(a)
    out = ctx.cnum(1)
    for m in range(n):
        out *= a + m
    return out


# log(1/20): the infinite product multiplies its factors while |a| q^m > 1/20
_LOG_TAIL = -math.log(20.0)
_LN10 = math.log(10.0)
_DBL_MIN = 2.0 ** -1022  # the smallest normal double
# the logs of the smallest normal double and of the largest double
_LOG_DBL_MIN, _LOG_DBL_MAX = math.log(_DBL_MIN), math.log(sys.float_info.max)


def qpoch(a, q, n: int | None = None, *, ctx: Context = STANDARD):
    """q-shifted factorial (a; q)_n = prod_{m<n} (1 - a q^m); exactly 0 when
    a = q^{-m} with m < n (any m for n=None), by :func:`_q_power_index`.

    ``n=None`` computes the infinite product: the factors for m < M, M the
    first m with |a| q^m <= 1/20, times exp(-sum_{k=1}^{K} x^k / (k (1 - q^k)))
    with x = a q^M, the log series of (x; q)_inf (Gasper-Rahman, Basic
    Hypergeometric Series, ch. 1); K is the first k with |x|^k < eps (1 - q),
    eps = 1e-17 in standard precision and 10^(-dps-2) in extended.  A
    non-finite |a| raises RangeError, as does, in standard precision, a
    product leaving the normal double range, at the factor that takes it out.
    """
    qq = _qval(q)
    if n is not None:
        n = nonneg_int(n, "qpoch order n")
    zero_at = _q_power_index(a, qq)
    if zero_at is not None and (n is None or zero_at < n):
        return ctx.cnum(0)
    a, qc, out = ctx.cnum(a), ctx.rnum(qq), ctx.cnum(1)
    m_cut, tail, checked = n or 0, 0, not ctx.extended
    try:
        if n is None and a:
            loga = float(ctx.rlog(abs(a)))
            if not loga < math.inf:
                raise OverflowError
            logq = math.log(qq)
            digits = ctx.dps + 2 if ctx.extended else 17
            m_cut = max(0, math.ceil((loga - _LOG_TAIL) / -logq))
            k_cut = 1 + int((math.log1p(-qq) - digits * _LN10) / (loga + m_cut * logq))
            # 1 - q^k by the sum (1 - q)(1 + q + ... + q^(k-1)), which keeps
            # its relative accuracy as q -> 1
            x, d = a * qc ** m_cut, 1 - qc
            xk, qk, dk = x, qc, d
            for k in range(1, k_cut + 1):
                tail += xk / (k * dk)
                xk *= x
                dk += qk * d
                qk *= qc
        # q^m by one power per factor: a running product drifts by m ulps
        for m in range(m_cut):
            out *= 1 - a * qc ** m
            if checked and not _DBL_MIN <= abs(out) < math.inf:
                break
        else:
            if tail:
                out *= ctx.exp(-tail)
            if not checked or _DBL_MIN <= abs(out) < math.inf:
                return out
    except OverflowError:  # a non-finite |a|, or cmath.exp or abs past the double range
        pass
    raise RangeError(f"(a; q)_{'inf' if n is None else n} at a = {a}, q = {qq} "
                     f"is out of range in {ctx}")


def qpoch_many(bases, q, n: int | None = None, *, over=(),
               ctx: Context = STANDARD):
    """Product of (a; q)_n over a list of bases, then divided by (l; q)_n
    for each l in ``over``, one factor at a time in list order; a vanishing
    (l; q)_n raises PoleError."""
    out = ctx.cnum(1)
    for a in bases:
        out *= qpoch(a, q, n, ctx=ctx)
    for l in over:
        den = qpoch(l, q, n, ctx=ctx)
        if not den:
            raise PoleError(f"qpoch_many: (l; q)_n vanishes at l = {l}, n = {n}")
        out /= den
    return out


def pochhammer_ladder(z, top=(), bottom=(), q=None, ctx: Context = STANDARD):
    """Yields c_j = z^j prod_top P(a, s, l; j) / prod_bottom P(b, s, l; j) for
    j = 0, 1, ..., where an entry (a, s, l) is P = (a + s j)_{l j}, or
    (a q^{s j}; q)_{l j} when a base q is given; s and l are nonnegative
    integers, l >= 1, and l may be ``math.inf`` in the q-case.

    The infinite q-products are taken once, at j = 0, by :func:`qpoch_many`.
    From j to j + 1 an entry gains its factors of index (s+l) j, ...,
    (s+l)(j+1) - 1 and drops those of index s j, ..., s j + s - 1, where the
    factor of index m is a + m, or 1 - a q^m (Gasper-Rahman, Basic
    Hypergeometric Series, section 1.2).  While l j < s a factor is both
    gained and dropped in one step; it is left out of both, so (A + j)_j at
    A = 0 and (g q^j; q)_j at g = 1 never form 0/0.  A step whose divisor
    vanishes raises PoleError.
    """
    z = ctx.cnum(z)
    # one slot per factor position of a step: (first step it enters, +1 to
    # multiply or -1 to divide, base, index step, index offset)
    slots = []
    for sign, entries in ((1, top), (-1, bottom)):
        for a, s, l in entries:
            a = ctx.cnum(a)
            if l == math.inf:
                slots += [(0, -sign, a, s, i) for i in range(s)]
                continue
            slots += [(max(0, -((i - s) // l)), sign, a, s + l, i) for i in range(s + l)]
            slots += [(i // l + 1, -sign, a, s, i) for i in range(s)]
    if q is None:
        co = ctx.cnum(1)
    else:
        qq = _qval(q)
        qc = ctx.rnum(qq)
        co = qpoch_many([a for a, _, l in top if l == math.inf], qq,
                        over=[b for b, _, l in bottom if l == math.inf], ctx=ctx)
    last = max((slot[0] for slot in slots), default=0)
    # the factor positions of a step, the first ``nup`` multiplying
    vals, steps, nup = [], [], 0
    j = 0
    while True:
        yield co
        # c_{j+1} = (c_j z) P / D, and a plain power of z has no P or D
        co = co * z
        if not slots:
            continue
        if j <= last:
            for first, sign, a, step, i in slots:
                if first == j:
                    at = nup if sign > 0 else len(vals)
                    nup += sign > 0
                    m = step * j + i
                    vals.insert(at, a + m if q is None else a * qc ** m)
                    steps.insert(at, step if q is None else qc ** step)
        if q is None:
            factors = vals
            vals = list(map(operator.add, vals, steps))
        else:
            factors = [1 - v for v in vals]
            vals = list(map(operator.mul, vals, steps))
        down = math.prod(factors[nup:])
        if down == 0:
            raise PoleError(f"pochhammer_ladder: zero divisor from j = {j} to {j + 1}")
        co = co * math.prod(factors[:nup]) / down
        j += 1


def complex_gamma(z, ctx: Context = STANDARD):
    """Gamma(z) on the complex plane, from the mpmath context behind ``ctx``
    (53 bits in standard precision), as a ``cnum`` value.

    Raises PoleError when z is exactly a nonpositive integer, and RangeError
    when Gamma(z) is not finite in ``ctx``'s backend.
    """
    if _neg_int_index(z) is not None:
        raise PoleError(f"gamma pole at z = {z}")
    g = ctx.cnum(ctx.gamma(ctx.cnum(z)))
    if not ctx.is_finite(g):
        raise RangeError(f"Gamma({z}) is not finite in {ctx}")
    return g


def check_exp_range(x, ctx: Context, what: str):
    """RangeError, in standard precision, where exp(x) of a real or complex
    ``x`` has a modulus outside the normal double range: a prefactor
    assembled in logs is checked so before it is exponentiated."""
    if not ctx.extended and not _LOG_DBL_MIN <= x.real < _LOG_DBL_MAX:
        raise RangeError(f"{what} = exp({x}) is out of range in {ctx}")


def log_gamma_real(x, ctx: Context = STANDARD):
    """log Gamma(x) for real x > 0 (coefficient assembly helper)."""
    if x <= 0:
        raise DomainError("log_gamma_real requires x > 0")
    if ctx.extended:
        return ctx.loggamma(ctx.rnum(x))
    return math.lgamma(x)


def log_abs_gamma(z, ctx: Context = STANDARD):
    """log |Gamma(z)| as a float, overflow-free for large |Im z| (weight
    evaluation): from the mpmath context behind ``ctx`` for a complex number,
    or, in standard precision only, elementwise on a complex array (see
    :func:`_log_abs_gamma_array`).  PoleError when z is exactly a
    nonpositive integer.
    """
    if np.ndim(z):
        if ctx.extended:
            raise ParamError("log_abs_gamma takes arrays in standard precision only")
        return _log_abs_gamma_array(np.asarray(z, dtype=complex))
    if _neg_int_index(z) is not None:
        raise PoleError(f"gamma pole at z = {z}")
    return float(ctx.loggamma(ctx.cnum(z)).real)


def _lanczos_sum(zz):
    """The Lanczos series of Gamma(zz + 1), elementwise on a complex array."""
    acc = _LANCZOS_COEFFS[0]
    for k in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[k] / (zz + k)
    return acc


def _log_abs_gamma_array(z: np.ndarray) -> np.ndarray:
    """log |Gamma(z)| on every element of a complex array by the Lanczos
    approximation, with the reflection for Re z < 1/2 and its |pi Im z| > 25
    asymptote selected elementwise: the Gram matrices' weight on their node
    vectors."""
    m = np.round(z.real)
    if np.any((m <= 0) & (z == m)):
        raise PoleError("gamma pole in log_abs_gamma's argument array")
    reflect = z.real < 0.5
    zz = np.where(reflect, 1.0 - z, z) - 1.0
    t = zz + _LANCZOS_G + 0.5
    val = (0.5 * math.log(2 * math.pi) + (zz + 0.5) * np.log(t) - t
           + np.log(_lanczos_sum(zz))).real
    y = math.pi * z.imag
    # both branches are computed everywhere: sinh overflows where the
    # asymptote is taken instead, and the sine vanishes at the positive
    # integers, which take no reflection.  sin^2 has period pi and Re z - m
    # is exact, so next to a pole the sine keeps the digits that pi Re z
    # would round off
    with np.errstate(over="ignore", divide="ignore"):
        log_sin = np.where(np.abs(y) > 25.0, np.abs(y) - math.log(2.0),
                           0.5 * np.log(np.sin(math.pi * (z.real - m)) ** 2
                                        + np.sinh(y) ** 2))
    return np.where(reflect, math.log(math.pi) - log_sin - val, val)


def complex_pow_principal(base, exponent, ctx: Context = STANDARD):
    """base**exponent = exp(exponent * Log base), principal logarithm."""
    b = ctx.cnum(base)
    e = ctx.cnum(exponent)
    if b == 0:
        if e.imag == 0 and e.real > 0:
            return ctx.cnum(0)
        raise DomainError("0 cannot be raised to a non-positive-real power")
    return ctx.exp(e * ctx.log(b))


def bessel_j(nu: float, z: float, ctx: Context = STANDARD):
    """Bessel J_nu(z) of the first kind by the ascending series (DLMF 10.2.2),
    |z| <= 30.  A negative z needs an exactly integral order nu = m >= 0
    (J_m(-z) = (-1)^m J_m(z)); any other order there raises DomainError.

    The alternating series cancels where its largest term exceeds the sum:
    up to about 0.44 z digits at low order and large z, and more near a zero
    of J.  :func:`numerics.escalate` sums it, first in ``ctx``, until at most
    two of ``ctx``'s digits are lost, and the value is rounded back to ``ctx``.
    """
    if abs(z) > 30.0:
        raise RangeError(f"bessel_j supports |z| <= 30, got {z}")
    if nu <= -1.0:
        raise RangeError("bessel_j requires nu > -1")
    if z < 0:
        m = _neg_int_index(-nu)
        if m is None:
            raise DomainError("negative argument needs an exactly integral order")
        sign = -1.0 if m % 2 else 1.0
        return sign * bessel_j(nu, -z, ctx)
    if z == 0:
        return ctx.rnum(1 if nu == 0 else 0)
    keep = (ctx.dps if ctx.extended else STANDARD_DIGITS) - 2
    return ctx.rnum(escalate(lambda c: _bessel_series(nu, z, c), ctx, keep=keep)[0])


def _bessel_series(nu: float, z: float, ctx: Context):
    """(sum, digits lost to cancellation, None) of the ascending series of
    J_nu(z), z > 0, stopped at the first term below 10^-(dps+1) of the sum."""
    zr = ctx.rnum(z)
    nur = ctx.rnum(nu)
    half = zr / 2
    h2 = half * half
    if ctx.extended:
        term = ctx.rexp(nur * ctx.rlog(half) - log_gamma_real(nur + 1, ctx))
    else:
        # a power and a Gamma round once each, where exp of the log form
        # carries the rounding of its argument, up to |nu log(z/2)| ulps;
        # nu Gamma(nu) leaves out the rounding of nu + 1, which Gamma would
        # amplify by psi(nu + 1)
        try:
            term = half ** nur / (math.gamma(nur + 1) if nur < 1 else nur * math.gamma(nur))
        except OverflowError:
            term = math.exp(nur * math.log(half) - math.lgamma(nur + 1))
    total = term
    largest = abs(term)
    tol = 10.0 ** (-ctx.dps - 1)
    m = 0
    while m < 500:
        m += 1
        term *= -h2 / (m * (nur + m))
        total += term
        size = abs(term)
        # |total| <= (m + 1) largest, so a new largest term cannot meet the stop
        if size > largest:
            largest = size
        elif size <= tol * abs(total):
            break
    return total, log10_abs(largest) - log10_abs(total), None
