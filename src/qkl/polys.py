"""Polynomial families evaluated from their terminating hypergeometric
definitions, plus the coupling coefficients built from them.

Terminating q-series suffer catastrophic cancellation that grows like
q^(-n(n-1)/2) with the degree, and the classical families lose digits at a
slower but still fatal rate; every definitional evaluation here therefore
monitors the largest summand and transparently re-runs at escalated precision
until the result carries ~15 trustworthy digits.  Meixner-Pollaczek and
continuous q-Hermite values are instead coefficients of their generating
functions, summed on integers (``dyadic.conjugate_convolution``), which
cancel far less.  Al-Salam-Chihara is the Askey-Wilson family at c = d = 0
and is evaluated as such by ``aw_poly``.

Recurrence streams yield p_0, p_1, ... at one point: Meixner-Pollaczek and
Al-Salam-Chihara (orthonormal, backing the kernel sums), Askey-Wilson
(``aw_stream``, in ``aw_poly``'s normalisation, with ``sj_ac_stream`` on top
of it; these back the q-bilinear j-sums), and the classical shapes
3F2(-n, n+s-1, z; u, v; 1) (``_3f2_stream``, KLS 9.4.4) and
2F1(-n, n+s-1; u; y) (``_2f1_stream``, KLS 9.8.4), with ``chahn_stream``,
``jacobi_stream`` and ``sj_mp_stream`` on top of them; these back the
classical j-sums.  Each is a coefficient source yielding (U_n, B_n, L_n),
n = 0, 1, ..., plus a thin wrapper that runs it on the one forward
recurrence ``_recurrence``; a new stream follows the same recipe.  The
orthonormal MP and Al-Salam-Chihara recurrences also run on a numpy vector of
quadrature nodes (``mp_orthonormal_nodes``, ``asc_orthonormal_nodes``).  The
orthonormal Al-Salam-Chihara coefficients stay apart from the Askey-Wilson
ones, so the two sides of ``ac_spoisson`` share no family formula.  The
definitions stay as the oracles the streams are tested against.  A stream's
values are numbers of its context and carry their precision with them, so a
stream holds no state beyond its recurrence and may be dropped anywhere.

``sj_mp`` and ``sj_mp_stream`` take their weight in log form for every j, so
both still raise ValueError at j = 0 when k1 + k2 < 1/2 (the logarithm of
2k1 + 2k2 - 1); a weight carried by its ratio in j would not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice

from .errors import DegreeError, DomainError, ParamError, RealityError
from .dyadic import ONE, conjugate_convolution, rising, times_sqrt
from .hyper import bhs_rphis, hyp_pfq, stable_eval
from .numerics import EXTENDED, STANDARD, Context, escalate
from .series import (QBase, _qval, log_gamma_real, nonneg_int, pochhammer, pochhammer_ladder, qpoch,
                     qpoch_many)

_REALITY_REL = 1e-10


@dataclass(frozen=True)
class MPParams:
    """Meixner-Pollaczek family: k > 0, 0 < phi < pi."""

    k: float
    phi: float

    def __post_init__(self):
        if not self.k > 0:
            raise ParamError(f"MP parameter k must be positive, got {self.k}")
        if not 0 < self.phi < math.pi:
            raise ParamError(f"MP parameter phi must lie in (0, pi), got {self.phi}")


@dataclass(frozen=True)
class CHahnParams:
    """Continuous Hahn family; no constraints for bare evaluation."""

    a: complex
    b: complex
    c: complex
    d: complex


@dataclass(frozen=True)
class HahnParams:
    alpha: complex
    beta: complex
    N: int

    def __post_init__(self):
        if nonneg_int(self.N, "Hahn parameter N") < 1:
            raise ParamError("Hahn parameter N must be a positive integer")


@dataclass(frozen=True)
class AWParams:
    """Askey-Wilson family on x = cos(theta); 0 < q < 1."""

    q: float
    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        QBase(self.q)

    def in_measure_regime(self) -> bool:
        """Real or conjugate-pair parameters of modulus < 1 (absolutely
        continuous orthogonality measure)."""
        vals = [complex(self.a), complex(self.b), complex(self.c), complex(self.d)]
        if max(map(abs, vals)) >= 1.0:
            return False
        rest = vals[:]
        while rest:
            v = rest.pop()
            if abs(v.imag) <= 1e-12 * max(1.0, abs(v)):
                continue
            mate = next((w for w in rest if abs(w - v.conjugate()) <= 1e-12), None)
            if mate is None:
                return False
            rest.remove(mate)
        return True


@dataclass(frozen=True)
class ASCParams:
    """Al-Salam-Chihara family (Askey-Wilson with c = d = 0)."""

    q: float
    a: complex
    b: complex

    def __post_init__(self):
        QBase(self.q)

    def as_aw(self) -> AWParams:
        return AWParams(self.q, self.a, self.b, 0.0, 0.0)

    def in_measure_regime(self) -> bool:
        return self.as_aw().in_measure_regime()


# --------------------------------------------------------------------------
# cancellation-aware evaluation

_stable_eval = stable_eval


def _enforce_real(value, where: str):
    """Check the provably-real value and return its real part (backend type)."""
    v = complex(value)
    if abs(v.imag) > _REALITY_REL * max(1.0, abs(v.real)):
        raise RealityError(
            f"{where}: imaginary residue {v.imag:.3e} exceeds bound for {v.real:.6e}")
    return value.real


# --------------------------------------------------------------------------
# three-term recurrence


def _recurrence(two_x, coefficients, p0):
    """Yields p_0 = p0, p_1, ... of 2x p_n = U_n p_{n+1} + B_n p_n + L_n p_{n-1}
    (p_{-1} = 0) by forward recurrence, which is stable on the orthogonality
    support (Gautschi, SIAM Rev. 9 (1967)); ``coefficients`` yields
    (U_n, B_n, L_n) for n = 0, 1, ... in the backend of ``two_x`` and ``p0``."""
    prev, cur = 0, p0
    yield cur
    for up, mid, low in coefficients:
        prev, cur = cur, ((two_x - mid) * cur - low * prev) / up
        yield cur


# --------------------------------------------------------------------------
# Meixner-Pollaczek


def mp_poly(p: MPParams, n: int, x: float, orthonormal: bool = False,
            ctx: Context = STANDARD) -> float:
    """Meixner-Pollaczek P_n^(k)(x; phi) from its generating function
    (1 - e^{i phi} t)^{-k+ix} (1 - e^{-i phi} t)^{-k-ix} (KLS section 9.7):

        P_n = sum_j B_j conj(B_{n-j}),  B_j = (k + ix)_j / j! e^{-ij phi},

    summed on integers by ``dyadic.conjugate_convolution`` at the working
    precision of an extended context, whatever ``ctx`` is, and escalated on
    the digits it measures lost (largest term over the sum).  With
    ``orthonormal`` the value is multiplied by sqrt(n! / ((2k)_n Gamma(2k))),
    also on integers.  A non-real x raises RealityError before any
    arithmetic.
    """
    n = nonneg_int(n, "mp_poly degree n")
    if getattr(x, "imag", 0):
        raise RealityError(f"mp_poly: x = {x} is not real")
    k, phi, x = p.k, p.phi, x.real

    def build(c: Context):
        a, z, gamma = _mp_lifts(k, phi, x, c)
        total, lost = conjugate_convolution([(a, ONE)], [(ONE, ONE)], z, n, c.prec)
        if orthonormal:
            # 2k is twice the real part of k + ix, exactly
            poch, _, pe = rising((2 * a[0], 0, a[2]), n)
            total = times_sqrt(total, (math.factorial(n), 0, 0),
                               (poch * gamma[0], 0, pe + gamma[2]), c.prec)
        return c.from_dyadic(total).real, lost, None

    value, _, _ = escalate(build, ctx if ctx.extended else EXTENDED)
    return ctx.rnum(value)


@lru_cache(maxsize=8)
def _mp_lifts(k: float, phi: float, x, c: Context):
    """k + ix exactly, e^{-i phi} and Gamma(2k) at the precision of ``c``, as
    triples: lifted once for the degrees asked at one point (the right side
    of ``mp_recurrence`` asks for three)."""
    d = c.to_dyadic
    return d(c.cnum(k, x)), d(c.expi(-c.rnum(phi))), d(c.gamma(2 * c.rnum(k)))


def mp_poly_rec(p: MPParams, n: int, y: float, ctx: Context = STANDARD) -> float:
    """Orthonormal MP value by upward three-term recurrence from
    p_{-1} = 0, p_0 = 1/sqrt(Gamma(2k))."""
    n = nonneg_int(n, "mp_poly_rec degree n")
    return ctx.rnum(next(islice(mp_orthonormal_stream(p, y, ctx), n, None)))


def mp_orthonormal_stream(p: MPParams, y: float, ctx: Context = STANDARD):
    """Yields the orthonormal MP values p_0(y), p_1(y), ... (stable stream)."""
    return mp_orthonormal_nodes(p, ctx.rnum(y), ctx)


def mp_orthonormal_nodes(p: MPParams, y, ctx: Context = STANDARD):
    """The recurrence of ``mp_orthonormal_stream`` at a backend real ``y`` or,
    in standard precision, at a float array of nodes.  On nodes each
    coefficient is computed once for all of them, p_1, p_2, ... are arrays
    whose entries equal the scalar stream's values bit for bit, and p_0 stays
    the scalar 1/sqrt(Gamma(2k))."""
    cosphi = ctx.cos(ctx.rnum(p.phi))
    return _recurrence(2 * y * ctx.sin(ctx.rnum(p.phi)),
                       (_mp_coefficients(p.k, cosphi, n, ctx) for n in count()),
                       ctx.rexp(-log_gamma_real(2 * p.k, ctx) / 2))


def _mp_coefficients(k: float, cosphi, n: int, ctx: Context):
    """(U_n, B_n, L_n) of the orthonormal MP recurrence in the variable
    2y sin(phi): 2y sin(phi) p_n = a_n p_{n+1} - 2(n+k) cos(phi) p_n
    + a_{n-1} p_{n-1}, a_n = sqrt((n+1)(n+2k)), computed in ``ctx``."""
    k = ctx.rnum(k)
    low = ctx.rsqrt(n * (n - 1 + 2 * k)) if n > 0 else ctx.rnum(0)
    return ctx.rsqrt((n + 1) * (n + 2 * k)), -2 * (n + k) * cosphi, low


# --------------------------------------------------------------------------
# continuous Hahn / Hahn / Jacobi


def chahn_poly(p: CHahnParams, n: int, x: float, ctx: Context = STANDARD) -> complex:
    """Continuous Hahn p_n(x; a, b, c, d) = i^n (a+c)_n (a+d)_n / n! *
    3F2(-n, n+a+b+c+d-1, a+ix; a+c, a+d; 1)."""
    n = nonneg_int(n, "chahn_poly degree n")
    a, b, c_, d = p.a, p.b, p.c, p.d

    def build(c: Context):
        i = c.cnum(1j)
        ca, cb, cc, cd = (c.cnum(v) for v in (a, b, c_, d))
        ev = hyp_pfq([-n, n + ca + cb + cc + cd - 1, ca + i * c.rnum(x)],
                     [ca + cc, ca + cd], 1, ctx=c)
        pref = (i ** n) * pochhammer(ca + cc, n, c) * pochhammer(ca + cd, n, c)
        pref /= c.exp(log_gamma_real(n + 1, c))
        return pref * ev.value, ev

    value, _, _ = _stable_eval(build, ctx, predicted_lost=0.7 * n)
    return ctx.cnum(value)


def _3f2_coefficients(s, u, v, n: int):
    """(U_n, B_n, L_n) of F_n = 3F2(-n, n+s-1, z; u, v; 1) in the variable z:
    z F_n = A_n F_{n+1} - (A_n + C_n) F_n + C_n F_{n-1}, with
    A_n = -(n+s-1)(n+u)(n+v) / ((2n+s-1)(2n+s)) and
    C_n = n(n+s-u-1)(n+s-v-1) / ((2n+s-2)(2n+s-1)) (KLS 9.4.4 for the
    continuous Hahn p_n at s = a+b+c+d, z = a+ix, u = a+c, v = a+d), in the
    backend of the arguments."""
    if n == 0:
        # the factor (s - 1) of A_0 cancels; C_0 = 0
        big_a, big_c = -u * v / s, 0
    else:
        big_a = -(n + s - 1) * (n + u) * (n + v) / ((2 * n + s - 1) * (2 * n + s))
        big_c = (n * (n + s - u - 1) * (n + s - v - 1)
                 / ((2 * n + s - 2) * (2 * n + s - 1)))
    return big_a, -(big_a + big_c), big_c


def _2f1_coefficients(s, u, n: int):
    """(U_n, B_n, L_n) of G_n = 2F1(-n, n+s-1; u; y) in the variable -y:
    -y G_n = A_n G_{n+1} - (A_n + C_n) G_n + C_n G_{n-1}, with
    A_n = (n+s-1)(n+u) / ((2n+s-1)(2n+s)) and
    C_n = n(n+s-u-1) / ((2n+s-2)(2n+s-1)) (KLS 9.8.4 for the Jacobi
    P_n^(alpha,beta) at s = alpha+beta+2, u = alpha+1, y = (1-x)/2), in the
    backend of the arguments."""
    if n == 0:
        big_a, big_c = u / s, 0
    else:
        big_a = (n + s - 1) * (n + u) / ((2 * n + s - 1) * (2 * n + s))
        big_c = n * (n + s - u - 1) / ((2 * n + s - 2) * (2 * n + s - 1))
    return big_a, -(big_a + big_c), big_c


def _3f2_stream(s, z, u, v, ctx: Context = STANDARD):
    """Yields 3F2(-n, n+s-1, z; u, v; 1), n = 0, 1, ..., for arguments in the
    backend of ``ctx``.  F_{n+1} divides by n + u and n + v: where one of them
    vanishes, pull no further."""
    return _recurrence(z, (_3f2_coefficients(s, u, v, n) for n in count()),
                       ctx.rnum(1))


def _2f1_stream(s, u, y, ctx: Context = STANDARD):
    """Yields 2F1(-n, n+s-1; u; y), n = 0, 1, ..., for arguments in the
    backend of ``ctx``."""
    return _recurrence(-y, (_2f1_coefficients(s, u, n) for n in count()),
                       ctx.rnum(1))


def chahn_stream(p: CHahnParams, x: float, ctx: Context = STANDARD):
    """Yields ``chahn_poly(p, n, x)``, n = 0, 1, ...: the ``_3f2_stream`` at
    z = a + ix times the running prefactor i^n (a+c)_n (a+d)_n / n!."""
    a, b, c, d = (ctx.cnum(v) for v in (p.a, p.b, p.c, p.d))
    u, v = a + c, a + d
    i = ctx.cnum(1j)
    pref = ctx.rnum(1)
    for n, f in enumerate(_3f2_stream(a + b + c + d, a + i * ctx.rnum(x), u, v, ctx)):
        yield pref * f
        pref = pref * i * (u + n) * (v + n) / (n + 1)


def jacobi_stream(alpha: float, beta: float, x: float, ctx: Context = STANDARD):
    """Yields ``jacobi_poly(alpha, beta, n, x)``, n = 0, 1, ...: the
    ``_2f1_stream`` at y = (1-x)/2 times the running prefactor (alpha+1)_n / n!."""
    al, be = ctx.rnum(alpha), ctx.rnum(beta)
    pref = ctx.rnum(1)
    for n, g in enumerate(_2f1_stream(al + be + 2, al + 1, (1 - ctx.rnum(x)) / 2, ctx)):
        yield pref * g
        pref = pref * (al + 1 + n) / (n + 1)


def hahn_poly(p: HahnParams, n: int, x: float, ctx: Context = STANDARD) -> complex:
    """Hahn Q_n(x; alpha, beta, N) = 3F2(-n, n+alpha+beta+1, -x; alpha+1, -N; 1)."""
    n = nonneg_int(n, "hahn_poly degree n")
    if n > p.N:
        raise DegreeError(f"Hahn degree n = {n} exceeds N = {p.N}")

    def build(c: Context):
        al, be = c.cnum(p.alpha), c.cnum(p.beta)
        ev = hyp_pfq([-n, n + al + be + 1, -c.rnum(x)], [al + 1, -p.N], 1, ctx=c)
        return ev.value, ev

    value, _, _ = _stable_eval(build, ctx, predicted_lost=0.5 * n)
    return ctx.cnum(value)


def jacobi_poly(alpha: float, beta: float, n: int, x: float,
                ctx: Context = STANDARD) -> float:
    """Jacobi P_n^(alpha,beta)(x) = ((alpha+1)_n / n!) 2F1(-n, n+alpha+beta+1;
    alpha+1; (1-x)/2), the normalisation for which the Bateman-type bilinear
    generating function holds."""
    n = nonneg_int(n, "jacobi_poly degree n")

    def build(c: Context):
        al, be = c.rnum(alpha), c.rnum(beta)
        ev = hyp_pfq([-n, n + al + be + 1], [al + 1], (1 - c.rnum(x)) / 2, ctx=c)
        pref = pochhammer(al + 1, n, c) / c.exp(log_gamma_real(n + 1, c))
        return pref * ev.value, ev

    value, _, _ = _stable_eval(build, ctx, predicted_lost=0.35 * n)
    return ctx.rnum(_enforce_real(value, f"jacobi_poly(n={n})"))


# --------------------------------------------------------------------------
# Askey-Wilson / Al-Salam-Chihara


def _cont_q_hermite(n: int, x: float, q: float, ctx: Context):
    """H_n(cos theta | q) = sum_m [n, m]_q e^{i(n-2m)theta}, the all-parameters-
    zero Askey-Wilson case, as (q; q)_n sum_m D_m conj(D_{n-m}) with
    D_m = e^{-im theta} / (q; q)_m, the terms of 1 / (e^{-i theta} s; q)_inf:
    the q-analogue of ``mp_poly``'s sum, run the same way.  As q -> 1 the
    q-binomials outgrow the value, so the measured loss escalates."""

    def build(c: Context):
        d = c.to_dyadic
        total, lost = conjugate_convolution(
            [], [(ONE, d(-c.rnum(q)))], d(unit_phase(x, "aw_poly", c).conjugate()),
            n, c.prec, q=d(c.rnum(q)))
        return c.from_dyadic(total).real * qpoch(q, q, n, ctx=c), lost, None

    return escalate(build, ctx if ctx.extended else EXTENDED)[0]


def _aw_predicted_lost(n: int, q: float, base_mod: float) -> float:
    lost = 0.5 * n * (n - 1) * math.log10(1 / q)
    if 0 < base_mod < 1:
        lost += n * math.log10(1 / base_mod)
    return lost + 2


def _unit_arg(x: float, where: str) -> float:
    """x clamped to [-1, 1]; DomainError beyond a 1e-12 slack."""
    if abs(x) > 1 + 1e-12:
        raise DomainError(f"{where}: x = {x} outside [-1, 1]")
    return min(1.0, max(-1.0, x))


def unit_phase(x: float, where: str, ctx: Context = STANDARD):
    """e^{i theta} at x = cos theta, theta in [0, pi], in the backend of
    ``ctx``; x is clamped as by ``_unit_arg``.  e^{-i theta} is its
    ``.conjugate()``.  This is the one route from a point x of the q-families
    to its phases."""
    return ctx.expi(ctx.acos(_unit_arg(x, where)))


def in_spectral_window(s, q: float, k: float) -> bool:
    """|s| in (q^k, q^-k), or |s| = 1 within 1e-12: the spectral parameters
    of the q-kernels and of ``sj_ac``.  Each caller raises its own error.
    The window is compared in logs, |log |s|| < k |log q|, since q^-k
    overflows for large k; s = 0 lies outside it."""
    m = abs(complex(s))
    return (0 < m and abs(math.log(m)) < -k * math.log(q)) or abs(m - 1.0) <= 1e-12


def _aw_slots(p: AWParams) -> list:
    """(a, b, c, d) reordered so that the a-slot holds the largest modulus;
    it is zero only when all four are."""
    return sorted([p.a, p.b, p.c, p.d], key=lambda v: -abs(complex(v)))


def aw_poly(p: AWParams, n: int, x: float, ctx: Context = STANDARD) -> complex:
    """Askey-Wilson p_n(x; a, b, c, d | q) from the terminating 4phi3,
    x = cos theta with theta in [0, pi].

    A zero a-slot is replaced by a nonzero parameter via the (a,b,c,d)
    permutation symmetry; with all four parameters zero the polynomial is the
    continuous q-Hermite case, evaluated from its combinatorial expansion.
    """
    n = nonneg_int(n, "aw_poly degree n")
    x = _unit_arg(x, "aw_poly")
    a, b, c_, d = _aw_slots(p)
    if complex(a) == 0:
        return ctx.cnum(_cont_q_hermite(n, x, p.q, ctx))
    q = p.q

    def build(c: Context):
        qc = c.rnum(q)
        ca, cb, cc, cd = (c.cnum(v) for v in (a, b, c_, d))
        eit = unit_phase(x, "aw_poly", c)
        emt = eit.conjugate()
        ev = bhs_rphis([qc ** (-n), ca * cb * cc * cd * qc ** (n - 1), ca * eit, ca * emt],
                       [ca * cb, ca * cc, ca * cd], q, qc, ctx=c)
        pref = ca ** (-n) * qpoch(ca * cb, q, n, ctx=c) * qpoch(ca * cc, q, n, ctx=c) \
            * qpoch(ca * cd, q, n, ctx=c)
        return pref * ev.value, ev

    value, _, _ = _stable_eval(build, ctx,
                               predicted_lost=_aw_predicted_lost(n, q, abs(complex(a))))
    return ctx.cnum(value)


def asc_poly(p: ASCParams, n: int, x: float, orthonormal: bool = False,
             ctx: Context = STANDARD) -> complex:
    """Al-Salam-Chihara R_n(x; a, b | q): the Askey-Wilson p_n(x; a, b, 0, 0 | q)
    of ``aw_poly`` (KLS 14.8.1 is 14.1.1 at c = d = 0); the orthonormal
    variant divides by sqrt((q, ab; q)_n)."""
    value = aw_poly(p.as_aw(), n, x, ctx)
    if orthonormal:
        value /= ctx.sqrt(qpoch_many([p.q, ctx.cnum(p.a) * ctx.cnum(p.b)], p.q, n, ctx=ctx))
    return value


def _aw_coefficients(a, b, c, d, q, n: int):
    """(U_n, B_n, L_n) of 2x p_n = U_n p_{n+1} + B_n p_n + L_n p_{n-1} in
    ``aw_poly``'s normalisation, in the backend of the arguments.

    KLS 14.1.3 recurs the 4phi3 with coefficients A_n, C_n; rescaled by
    f_n = a^{-n} (ab, ac, ad; q)_n it becomes U_n = A_n f_n / f_{n+1},
    L_n = C_n f_n / f_{n-1} and B_n = a + 1/a - A_n - C_n, where U_n and L_n
    are symmetric in (a, b, c, d).  ``a`` must be the largest modulus (see
    ``_aw_slots``); a = 0 means all four are zero, the continuous q-Hermite
    recurrence (1, 0, 1 - q^n).
    """
    qn = q ** n
    if a == 0:
        return 1, 0, 1 - qn
    abcd = a * b * c * d
    ab, ac, ad = a * b, a * c, a * d
    if n == 0:
        # the factor (1 - abcd/q) of A_0 cancels; C_0 = L_0 = 0
        up, big_c, low = 1 / (1 - abcd), 0, 0
    else:
        qm = qn / q
        odd = 1 - abcd * qn * qm  # 1 - abcd q^{2n-1}
        up = (1 - abcd * qm) / (odd * (1 - abcd * qn * qn))
        big_c = (a * (1 - qn) * (1 - b * c * qm) * (1 - b * d * qm) * (1 - c * d * qm)
                 / ((1 - abcd * qm * qm) * odd))
        low = big_c * (1 - ab * qm) * (1 - ac * qm) * (1 - ad * qm) / a
    big_a = up * (1 - ab * qn) * (1 - ac * qn) * (1 - ad * qn) / a
    return up, a + 1 / a - big_a - big_c, low


def aw_stream(p: AWParams, x: float, ctx: Context = STANDARD):
    """Yields the Askey-Wilson values p_0(x), p_1(x), ... of ``aw_poly`` on
    the coefficients of ``_aw_coefficients``."""
    x = _unit_arg(x, "aw_stream")
    a, b, c, d = (ctx.cnum(v) for v in _aw_slots(p))
    qc = ctx.rnum(p.q)
    return _recurrence(2 * ctx.rnum(x),
                       (_aw_coefficients(a, b, c, d, qc, n) for n in count()),
                       ctx.cnum(1))


def asc_orthonormal_stream(a, b, q, x: float, ctx: Context = STANDARD):
    """Orthonormal Al-Salam-Chihara values r_0(x), r_1(x), ... on the
    coefficients of ``_asc_coefficients``."""
    return asc_orthonormal_nodes(a, b, q, ctx.rnum(x), ctx)


def asc_orthonormal_nodes(a, b, q, x, ctx: Context = STANDARD):
    """The recurrence of ``asc_orthonormal_stream`` at a backend real ``x`` or,
    in standard precision, at a float array of nodes (as in
    ``mp_orthonormal_nodes``; r_0 stays the scalar 1)."""
    return _recurrence(2 * x,
                       _asc_coefficients(ctx.cnum(a), ctx.cnum(b), _qval(q), ctx),
                       ctx.cnum(1))


def _asc_coefficients(a, b, q: float, ctx: Context):
    """Yields (U_n, B_n, L_n), n = 0, 1, ..., of the orthonormal
    Al-Salam-Chihara recurrence 2x r_n = sqrt((1-q^{n+1})(1-ab q^n)) r_{n+1}
    + (a+b) q^n r_n + sqrt((1-q^n)(1-ab q^{n-1})) r_{n-1}, derived from the
    n = 1 structure R_1 = 2x - a - b and the orthonormalisation."""
    ab, s = a * b, a + b
    qn = ctx.rnum(1)
    low = ctx.cnum(0)
    while True:
        yield ctx.sqrt((1 - qn * q) * (1 - ab * qn)), s * qn, low
        qn *= q
        low = ctx.sqrt((1 - qn) * (1 - ab * qn / q))


# --------------------------------------------------------------------------
# coupling coefficients


def sj_mp(k1: float, k2: float, j: int, x1: float, x2: float, phi: float,
          ctx: Context = STANDARD):
    """Coupling coefficient of the Meixner-Pollaczek tensor-product basis:
    (-2 sin phi)^j sqrt(j! (2j+2k1+2k2-1) Gamma(j+2k1+2k2-1) /
    (Gamma(2k1+j) Gamma(2k2+j))) times a continuous Hahn value at x1."""
    ph = chahn_poly(_sj_mp_params(k1, k2, x1, x2), j, x1, ctx)
    ph = _enforce_real(ph, f"sj_mp(j={j})")
    return ctx.rnum(_sj_mp_weight(k1, k2, j, phi, ctx) * ph)


def sj_mp_stream(k1: float, k2: float, x1: float, x2: float, phi: float,
                 ctx: Context = STANDARD):
    """Yields ``sj_mp(k1, k2, j, x1, x2, phi)`` for j = 0, 1, ...: one
    ``chahn_stream`` at x1 times the weight of ``sj_mp``."""
    vals = chahn_stream(_sj_mp_params(k1, k2, x1, x2), x1, ctx)
    return (ctx.rnum(_sj_mp_weight(k1, k2, j, phi, ctx)
                     * _enforce_real(ph, f"sj_mp_stream(j={j})"))
            for j, ph in enumerate(vals))


def _sj_mp_params(k1: float, k2: float, x1: float, x2: float) -> CHahnParams:
    """The continuous Hahn parameters (k1, k2 - iX, k1, k2 + iX), X = x1 + x2,
    of ``sj_mp``, after its check on k1, k2."""
    if k1 <= 0 or k2 <= 0:
        raise ParamError("sj_mp requires k1, k2 > 0")
    X = x1 + x2
    return CHahnParams(k1, complex(k2, -X), k1, complex(k2, X))


def _sj_mp_weight(k1: float, k2: float, j: int, phi: float, ctx: Context):
    """(-2 sin phi)^j sqrt(j! (2j+2K-1) Gamma(j+2K-1) / (Gamma(2k1+j)
    Gamma(2k2+j))), K = k1 + k2, from its logarithm; the log of 2K - 1 at
    j = 0 raises ValueError when K < 1/2."""
    two = 2 * (k1 + k2)
    logw = 0.5 * (log_gamma_real(j + 1, ctx) + math.log(2 * j + two - 1)
                  + log_gamma_real(j + two - 1, ctx)
                  - log_gamma_real(2 * k1 + j, ctx)
                  - log_gamma_real(2 * k2 + j, ctx))
    return (-2 * ctx.sin(ctx.rnum(phi))) ** j * ctx.rexp(logw)


def sj_ac(k1: float, k2: float, j: int, x1: float, x2: float, s, q,
          ctx: Context = STANDARD) -> complex:
    """Coupling coefficient of the Al-Salam-Chihara tensor-product basis: an
    Askey-Wilson value at x2 with a-parameters built from theta_1 = arccos x1,
    normalised by sqrt((q, q^{2k1}, q^{2k2}, q^{2k1+2k2+j-1}; q)_j)."""
    qq, aw = _sj_ac_params(k1, k2, k1 + k2 + j, x1, s, q, ctx)
    pj = aw_poly(aw, j, x2, ctx)
    norm = ctx.rsqrt(qpoch_many([qq, qq ** (2 * k1), qq ** (2 * k2),
                                 qq ** (2 * k1 + 2 * k2 + j - 1)], qq, j, ctx=ctx).real)
    return pj / norm


def _sj_ac_params(k1: float, k2: float, k: float, x1: float, s, q,
                  ctx: Context):
    """(q, Askey-Wilson parameters) of ``sj_ac``, after its checks at
    k = k1 + k2 + j; the parameters do not depend on j, and e^{i theta_1} is
    a value of ``ctx``."""
    if k1 <= 0 or k2 <= 0:
        raise ParamError("sj_ac requires k1, k2 > 0")
    qq = _qval(q)
    if not in_spectral_window(s, qq, k):
        raise ParamError(f"sj_ac requires |s| in (q^k, q^-k) or |s| = 1 at k = {k}")
    eith1 = unit_phase(x1, "sj_ac x1", ctx)
    sc = complex(s)
    return qq, AWParams(qq, qq ** k1 * eith1, qq ** k1 * eith1.conjugate(),
                        qq ** k2 * sc, qq ** k2 / sc)


def sj_ac_stream(k1: float, k2: float, x1: float, x2: float, s, q,
                 ctx: Context = STANDARD):
    """Yields ``sj_ac(k1, k2, j, x1, x2, s, q)`` for j = 0, 1, ...: one
    ``aw_stream`` at x2 over the square root of its norm, carried by
    ``series.pochhammer_ladder``.  Only the j = 0 check on |s| binds, since
    the window (q^{k1+k2+j}, q^{-k1-k2-j}) widens with j."""
    qq, aw = _sj_ac_params(k1, k2, k1 + k2, x1, s, q, ctx)
    q = ctx.rnum(qq)
    # N_j = (q, q^{2k1}, q^{2k2}, q^{2k1+2k2-1} q^j; q)_j
    norms = pochhammer_ladder(
        1, [(q, 0, 1), (q ** (2 * k1), 0, 1), (q ** (2 * k2), 0, 1),
            (q ** (2 * (k1 + k2) - 1), 1, 1)], (), qq, ctx)
    return (pj / ctx.rsqrt(norm.real) for pj, norm in zip(aw_stream(aw, x2, ctx), norms))
