"""Exact rational verification of the identities whose two sides are rational
in their parameters: the 2F1 multiplication formula (coefficient-wise in z)
and the discrete Hahn bilinear theorem (finite rational sums).

All arithmetic is over Gaussian rationals, each held as three ints
(x + i y) / d; no rounding occurs anywhere, so a ``True`` verdict is a proof
for the given parameter set and truncation order.
"""
from __future__ import annotations

import math
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import count

from .errors import ParamError, PoleError


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise ParamError(f"exact arithmetic needs int/Fraction/str, got {type(v).__name__}")


_new = object.__new__
_setattr = object.__setattr__


def _make(x: int, y: int, d: int) -> "GaussianRational":
    """(x + i y) / d, d > 0, reduced by the common gcd of its three parts."""
    g = math.gcd(d, x, y)
    if g != 1:
        x //= g
        y //= g
        d //= g
    return _canonical(x, y, d)


def _canonical(x: int, y: int, d: int) -> "GaussianRational":
    """Wraps a triple already in canonical form."""
    out = _new(GaussianRational)
    _setattr(out, "_t", (x, y, d))
    return out


def _parts(v) -> tuple:
    """The canonical triple of an exact operand."""
    if isinstance(v, GaussianRational):
        return v._t
    if isinstance(v, int):
        return v, 0, 1
    if isinstance(v, Fraction):
        return v.numerator, 0, v.denominator
    return GaussianRational.of(v)._t


class GaussianRational:
    """Exact complex number with rational real and imaginary parts.

    Stored as three ints, (x + i y) / d, in canonical form: d > 0 and
    gcd(x, y, d) = 1, zero being (0, 0, 1).  The operators do integer
    arithmetic only, with one gcd per result, and two values are equal
    exactly when their triples are.
    """

    __slots__ = ("_t",)

    def __init__(self, re, im=0):
        re, im = _frac(re), _frac(im)
        rd, id_ = re.denominator, im.denominator
        d = rd * id_ // math.gcd(rd, id_)
        # both parts are in lowest terms, so over their least common
        # denominator no prime divides x, y and d at once
        _setattr(self, "_t", (re.numerator * (d // rd), im.numerator * (d // id_), d))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._t[0], self._t[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self._t[1], self._t[2])

    @classmethod
    def of(cls, v) -> "GaussianRational":
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, complex):
            raise ParamError("floating complex is not exact; pass Fractions")
        return cls(v)

    def __add__(self, o):
        x1, y1, d1 = self._t
        x2, y2, d2 = _parts(o)
        if d1 == d2:
            return _make(x1 + x2, y1 + y2, d1)
        return _make(x1 * d2 + x2 * d1, y1 * d2 + y2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        x, y, d = self._t
        return _canonical(-x, -y, d)

    def __sub__(self, o):
        x, y, d = _parts(o)
        return self + _canonical(-x, -y, d)

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        x1, y1, d1 = self._t
        x2, y2, d2 = _parts(o)
        return _make(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, o):
        x1, y1, d1 = self._t
        x2, y2, d2 = _parts(o)
        n = x2 * x2 + y2 * y2
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        # (x1 + i y1) / d1 * d2 (x2 - i y2) / (x2^2 + y2^2)
        return _make(d2 * (x1 * x2 + y1 * y2), d2 * (y1 * x2 - x1 * y2), d1 * n)

    def __rtruediv__(self, o):
        return _canonical(*_parts(o)) / self

    def __eq__(self, o):
        if isinstance(o, GaussianRational):
            return self._t == o._t
        if isinstance(o, (int, Fraction)):
            x, y, d = self._t
            return y == 0 and x == o.numerator and d == o.denominator
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the Fraction (and so the int) it equals
        x, y, d = self._t
        return hash(self._t) if y else hash(Fraction(x, d))

    def is_zero(self) -> bool:
        x, y, _ = self._t
        return x == 0 and y == 0

    def conjugate(self) -> "GaussianRational":
        x, y, d = self._t
        return _canonical(x, -y, d)

    def is_nonpositive_integer(self) -> bool:
        x, y, d = self._t
        return y == 0 and d == 1 and x <= 0

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


def gr(re, im=0) -> GaussianRational:
    """Convenience constructor accepting ints, Fractions, or strings."""
    return GaussianRational(re, im)


def poch_exact(a: GaussianRational, n: int) -> GaussianRational:
    out = GR_ONE
    for m in range(n):
        out = out * (a + m)
    return out


def factorial_exact(n: int) -> Fraction:
    out = Fraction(1)
    for m in range(2, n + 1):
        out *= m
    return out


def coeff_2f1(a, b, c, k: int) -> GaussianRational:
    """Exact Taylor coefficient (a)_k (b)_k / ((c)_k k!) of a 2F1."""
    a, b, c = (GaussianRational.of(v) for v in (a, b, c))
    den = poch_exact(c, k)
    if den.is_zero():
        raise PoleError(f"(c)_{k} = 0 for c = {c}")
    return poch_exact(a, k) * poch_exact(b, k) / (den * factorial_exact(k))


def _coeffs_2f1(a, b, c):
    """Yields the Taylor coefficients of 2F1(a, b; c; z), k = 0, 1, ..., each
    from the last by the term ratio; raises PoleError where (c)_k = 0, as
    ``coeff_2f1`` does."""
    term = GR_ONE
    for m in count():
        yield term
        if (c + m).is_zero():
            raise PoleError(f"(c)_{m + 1} = 0 for c = {c}")
        term = term * (a + m) * (b + m) / ((c + m) * (m + 1))


def _pfq_exact(upper, lower, z, nmax: int) -> GaussianRational:
    """Terminating pFq(upper; lower; z) summed exactly through z^nmax; a
    vanishing numerator ends the sum before any denominator zero is touched."""
    total = term = GR_ONE
    for m in range(nmax):
        num = math.prod([u + m for u in upper], start=z)
        if num.is_zero():
            break
        den = math.prod([l + m for l in lower], start=gr(m + 1))
        if den.is_zero():
            raise PoleError(f"{len(upper)}F{len(lower)} lower-parameter pole "
                            "inside summation range")
        term = term * num / den
        total = total + term
    return total


def _require_order(K: int):
    if K < 0:
        raise ParamError(f"the truncation order K must be >= 0, got {K}")


def verify_mult_2f1_exact(a, b, c, a2, b2, c2, K: int = 8):
    """Coefficient-of-z^k equality of the 2F1 multiplication formula, exactly,
    for k = 0..K.  Returns (True, None) or (False, first failing k).

    The coefficient of z^k on the right is sum_j C_j [z^(k-j)] 2F1(A+j, B+j;
    c+c'+2j), A = a+a', B = b+b'.  Every Taylor coefficient, every C_j with
    its two terminating 3F2 factors, and every coefficient of each
    2F1(A+j, ...) is computed once, at the first k that needs it, so poles
    are met in the same order as by the per-k formula.

    Parameter sets where a+a' (or b+b') is a nonpositive integer are rejected
    unless both summands are themselves nonpositive integers (the only case in
    which the expansion coefficients stay well defined and eventually vanish).
    """
    a, b, c, a2, b2, c2 = (GaussianRational.of(v) for v in (a, b, c, a2, b2, c2))
    for name, v in (("c", c), ("c'", c2)):
        if v.is_nonpositive_integer():
            raise PoleError(f"{name} is a nonpositive integer")
    for name, u, u2 in (("a", a, a2), ("b", b, b2)):
        if (u + u2).is_nonpositive_integer():
            if not (u.is_nonpositive_integer() and u2.is_nonpositive_integer()):
                raise ParamError(
                    f"{name}+{name}' nonpositive integer needs both {name}, "
                    f"{name}' nonpositive integers")
    _require_order(K)
    A, B, s = a + a2, b + b2, c + c2
    left, right = _coeffs_2f1(a, b, c), _coeffs_2f1(a2, b2, c2)
    lc, rc = [], []
    # (C_j, coefficient stream of 2F1(A+j, B+j; c+c'+2j)) for each nonzero
    # C_j; each stream advances by one coefficient per k
    rhs_terms = []
    for k in range(K + 1):
        lc.append(next(left))
        rc.append(next(right))
        lhs = GR_ZERO
        for i in range(k + 1):
            lhs = lhs + lc[i] * rc[k - i]
        rhs = GR_ZERO
        for cj, coeffs in rhs_terms:
            rhs = rhs + cj * next(coeffs)
        cden = poch_exact(c2, k) * poch_exact(s + k - 1, k)
        if cden.is_zero():
            raise PoleError("C_j prefactor pole")
        cj = (poch_exact(c, k) * poch_exact(A, k) * poch_exact(B, k)
              / (cden * factorial_exact(k)))
        if not cj.is_zero():
            cj = cj * _pfq_exact([gr(-k), a, s + k - 1], [A, c], GR_ONE, k)
            cj = cj * _pfq_exact([gr(-k), b, s + k - 1], [B, c], GR_ONE, k)
        if not cj.is_zero():
            coeffs = _coeffs_2f1(A + k, B + k, s + 2 * k)
            rhs = rhs + cj * next(coeffs)
            rhs_terms.append((cj, coeffs))
        if lhs != rhs:
            return False, k
    return True, None


def verify_hahn_exact(alpha, beta, M: int, N: int, x: int, y: int, z) -> bool:
    """Discrete Hahn bilinear theorem, verified exactly over the rationals.

    The j-sum coefficient carries a 1/j! factor: it is forced by deriving the
    theorem from the 2F1 multiplication formula (parameters a=-x, b=-y,
    c=alpha+1, a'=x-M, b'=y-N, c'=beta+1), and without it the identity already
    fails at M = N = 2, alpha = beta = 0, x = y = 2.
    """
    alpha = GaussianRational.of(alpha)
    beta = GaussianRational.of(beta)
    z = GaussianRational.of(z)
    if not (1 <= M and 1 <= N):
        raise ParamError("M, N must be positive integers")
    if not (0 <= x <= M and 0 <= y <= N):
        raise ParamError("x in {0..M} and y in {0..N} required")
    jmax = min(M, N)
    for j in range(jmax + 1):
        if poch_exact(beta + 1, j).is_zero() or poch_exact(alpha + beta + j + 1, j).is_zero():
            raise PoleError("Pochhammer pole in the coefficient")
        if poch_exact(alpha + 1, j).is_zero():
            raise PoleError("(alpha+1)_j pole inside Hahn polynomial range")

    def hahn(n, xx, NN):
        return _pfq_exact([gr(-n), alpha + beta + n + 1, gr(-xx)],
                          [alpha + 1, gr(-NN)], GR_ONE, n)

    lhs = GR_ZERO
    for j in range(jmax + 1):
        coef = (poch_exact(alpha + 1, j)
                * poch_exact(GaussianRational(Fraction(-M)), j)
                * poch_exact(GaussianRational(Fraction(-N)), j)
                / (factorial_exact(j) * poch_exact(beta + 1, j)
                   * poch_exact(alpha + beta + j + 1, j)))
        f = _pfq_exact([gr(j - M), gr(j - N)], [alpha + beta + 2 * j + 2], z,
                       jmax - j)
        zj = GR_ONE
        for _ in range(j):
            zj = zj * z
        lhs = lhs + hahn(j, x, M) * hahn(j, y, N) * coef * f * zj
    rhs = _pfq_exact([gr(-x), gr(-y)], [alpha + 1], z, min(x, y)) \
        * _pfq_exact([gr(x - M), gr(y - N)], [beta + 1], z, min(M - x, N - y))
    return lhs == rhs


# ---------------------------------------------------------------------------
# the exact route of ``qkl check --exact``: per identity, a seeded rational
# draw and the callable that gives its verdict's report fields


def _draw_frac(rng: random.Random, lo: int, hi: int) -> Fraction:
    den = rng.randrange(2, 9)
    return Fraction(rng.randrange(lo * den, hi * den + 1), den)


def _mult_2f1_case(rng: random.Random, seed: int, K: int):
    """Every third seed makes a and b' Gaussian; redrawn while a + a' or
    b + b' is a nonpositive integer."""
    while True:
        v = {name: _draw_frac(rng, *span) for name, span in (
            ("a", (-2, 2)), ("b", (-2, 2)), ("c", (1, 3)),
            ("a2", (-2, 2)), ("b2", (-2, 2)), ("c2", (1, 3)))}
        if seed % 3 == 2:
            v["a"] = gr(v["a"], _draw_frac(rng, -1, 1))
            v["b2"] = gr(v["b2"], _draw_frac(rng, -1, 1))
        if not any((GR_ZERO + v[u] + v[u2]).is_nonpositive_integer()
                   for u, u2 in (("a", "a2"), ("b", "b2"))):
            break

    def verdict():
        ok, bad_k = verify_mult_2f1_exact(**v, K=K)
        return {"passed": True} if ok else {"passed": False, "first_failing_k": bad_k}
    return v, verdict


def _hahn_case(rng: random.Random, seed: int, K: int):
    """The theorem at every (x, y) of the two lattices."""
    M, N = rng.randrange(2, 7), rng.randrange(2, 7)
    v = dict(alpha=_draw_frac(rng, 0, 3), beta=_draw_frac(rng, 0, 3), M=M, N=N,
             z=_draw_frac(rng, -2, 2))
    return v, lambda: {"passed": all(
        verify_hahn_exact(v["alpha"], v["beta"], M, N, x, y, v["z"])
        for x in range(M + 1) for y in range(N + 1))}


EXACT_ROUTES = {"mult_2f1": _mult_2f1_case, "hahn_bilinear_discrete": _hahn_case}


def exact_case(identity_id: str, seed: int, K: int):
    """The exact route's case ``seed`` of ``identity_id``: its rational draw,
    seeded by ``qkl:exact:<id>:<seed>``, and a callable that returns the
    verdict's report fields.  An identity without an exact route, or an order
    K below 0, is refused here, before the case runs."""
    if identity_id not in EXACT_ROUTES:
        raise ParamError(
            f"--exact supports only {', '.join(EXACT_ROUTES)}, not {identity_id}")
    _require_order(K)
    return EXACT_ROUTES[identity_id](
        random.Random(f"qkl:exact:{identity_id}:{seed}"), seed, K)
