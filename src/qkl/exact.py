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


# ---------------------------------------------------------------------------
# the arithmetic: Gaussian rationals as (x, y, d) int triples, (x + i y) / d
# with d > 0.  _add, _mul and _div return unreduced triples; _red takes the
# one gcd that makes a triple canonical (gcd(x, y, d) = 1, zero being
# (0, 0, 1)).  A triple is zero exactly when x = y = 0, reduced or not.

_ZERO = (0, 0, 1)
_ONE = (1, 0, 1)


def _add(s: tuple, t: tuple) -> tuple:
    x1, y1, d1 = s
    x2, y2, d2 = t
    if d1 == d2:
        return x1 + x2, y1 + y2, d1
    return x1 * d2 + x2 * d1, y1 * d2 + y2 * d1, d1 * d2


def _mul(s: tuple, t: tuple) -> tuple:
    x1, y1, d1 = s
    x2, y2, d2 = t
    return x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, d1 * d2


def _div(s: tuple, t: tuple) -> tuple:
    x1, y1, d1 = s
    x2, y2, d2 = t
    n = x2 * x2 + y2 * y2
    if n == 0:
        raise ZeroDivisionError("division by exact zero")
    # (x1 + i y1) / d1 * d2 (x2 - i y2) / (x2^2 + y2^2)
    return d2 * (x1 * x2 + y1 * y2), d2 * (y1 * x2 - x1 * y2), d1 * n


def _red(x: int, y: int, d: int) -> tuple:
    """The canonical form of (x + i y) / d, d > 0."""
    g = math.gcd(d, x, y)
    if g != 1:
        return x // g, y // g, d // g
    return x, y, d


def _addi(t: tuple, m: int) -> tuple:
    """t + m for an int m; canonical when t is, since gcd(x + m d, y, d)
    = gcd(x, y, d)."""
    x, y, d = t
    return x + m * d, y, d


def _is_zero(t: tuple) -> bool:
    return not (t[0] or t[1])


def _is_nonpositive_integer(t: tuple) -> bool:
    """For a canonical triple."""
    x, y, d = t
    return y == 0 and d == 1 and x <= 0


def _poch(t: tuple, n: int) -> tuple:
    """(t)_n, unreduced."""
    out = _ONE
    for m in range(n):
        out = _mul(out, _addi(t, m))
    return out


_new = object.__new__
_setattr = object.__setattr__


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
    gcd(x, y, d) = 1, zero being (0, 0, 1).  The operators are the module's
    triple arithmetic with one gcd per result, and two values are equal
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
        return _canonical(*_red(*_add(self._t, _parts(o))))

    __radd__ = __add__

    def __neg__(self):
        x, y, d = self._t
        return _canonical(-x, -y, d)

    def __sub__(self, o):
        x, y, d = _parts(o)
        return _canonical(*_red(*_add(self._t, (-x, -y, d))))

    def __rsub__(self, o):
        x, y, d = self._t
        return _canonical(*_red(*_add(_parts(o), (-x, -y, d))))

    def __mul__(self, o):
        return _canonical(*_red(*_mul(self._t, _parts(o))))

    __rmul__ = __mul__

    def __truediv__(self, o):
        return _canonical(*_red(*_div(self._t, _parts(o))))

    def __rtruediv__(self, o):
        return _canonical(*_red(*_div(_parts(o), self._t)))

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
        return _is_zero(self._t)

    def conjugate(self) -> "GaussianRational":
        x, y, d = self._t
        return _canonical(x, -y, d)

    def is_nonpositive_integer(self) -> bool:
        return _is_nonpositive_integer(self._t)

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


def gr(re, im=0) -> GaussianRational:
    """Convenience constructor accepting ints, Fractions, or strings."""
    return GaussianRational(re, im)


def poch_exact(a: GaussianRational, n: int) -> GaussianRational:
    return _canonical(*_red(*_poch(_parts(a), n)))


def factorial_exact(n: int) -> Fraction:
    out = Fraction(1)
    for m in range(2, n + 1):
        out *= m
    return out


def coeff_2f1(a, b, c, k: int) -> GaussianRational:
    """Exact Taylor coefficient (a)_k (b)_k / ((c)_k k!) of a 2F1."""
    a, b, c = (GaussianRational.of(v) for v in (a, b, c))
    den = _poch(c._t, k)
    if _is_zero(den):
        raise PoleError(f"(c)_{k} = 0 for c = {c}")
    x, y, d = _div(_mul(_poch(a._t, k), _poch(b._t, k)), den)
    return _canonical(*_red(x, y, d * math.prod(range(2, k + 1))))


# ---------------------------------------------------------------------------
# the verdicts, on canonical triples: each term is formed unreduced and
# reduced once, and each side of a comparison once


def _coeffs_2f1(a: tuple, b: tuple, c: tuple):
    """Yields the Taylor coefficients of 2F1(a, b; c; z), k = 0, 1, ..., each
    from the last by the term ratio; raises PoleError where (c)_k = 0, as
    ``coeff_2f1`` does."""
    term = _ONE
    for m in count():
        yield term
        cm = _addi(c, m)
        if _is_zero(cm):
            raise PoleError(f"(c)_{m + 1} = 0 for c = {_canonical(*c)}")
        x, y, d = _div(_mul(_mul(term, _addi(a, m)), _addi(b, m)), cm)
        term = _red(x, y, d * (m + 1))


def _pfq_exact(upper, lower, z: tuple, nmax: int) -> tuple:
    """Terminating pFq(upper; lower; z) summed exactly through z^nmax; a
    vanishing numerator ends the sum before any denominator zero is touched.
    The term ratios are formed in order, then nested from the last one
    (1 + r_0 (1 + r_1 (...))), with one gcd for the sum."""
    ratios = []
    for m in range(nmax):
        num = z
        for u in upper:
            num = _mul(num, _addi(u, m))
        if _is_zero(num):
            break
        den = (m + 1, 0, 1)
        for l in lower:
            den = _mul(den, _addi(l, m))
        if _is_zero(den):
            raise PoleError(f"{len(upper)}F{len(lower)} lower-parameter pole "
                            "inside summation range")
        ratios.append((num, den))
    total = _ONE
    for num, den in reversed(ratios):
        total = _addi(_div(_mul(total, num), den), 1)
    return _red(*total)


def _require_order(K: int):
    if not isinstance(K, int):
        raise ParamError(f"the truncation order K must be an int, got {type(K).__name__}")
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
    a, b, c, a2, b2, c2 = (GaussianRational.of(v)._t for v in (a, b, c, a2, b2, c2))
    for name, v in (("c", c), ("c'", c2)):
        if _is_nonpositive_integer(v):
            raise PoleError(f"{name} is a nonpositive integer")
    A, B, s = _red(*_add(a, a2)), _red(*_add(b, b2)), _red(*_add(c, c2))
    for name, u, u2, usum in (("a", a, a2, A), ("b", b, b2, B)):
        if _is_nonpositive_integer(usum):
            if not (_is_nonpositive_integer(u) and _is_nonpositive_integer(u2)):
                raise ParamError(
                    f"{name}+{name}' nonpositive integer needs both {name}, "
                    f"{name}' nonpositive integers")
    _require_order(K)
    left, right = _coeffs_2f1(a, b, c), _coeffs_2f1(a2, b2, c2)
    lc, rc = [], []
    # (C_j, coefficient stream of 2F1(A+j, B+j; c+c'+2j)) for each nonzero
    # C_j; each stream advances by one coefficient per k
    rhs_terms = []
    # (c)_k (A)_k (B)_k and (c')_k k!, carried from k - 1
    cnum = cden = _ONE
    for k in range(K + 1):
        lc.append(next(left))
        rc.append(next(right))
        lhs = _ZERO
        for i in range(k + 1):
            lhs = _add(lhs, _mul(lc[i], rc[k - i]))
        rhs = _ZERO
        for cj, coeffs in rhs_terms:
            rhs = _add(rhs, _mul(cj, next(coeffs)))
        if k:
            m = k - 1
            cnum = _red(*_mul(_mul(_mul(cnum, _addi(c, m)), _addi(A, m)), _addi(B, m)))
            cden = _red(*_mul(_mul(cden, _addi(c2, m)), (k, 0, 1)))
        den = _mul(cden, _poch(_addi(s, k - 1), k))
        if _is_zero(den):
            raise PoleError("C_j prefactor pole")
        cj = _red(*_div(cnum, den))
        if not _is_zero(cj):
            mk = (-k, 0, 1)
            sk = _addi(s, k - 1)
            cj = _red(*_mul(_mul(cj, _pfq_exact([mk, a, sk], [A, c], _ONE, k)),
                            _pfq_exact([mk, b, sk], [B, c], _ONE, k)))
        if not _is_zero(cj):
            coeffs = _coeffs_2f1(_addi(A, k), _addi(B, k), _addi(s, 2 * k))
            rhs = _add(rhs, _mul(cj, next(coeffs)))
            rhs_terms.append((cj, coeffs))
        if _red(*lhs) != _red(*rhs):
            return False, k
    return True, None


def verify_hahn_exact(alpha, beta, M: int, N: int, x: int, y: int, z) -> bool:
    """Discrete Hahn bilinear theorem, verified exactly over the rationals.

    The j-sum coefficient carries a 1/j! factor: it is forced by deriving the
    theorem from the 2F1 multiplication formula (parameters a=-x, b=-y,
    c=alpha+1, a'=x-M, b'=y-N, c'=beta+1), and without it the identity already
    fails at M = N = 2, alpha = beta = 0, x = y = 2.
    """
    alpha, beta, z = (GaussianRational.of(v)._t for v in (alpha, beta, z))
    for name, v in (("M", M), ("N", N), ("x", x), ("y", y)):
        if not isinstance(v, int):
            raise ParamError(f"{name} must be an int, got {type(v).__name__}")
    if not (1 <= M and 1 <= N):
        raise ParamError("M, N must be positive integers")
    if not (0 <= x <= M and 0 <= y <= N):
        raise ParamError("x in {0..M} and y in {0..N} required")
    jmax = min(M, N)
    a1, b1 = _addi(alpha, 1), _addi(beta, 1)
    ab1 = _red(*_add(a1, beta))
    # the coefficient of each j, (alpha+1)_j (-M)_j (-N)_j over
    # j! (beta+1)_j (alpha+beta+j+1)_j, with its poles checked for every j
    # before any term is summed
    coefs = []
    pa = pb = _ONE
    num = den = 1
    for j in range(jmax + 1):
        if j:
            m = j - 1
            pa = _red(*_mul(pa, _addi(a1, m)))
            pb = _red(*_mul(pb, _addi(b1, m)))
            num *= (m - M) * (m - N)
            den *= j
        pab = _poch(_addi(ab1, j), j)
        if _is_zero(pb) or _is_zero(pab):
            raise PoleError("Pochhammer pole in the coefficient")
        if _is_zero(pa):
            raise PoleError("(alpha+1)_j pole inside Hahn polynomial range")
        coefs.append(_div(_mul(pa, (num, 0, 1)), _mul(_mul(pb, pab), (den, 0, 1))))

    def hahn(n, xx, NN):
        return _pfq_exact([(-n, 0, 1), _addi(ab1, n), (-xx, 0, 1)],
                          [a1, (-NN, 0, 1)], _ONE, n)

    lhs, zj = _ZERO, _ONE
    for j in range(jmax + 1):
        f = _pfq_exact([(j - M, 0, 1), (j - N, 0, 1)], [_addi(ab1, 2 * j + 1)], z,
                       jmax - j)
        term = _mul(_mul(_mul(_mul(hahn(j, x, M), hahn(j, y, N)), coefs[j]), f), zj)
        lhs = _add(lhs, _red(*term))
        zj = _mul(zj, z)
    rhs = _mul(_pfq_exact([(-x, 0, 1), (-y, 0, 1)], [a1], z, min(x, y)),
               _pfq_exact([(x - M, 0, 1), (y - N, 0, 1)], [b1], z, min(M - x, N - y)))
    return _red(*lhs) == _red(*rhs)


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
