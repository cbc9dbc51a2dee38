"""Series terms and sums on Python integers, for the extended-precision
series engines.

A value here is a Gaussian dyadic: an ``(re, im, exp)`` triple of ints that
stands for (re + i im) 2^exp.  :class:`SeriesTerms` yields the terms of a
hypergeometric-type series in this form, each rounded to ``wp`` bits (the
larger of |re| and |im| below 2^wp), and :class:`FixedSum` adds them up in
fixed point; :func:`conjugate_convolution` sums the products
t_j conj(t_{n-j}) of the same terms (the Meixner-Pollaczek and continuous
q-Hermite values of ``qkl.polys``).  :class:`Magnitude` carries |x| as a
float mantissa and an int exponent, so that the stopping rule of
``hyper.accumulate`` compares terms and sums through their exponents, at any
magnitude.  Every rounding floors (a right shift or a floor division), so it
errs by less than one unit in the last of the ``wp`` bits.
``numerics.Context`` converts its extended values to triples exactly and
back with one rounding at its precision; no mpmath number is made or
touched here.
"""
from __future__ import annotations

import math
from itertools import islice

#: bits every term and partial sum carries past its context's precision
EXTRA_BITS = 32
ONE = (1, 0, 0)
_LOG10_2 = math.log10(2.0)


def _round(re: int, im: int, exp: int, wp: int):
    """(re, im, exp) with the larger of |re| and |im| floored below 2^wp."""
    n = max(re.bit_length(), im.bit_length()) - wp
    if n > 0:
        return re >> n, im >> n, exp + n
    return re, im, exp


def _mul(a, b, wp: int):
    ar, ai, ae = a
    br, bi, be = b
    return _round(ar * br - ai * bi, ar * bi + ai * br, ae + be, wp)


def _step(t, n, d, wp: int):
    """t n / d to wp bits, n and d rounded to wp bits first; the quotient
    is a conj(d) / |d|^2 (a / d for a real d), one floor division per
    part.  ZeroDivisionError when d is 0."""
    tr, ti, te = t
    nr, ni, ne = _round(*n, wp)
    dr, di, de = _round(*d, wp)
    ar, ai = tr * nr - ti * ni, tr * ni + ti * nr
    if di:
        # a conj(d) carries 2^de more, |d|^2 2^(2 de): net 2^-de, as a / d
        ar, ai, dr = ar * dr + ai * di, ai * dr - ar * di, dr * dr + di * di
    shift = wp + dr.bit_length() - max(ar.bit_length(), ai.bit_length())
    if shift > 0:
        ar, ai = ar << shift, ai << shift
    else:
        ar, ai = ar >> -shift, ai >> -shift
    return _round(ar // dr, ai // dr, te + ne - de - shift, wp)


def _top(t):
    """The exponent just above the leading bit of a triple; None at 0."""
    re, im, exp = t
    n = max(re.bit_length(), im.bit_length())
    return exp + n if n else None


class SeriesTerms:
    """The terms t_0, t_1, ... of the series

        sum_n head w(x_n) prod_{m < n} z N(x_m) / D(x_m),

    as triples of ``wp = prec + EXTRA_BITS`` bits, where N(x) (D(x)) is the
    product of the factors c + s x over the ``(c, s)`` pairs of triples in
    ``num`` (``den``), x_m is m for a classical series (``q`` None) and q^m
    for a basic one, and w(x) = c + s x^2 for ``weight = (c, s)``, else 1.

    x_0 is 0 or 1 exactly; later x_m are exact (m) or rounded to wp bits
    (q^m).  A factor is c + s x_m with the bits of c and of s x_m that lie
    more than wp + 4 places below the leading bit of the larger of c and
    s x_m (of c and s, when x_m = m) dropped, so no factor outgrows about
    wp + 6 bits however far apart its parts lie.  A step multiplies its
    factors exactly, rounds N and D to wp bits and divides once.
    Iterating yields the terms afresh.
    """

    def __init__(self, num, den, z, prec: int, q=None, head=ONE, weight=None):
        self.wp = wp = prec + EXTRA_BITS
        self.num = [_Factor(c, s, wp) for c, s in num]
        self.den = [_Factor(c, s, wp) for c, s in den]
        self.weight = None if weight is None else _Factor(*weight, wp)
        self.z, self.q, self.head = z, q, head

    def __iter__(self):
        return _terms(self.num, self.den, self.z, self.q, self.head, self.weight, self.wp)


def _terms(num, den, z, q, head, weight, wp: int):
    """The term loop of :class:`SeriesTerms`, on its prepared factors."""
    classical = q is None
    if classical:
        xr = xe = 0
    else:
        (qr, _, qe), xr, xe = q, 1, 0
    base = head
    while True:
        xtop = xe + xr.bit_length()
        if weight is None:
            yield base
        else:
            yield _mul(base, weight.at(xr * xr, 2 * xe, 2 * xtop), wp)
        pr, pi, pe = z
        dr, di, de = ONE
        if classical and xr:
            for f in num:
                fr, fi = f.cr + f.sr * xr, f.ci + f.si * xr
                pr, pi, pe = pr * fr - pi * fi, pr * fi + pi * fr, pe + f.e
            for f in den:
                fr, fi = f.cr + f.sr * xr, f.ci + f.si * xr
                dr, di, de = dr * fr - di * fi, dr * fi + di * fr, de + f.e
        else:
            for f in num:
                fr, fi, fe = f.at(xr, xe, xtop)
                pr, pi, pe = pr * fr - pi * fi, pr * fi + pi * fr, pe + fe
            for f in den:
                fr, fi, fe = f.at(xr, xe, xtop)
                dr, di, de = dr * fr - di * fi, dr * fi + di * fr, de + fe
        base = _step(base, (pr, pi, pe), (dr, di, de), wp)
        if classical:
            xr += 1
        else:
            xr, _, xe = _round(xr * qr, 0, xe + qe, wp)


def conjugate_convolution(num, den, z, n: int, prec: int, q=None):
    """Re sum_{j=0}^{n} t_j conj(t_{n-j}) over the terms t_0 = 1, t_1, ...
    of :class:`SeriesTerms` (``num``, ``den``, ``z``, ``prec``, ``q``): the
    coefficient of s^n in |sum_j t_j s^j|^2 for real s.  Returns the sum and
    the decimal digits it lost, log10 of the largest |t_j t_{n-j}| over the
    sum's magnitude (at most 0.91 more; infinite for a zero sum).

    The sum is real by construction: t_j conj(t_{n-j}) and t_{n-j} conj(t_j)
    have the same exact real part, taken once and doubled, so each of the
    about n/2 products is exact and only the fixed-point sum floors."""
    wp = prec + EXTRA_BITS
    terms = list(islice(_terms([_Factor(c, s, wp) for c, s in num],
                               [_Factor(c, s, wp) for c, s in den], z, q, ONE, None, wp),
                        n + 1))
    # 2^(top - 1) <= |t| < 2^(top + 1/2), top the exponent just above the
    # leading bit of t: the bound below is at most three bits high
    tops = [e + max(re.bit_length(), im.bit_length()) for re, im, e in terms]
    total = FixedSum(wp)
    for j in range(n // 2 + 1):
        (ar, ai, ae), (br, bi, be) = terms[j], terms[n - j]
        total += (ar * br + ai * bi, 0, ae + be + (2 * j < n))
    largest = (max(tops[j] + tops[n - j] for j in range(n + 1)) + 1) * _LOG10_2
    return total.parts(), max(0.0, largest - abs(total).log10())


def rising(c, n: int):
    """(c)_n = c (c + 1) ... (c + n - 1) of a real triple c, exactly."""
    m, _, e = c
    if e > 0:
        m, e = m << e, 0
    out = 1
    for j in range(n):
        out *= m + (j << -e)
    return out, 0, n * e


def times_sqrt(t, num, den, prec: int):
    """t sqrt(num / den) to ``prec + EXTRA_BITS`` bits, for triples t and
    positive real num and den: one floor division to twice that many bits,
    one integer square root."""
    wp = prec + EXTRA_BITS
    (a, _, ae), (b, _, be) = num, den
    shift = max(0, 2 * wp + b.bit_length() - a.bit_length())
    shift += (shift + ae - be) & 1  # an even exponent halves exactly
    root = math.isqrt((a << shift) // b)
    tr, ti, te = t
    return _round(tr * root, ti * root, te + (ae - be - shift) // 2, wp)


class _Factor:
    """The factor c + s x of a series' term ratio, c and s triples.  For
    x = m >= 1 it is (cr + sr m) + i (ci + si m) at the fixed exponent e:
    c and s aligned there, with the bits below wp + 4 places under the
    larger one's leading bit dropped."""

    __slots__ = ("c", "s", "ctop", "stop", "cr", "ci", "sr", "si", "e", "wp")

    def __init__(self, c, s, wp: int):
        self.c, self.s, self.wp = c, s, wp
        self.ctop, self.stop = _top(c), _top(s)
        tops = [t for t in (self.ctop, self.stop) if t is not None]
        self.e = e = max(min(c[2], s[2]), max(tops, default=0) - wp - 4)
        self.cr, self.ci = _aligned(c, e)
        self.sr, self.si = _aligned(s, e)

    def at(self, xr: int, xe: int, xtop: int):
        """c + s x at x = xr 2^xe, whose leading bit lies just below 2^xtop."""
        if self.stop is None or not xr:
            return self.c
        sr, si, se = self.s
        vr, vi, ve = sr * xr, si * xr, se + xe
        if self.ctop is None:
            return vr, vi, ve
        e = max(min(self.c[2], ve), max(self.ctop, self.stop + xtop) - self.wp - 4)
        cr, ci = _aligned(self.c, e)
        vr, vi = _aligned((vr, vi, ve), e)
        return cr + vr, ci + vi, e


def _aligned(t, e: int):
    """The parts of the triple t at exponent e, floored."""
    re, im, exp = t
    if exp >= e:
        return re << (exp - e), im << (exp - e)
    return re >> (e - exp), im >> (e - exp)


class Magnitude:
    """|x| as m 2^e: m a float in [0.5, 1) and e an int, or m = 0 and
    e = -inf for 0.  Compares, scales by a float and divides through its
    exponent, so magnitudes far outside the double range keep their order;
    ``float()`` and a quotient raise OverflowError past the double range.
    A real number compares with it as its own magnitude."""

    __slots__ = ("m", "e")

    def __init__(self, m: float, e):
        self.m, self.e = (m, e) if m else (0.0, -math.inf)

    @staticmethod
    def of(x) -> "Magnitude":
        if x.__class__ is Magnitude:
            return x
        return Magnitude(*math.frexp(abs(float(x))))

    def __gt__(self, other):
        other = Magnitude.of(other)
        return self.e > other.e or (self.e == other.e and self.m > other.m)

    def __le__(self, other):
        return not self > other

    def __eq__(self, other):
        other = Magnitude.of(other)
        return self.e == other.e and self.m == other.m

    __hash__ = None

    def __rmul__(self, x: float) -> "Magnitude":
        m, k = math.frexp(abs(x) * self.m)
        return Magnitude(m, self.e + k)

    def __truediv__(self, other) -> float:
        other = Magnitude.of(other)
        if not self.m:
            return 0.0
        return math.ldexp(self.m / other.m, self.e - other.e)

    def __float__(self) -> float:
        return math.ldexp(self.m, self.e) if self.m else 0.0

    def log10(self) -> float:
        return math.log10(self.m) + self.e * _LOG10_2 if self.m else -math.inf


def magnitude(t) -> Magnitude:
    """|t| of a triple, from the leading 53 bits of its parts."""
    re, im, exp = t
    n = max(re.bit_length(), im.bit_length()) - 53
    if n > 0:
        re, im, exp = re >> n, im >> n, exp + n
    m, k = math.frexp(math.hypot(re, im))
    return Magnitude(m, exp + k)


class FixedSum:
    """Running sum of triples in fixed point: its parts are ints at one
    exponent, which moves down as smaller terms arrive, but never below
    ``wp`` bits under the leading bit of the largest term added; the bits of
    a term below it are dropped.  ``+=`` adds a term in place, ``abs()``
    gives its :class:`Magnitude` and ``parts()`` its triple."""

    __slots__ = ("re", "im", "exp", "floor", "wp")

    def __init__(self, wp: int):
        self.re = self.im = self.exp = 0
        self.floor = None
        self.wp = wp

    def __iadd__(self, t):
        tr, ti, te = t
        if not (tr or ti):
            return self
        floor = te + max(tr.bit_length(), ti.bit_length()) - self.wp
        if self.floor is None:
            self.re, self.im, self.exp, self.floor = tr, ti, te, floor
            return self
        if floor > self.floor:
            self.floor = floor
        exp = self.exp
        if te < exp:
            low = max(te, self.floor)
            if low < exp:
                self.re <<= exp - low
                self.im <<= exp - low
                self.exp = exp = low
            tr, ti = tr >> (exp - te), ti >> (exp - te)
        else:
            tr, ti = tr << (te - exp), ti << (te - exp)
        self.re += tr
        self.im += ti
        return self

    def parts(self):
        return self.re, self.im, self.exp

    def __abs__(self) -> Magnitude:
        return magnitude((self.re, self.im, self.exp))
