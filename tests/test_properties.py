"""Property tests independent of the identity registry.

The extended series engines: classical transformations of 2F1 and two
theorems of basic hypergeometric series (Gasper and Rahman, *Basic
Hypergeometric Series*, 1.3.2 and 1.4.1), each at 40 digits to within 1e-30.
The exact triple arithmetic of ``qkl.exact``: against Fraction pairs."""
import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkl.exact import _add, _addi, _div, _mul, _red
from qkl.hyper import TruncationPolicy, bhs_rphis, hyp_pfq
from qkl.numerics import EXTENDED as E
from qkl.series import qpoch

# the sums run far below the 1e-30 bound; their arguments keep them short
DEEP = TruncationPolicy(tail_tol=1e-38)
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _complex(radius):
    return st.builds(complex, _real(-radius, radius), _real(-radius, radius))


def _disc(radius):
    """Complex z with |z| <= radius."""
    return st.builds(cmath.rect, _real(0, radius), _real(-cmath.pi, cmath.pi))


# c stays off the poles 0, -1, -2, ... of 2F1
_C = st.one_of(_real(0.5, 3.0), st.builds(complex, _real(0.5, 3.0), _real(-1.0, 1.0)))


def _close(a, b, tol=1e-30):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1)


def _pow(base, exponent):
    """base^exponent, principal branch, in E."""
    return E.exp(E.cnum(exponent) * E.log(E.cnum(base)))


@PROPERTY
@given(_complex(2.0), _complex(2.0), _C, _disc(0.6))
def test_euler_transformation(a, b, c, z):
    # 2F1(a, b; c; z) = (1 - z)^(c - a - b) 2F1(c - a, c - b; c; z)
    lhs = hyp_pfq([a, b], [c], z, DEEP, E).value
    ca, cb = E.cnum(c) - E.cnum(a), E.cnum(c) - E.cnum(b)
    rhs = _pow(1 - E.cnum(z), ca - E.cnum(b)) * hyp_pfq([ca, cb], [c], z, DEEP, E).value
    assert _close(lhs, rhs), (lhs, rhs)


@PROPERTY
@given(_complex(2.0), _complex(2.0), _C, _real(-0.6, 0.35))
def test_pfaff_transformation(a, b, c, x):
    # 2F1(a, b; c; z) = (1 - z)^(-a) 2F1(a, c - b; c; z / (z - 1)), z real < 1/2
    z = E.rnum(x)
    lhs = hyp_pfq([a, b], [c], z, DEEP, E).value
    w = z / (z - 1)
    rhs = (_pow(1 - z, -E.cnum(a))
           * hyp_pfq([a, E.cnum(c) - E.cnum(b)], [c], w, DEEP, E).value)
    assert _close(lhs, rhs), (lhs, rhs)


_Q = st.sampled_from([0.2, 0.35, 0.5, 0.7, 0.85])


@PROPERTY
@given(_complex(1.5), _Q, _disc(0.5))
def test_q_binomial_theorem(a, q, z):
    # 1phi0(a; -; q, z) = (a z; q)_inf / (z; q)_inf, |z| < 1
    lhs = bhs_rphis([a], [], q, z, DEEP, E).value
    rhs = qpoch(E.cnum(a) * E.cnum(z), q, ctx=E) / qpoch(z, q, ctx=E)
    assert _close(lhs, rhs), (lhs, rhs)


@PROPERTY
@given(_complex(0.6), _disc(0.6).filter(lambda b: abs(b) > 0.05), _complex(0.6), _Q,
       _disc(0.5))
def test_heine_transformation(a, b, c, q, z):
    # 2phi1(a, b; c; q, z)
    #   = (b, a z; q)_inf / (c, z; q)_inf 2phi1(c / b, z; a z; q, b), |z|, |b| < 1
    lhs = bhs_rphis([a, b], [c], q, z, DEEP, E).value
    ac, bc, cc, zc = (E.cnum(v) for v in (a, b, c, z))
    pref = (qpoch(bc, q, ctx=E) * qpoch(ac * zc, q, ctx=E)
            / (qpoch(cc, q, ctx=E) * qpoch(zc, q, ctx=E)))
    rhs = pref * bhs_rphis([cc / bc, zc], [ac * zc], q, bc, DEEP, E).value
    assert _close(lhs, rhs), (lhs, rhs)


# ---------------------------------------------------------------------------
# exact triples: (x + i y) / d against (re, im) Fraction pairs

_RAT = st.fractions(max_denominator=10 ** 6).filter(lambda f: abs(f) < 10 ** 9)
_PAIR = st.tuples(_RAT, st.one_of(st.just(Fraction(0)), _RAT))
EXACT = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _triple(pair):
    """The canonical triple of a (re, im) pair, over the lcm of the two
    denominators."""
    re, im = pair
    d = math.lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


def _pair(t):
    x, y, d = t
    return Fraction(x, d), Fraction(y, d)


def _is_canonical(t):
    x, y, d = t
    return d > 0 and math.gcd(x, y, d) == 1 and (x or y or d == 1)


@EXACT
@given(_PAIR, _PAIR)
def test_triple_arithmetic_matches_fraction_pairs(p, q):
    (a, b), (c, d) = p, q
    s, t = _triple(p), _triple(q)
    assert _is_canonical(s) and _pair(s) == p
    expect = {_add: (a + c, b + d), _mul: (a * c - b * d, a * d + b * c)}
    if q != (0, 0):
        n = c * c + d * d
        expect[_div] = ((a * c + b * d) / n, (b * c - a * d) / n)
    else:
        with pytest.raises(ZeroDivisionError):
            _div(s, t)
    for op, want in expect.items():
        raw = op(s, t)
        assert raw[2] > 0 and _pair(raw) == want
        reduced = _red(*raw)
        assert _is_canonical(reduced) and reduced == _triple(want)


@EXACT
@given(_PAIR, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
def test_addi_keeps_triples_canonical_and_red_undoes_a_common_factor(p, m, k):
    t = _triple(p)
    # adding an int needs no gcd
    assert _addi(t, m) == _triple((p[0] + m, p[1]))
    # a triple scaled by any k > 0 reduces to the same canonical triple
    x, y, d = t
    assert _red(x * k, y * k, d * k) == t
    assert _red(0, 0, k) == (0, 0, 1)
