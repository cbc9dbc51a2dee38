"""Scalar building blocks: Pochhammer, q-shifted factorials, Gamma, powers,
Bessel J."""
import cmath
import math
import random
import time
from fractions import Fraction
from itertools import islice

import mpmath as mp
import numpy as np
import pytest

from qkl import numerics
from qkl.errors import DomainError, ParamError, PoleError, RangeError
from qkl.hyper import detect_termination
from qkl.numerics import EXTENDED, STANDARD, extended_context
from qkl.series import (
    QBase,
    _qval,
    bessel_j,
    complex_gamma,
    complex_pow_principal,
    log_abs_gamma,
    log_gamma_real,
    pochhammer,
    pochhammer_ladder,
    qpoch,
    qpoch_many,
)


def test_pochhammer_trivial():
    assert pochhammer(2.7 + 1j, 0) == 1
    assert pochhammer(3, 4) == 360
    assert pochhammer(-2, 3) == 0


def test_pochhammer_functional_equation():
    rng = random.Random(7)
    for _ in range(40):
        a = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        m = rng.randrange(0, 50)
        n = rng.randrange(0, 50 - m + 1)
        lhs = pochhammer(a, m + n)
        rhs = pochhammer(a, m) * pochhammer(a + m, n)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_qbase_validation():
    with pytest.raises(Exception):
        QBase(1.2)
    with pytest.raises(Exception):
        QBase(0.0)


def test_bare_q_fails_the_qbase_check_with_its_text():
    for q in (1.2, 0.0, -0.5, 1.0, math.nan):
        for check in (QBase, _qval, lambda q: qpoch(0.5, q)):
            with pytest.raises(ParamError, match=r"q must satisfy 0 < q < 1, got"):
                check(q)


def test_qpoch_finite():
    assert abs(qpoch(0.5, 0.5, 2) - 0.375) < 1e-15
    for ctx in (STANDARD, EXTENDED):
        assert qpoch(0.0, 0.9, ctx=ctx) == 1
        assert qpoch(0j, 0.999, ctx=ctx) == 1


def test_qpoch_infinite_vs_brute_force():
    # 60-digit brute-force product, m <= 200
    with mp.workdps(60):
        oracle = mp.mpf(1)
        for m in range(200):
            oracle *= 1 - mp.mpf("0.9") * mp.mpf("0.5") ** m
    got = qpoch(0.9, 0.5)
    assert abs(got - float(oracle)) <= 1e-15 * float(oracle)


def _qpoch_product_loop(a, q, ctx):
    """(a; q)_inf by the loop ``qpoch`` ran before its log-series tail: the
    factors while |a| q^m >= eps (1 - q), q^m as a running product, then
    the first-order tail exp(-a q^M / (1 - q))."""
    eps = 1e-17 if not ctx.extended else 10.0 ** (-ctx.dps - 2)
    a, qc = ctx.cnum(a), ctx.rnum(q)
    out, qm = ctx.cnum(1), ctx.cnum(1)
    while abs(a) * abs(qm) >= eps * (1 - q):
        out *= 1 - a * qm
        qm *= qc
    return out * ctx.exp(-a * qm / (1 - qc))


def _qpoch_brute_force(a, q, bits=300):
    """(a; q)_inf as the plain product of the factors 1 - a q^m, in binary
    fixed point with ``bits`` fraction bits (about 90 digits) while
    max(1, |a|) q^m >= 2^-bits; the product carries its own binary
    exponent."""
    one = 1 << bits
    # a double times 2^bits is an integer here, so both are exact
    xr, xi = (int(Fraction(v) * one) for v in (a.real, a.imag))
    qf = int(Fraction(q) * one)
    pr, pi, e = one, 0, 0  # the product is (pr + i pi) 2^(e - bits)
    for _ in range(math.ceil((math.log(max(1.0, abs(a))) + bits * math.log(2))
                             / -math.log(q))):
        fr = one - xr
        pr, pi = (pr * fr + pi * xi) >> bits, (pi * fr - pr * xi) >> bits
        s = max(abs(pr), abs(pi)).bit_length() - bits - 1
        pr, pi = (pr >> s, pi >> s) if s >= 0 else (pr << -s, pi << -s)
        e += s
        xr, xi = xr * qf >> bits, xi * qf >> bits
    return mp.mpc(mp.ldexp(pr, e - bits), mp.ldexp(pi, e - bits))


_QPOCH_CONTEXTS = [(STANDARD, 2e-14), (EXTENDED, 1e-38), (extended_context(60), 1e-58)]


def test_qpoch_infinite_seeded_against_90_digit_reference():
    # reference: mpmath's qp for q <= 0.9; mpmath 1.3's qp gives up
    # (NoConvergence) at 0.99 and 0.999, where the brute-force product runs.
    # The old product loop is a second oracle up to q = 0.9: beyond, its
    # running q^m drifts by m ulps (5.6e-14 at q = 0.99 in standard
    # precision) and at 40 digits it takes 10^4 to 10^5 factors
    rng = random.Random(29)
    for q in (0.05, 0.3, 0.7, 0.9, 0.99, 0.999):
        for i in range(6 if q <= 0.9 else 2):
            r = rng.uniform(0, 3) if i == 0 else rng.uniform(0, 30)
            a = r * cmath.exp(2j * math.pi * rng.random())
            with mp.workdps(90):
                ref = mp.qp(mp.mpc(a), mp.mpf(q)) if q <= 0.9 else _qpoch_brute_force(a, q)
                for ctx, bound in _QPOCH_CONTEXTS:
                    if not ctx.extended and not 1e-300 < abs(ref) < 1e300:
                        with pytest.raises(RangeError):
                            qpoch(a, q, ctx=ctx)
                        continue
                    got = mp.mpc(qpoch(a, q, ctx=ctx))
                    assert abs(got - ref) <= bound * abs(ref), (q, a, ctx)
                    if q <= 0.9:
                        old = mp.mpc(_qpoch_product_loop(a, q, ctx))
                        assert abs(got - old) <= bound * abs(ref), (q, a, ctx)


@pytest.mark.parametrize("ctx", [STANDARD, EXTENDED, extended_context(60)])
def test_qpoch_infinite_is_zero_at_an_exact_inverse_power_of_q(ctx):
    # a = q^-m, exact in binary, makes the factor of index m exactly 0
    for a, q in ((1.0, 0.7), (8.0, 0.5), (complex(16.0, 0.0), 0.5), (64.0, 0.25),
                 (2.0 ** 12, 0.125)):
        assert qpoch(a, q, ctx=ctx) == 0, (a, q)


@pytest.mark.parametrize("a", [math.inf, -math.inf, complex(0, math.inf), math.nan])
@pytest.mark.parametrize("ctx", [STANDARD, EXTENDED])
def test_qpoch_infinite_of_a_non_finite_modulus_is_a_range_error(a, ctx):
    with pytest.raises(RangeError):
        qpoch(a, 0.5, ctx=ctx)


@pytest.mark.parametrize("a, q", [(1e300, 0.5), (complex(1.5e308, 1.5e308), 0.5),
                                  (30.0, 0.999), (1.25 - 0.2j, 0.999)])
def test_qpoch_infinite_outside_the_double_range_is_a_range_error(a, q):
    # |(a; q)_inf| is about 1e149635, 1e158053, 1e1098 and 1e-767 (the
    # second a has no double |a|); extended precision has the range
    with pytest.raises(RangeError):
        qpoch(a, q)
    assert qpoch(a, q, ctx=EXTENDED) != 0


@pytest.mark.parametrize("a, q", [(-0.05, 1 - 1e-6), (-0.04 + 0.01j, 1 - 1e-6)])
def test_qpoch_infinite_tail_past_the_double_range_is_a_range_error(a, q):
    # M = 0 and the log-series tail alone is exp(+5e4): cmath.exp overflowed
    with pytest.raises(RangeError):
        qpoch(a, q)
    assert qpoch(a, q, ctx=EXTENDED) != 0


def test_qpoch_leaving_the_double_range_stops_at_that_factor():
    # (30; 1 - 1e-6)_inf overflows after about 210 of its 6.4 million
    # factors; multiplying all of them first took 1.5 s
    start = time.perf_counter()
    with pytest.raises(RangeError):
        qpoch(30.0, 1 - 1e-6)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("ctx", [STANDARD, EXTENDED, extended_context(60)])
def test_qpoch_is_exactly_zero_at_q_to_the_minus_m(ctx):
    # the factor of index m of (q^-m; q)_n vanishes for every n > m and for
    # n = None, however q^-m q^m rounds; (q^-m; q)_m keeps all its factors
    for q in (0.3, 0.5, 0.7):
        for m in range(11):
            powers = [q ** -m] + ([ctx.rnum(q) ** -m] if ctx.extended else [])
            for a in powers:
                for n in (m + 1, m + 2, m + 7, None):
                    assert qpoch(a, q, n, ctx=ctx) == 0, (q, m, n)
                assert qpoch(a, q, m, ctx=ctx) != 0, (q, m)


@pytest.mark.parametrize("ctx", [STANDARD, EXTENDED])
def test_qpoch_vanishes_exactly_where_the_basic_series_terminates(ctx):
    # (u; q)_k is 0 exactly when detect_termination([u], q) < k.  Otherwise
    # it is nonzero, unless a standard factor 1 - u q^i rounds to 0 for a u
    # one ulp off q^-m: that product has left the double range
    rng = random.Random(30)
    for _ in range(400):
        q, m = rng.choice((0.3, 0.5, 0.7)), rng.randrange(11)
        k = rng.choice([None, *range(13)])
        kind = rng.randrange(3)
        if kind == 0:
            u = q ** -m
        elif kind == 1:
            u = math.nextafter(q ** -m, rng.choice((0.0, math.inf)))
        else:
            u = rng.uniform(0, 3) * cmath.exp(2j * math.pi * rng.random())
        stop = detect_termination([u], q)
        if stop is not None and (k is None or stop < k):
            assert qpoch(u, q, k, ctx=ctx) == 0, (u, q, k)
        elif not ctx.extended and any(1 - u * q ** i == 0 for i in range(60 if k is None else k)):
            with pytest.raises(RangeError):
                qpoch(u, q, k, ctx=ctx)
        else:
            assert qpoch(u, q, k, ctx=ctx) != 0, (u, q, k)


@pytest.mark.parametrize("a, q, n", [(1.3 * cmath.exp(0.4j), 0.99, 600),
                                     (2.5 * cmath.exp(-1j), 0.99, 400),
                                     (1.1 * cmath.exp(3j), 0.995, 1500),
                                     (0.9 * cmath.exp(2j), 0.999, 2000)])
def test_qpoch_finite_does_not_drift(a, q, n):
    # q^m by one power per factor: a running product q^m drifted by m ulps,
    # 1.7e-14 at the first draw
    with mp.workdps(60):
        ref, qm = mp.mpc(1), mp.mpf(q)
        for m in range(n):
            ref *= 1 - mp.mpc(a) * qm ** m
        assert abs(mp.mpc(qpoch(a, q, n)) - ref) <= 5e-15 * abs(ref)


def test_qpoch_finite_underflow_is_a_range_error():
    # |(a; q)_3000| is 1.36e-523: the standard product used to stop at
    # 5e-324 + 5e-324j
    a = 1.3 * cmath.exp(0.4j)
    with pytest.raises(RangeError):
        qpoch(a, 0.999, 3000)
    assert qpoch(a, 0.999, 3000, ctx=EXTENDED) != 0


def test_vanishing_denominator_product_is_a_pole():
    # 2 = 0.5^-1 zeroes (2; 0.5)_inf, on its own and as a ladder's j = 0
    # divisor (a bare ZeroDivisionError before)
    with pytest.raises(PoleError):
        qpoch_many([0.5], 0.5, over=[2.0])
    with pytest.raises(PoleError):
        next(pochhammer_ladder(0.3, (), [(2.0, 1, math.inf)], 0.5))


def test_qpoch_functional_equation():
    rng = random.Random(3)
    for _ in range(30):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        q = rng.choice([0.3, 0.5, 0.7])
        m = rng.randrange(0, 30)
        n = rng.randrange(0, 30)
        lhs = qpoch(a, q, m + n)
        rhs = qpoch(a, q, m) * qpoch(a * q ** m, q, n)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_qpoch_many():
    v = qpoch_many([0.2, 0.4], 0.5, 3)
    assert abs(v - qpoch(0.2, 0.5, 3) * qpoch(0.4, 0.5, 3)) < 1e-15


def test_qpoch_many_over_divides_factor_by_factor():
    # bit for bit the loop it replaces: products first, then one division
    # per denominator base, in list order
    num = [0.3 + 0.1j, -0.45, 0.2j, 0.7]
    den = [0.15 - 0.2j, 0.6, -0.35j]
    for ctx in (STANDARD, EXTENDED):
        for n in (None, 5):
            pref = ctx.cnum(1)
            for u in num:
                pref *= qpoch(u, 0.5, n, ctx=ctx)
            for l in den:
                pref /= qpoch(l, 0.5, n, ctx=ctx)
            assert qpoch_many(num, 0.5, n, over=den, ctx=ctx) == pref


def _ladder_rebuilt(z, top, bottom, q, j, ctx):
    """c_j of ``pochhammer_ladder`` with every product taken afresh."""
    def product(a, s, l):
        if q is None:
            return pochhammer(ctx.cnum(a) + s * j, l * j, ctx)
        n = None if l == math.inf else l * j
        return qpoch(ctx.cnum(a) * ctx.rnum(q) ** (s * j), q, n, ctx=ctx)

    value = ctx.cnum(z) ** j
    for entry in top:
        value *= product(*entry)
    for entry in bottom:
        value /= product(*entry)
    return value


_INF = math.inf
_A = 2 * 0.2 + 2 * 0.3 - 1   # exactly 0: a + beta = 1/2 in chahn_bilinear
_LADDERS = {
    # one entry kind per declaration, on top and on the bottom
    "(a, 0, l)": (0.3, [(0.7, 0, 3), (-0.45 + 0.2j, 0, 2)], [(1.3, 0, 2)], None),
    "(A, 1, 1)": (-0.4, [(0.35, 1, 1)], [(1.7 - 0.3j, 1, 1)], None),
    "(A, 1, 1) at A = 0": (0.4, [(0.0, 1, 1)], [(_A, 1, 1)], None),
    "(X, 0, inf)": (0.6, [(0.3 + 0.2j, 0, _INF)], [(-0.45, 0, _INF)], 0.5),
    "(X, 1, inf)": (0.6, [(0.3 + 0.2j, 1, _INF)], [(-0.45, 1, _INF)], 0.7),
    "(X, 2, inf)": (-0.5, [(0.3 + 0.2j, 2, _INF)], [(-0.45, 2, _INF)], 0.3),
    "(B, 0, 1)": (0.5, [(0.6j, 0, 1)], [(0.3, 0, 1), (0.5, 0, 1)], 0.5),
    "(g, 1, 1)": (0.5, [(-0.35, 1, 1)], [(0.8 + 0.1j, 1, 1)], 0.7),
    "(g, 1, 1) at g = 1": (0.5, [(1.0, 1, 1)], [(0.3, 0, 1)], 0.0625),
    # the coefficient of chahn_bilinear, (-r)^j j! / ((2a)_j (b+d)_j (A+j)_j)
    "chahn_bilinear": (-0.3, [(1, 0, 1)], [(0.4, 0, 1), (0.6, 0, 1), (_A, 1, 1)], None),
    # of mult_2f1, z^j (c)_j (A)_j (B)_j / (j! (c')_j (C+j)_j), C = 0
    "mult_2f1": (0.3, [(0.4, 0, 1), (1.5, 0, 1), (0.2, 0, 1)],
                 [(1, 0, 1), (0.6, 0, 1), (0.4 + 0.6 - 1, 1, 1)], None),
    # of aw_bilinear at abcd = q, (abcd q^{j-1}; q)_j = (g q^j; q)_j, g = 1
    "aw_bilinear": (0.1, [(0.5 ** 3 * 0.1, 1, _INF)] * 4,
                    [(0.0625, 0, 1), (0.25, 0, 1), (0.25, 0, 1),
                     (0.5 ** 4 * 0.1, 2, _INF), (0.5 ** 4 / 0.0625, 1, 1)], 0.0625),
}


@pytest.mark.parametrize("name", list(_LADDERS))
def test_pochhammer_ladder_matches_rebuilt_products(name):
    # j = 0..40 in standard precision, every fifth j in extended
    z, top, bottom, q = _LADDERS[name]
    for ctx, step, tol in ((STANDARD, 1, 1e-13), (EXTENDED, 5, 1e-30)):
        ladder = pochhammer_ladder(z, top, bottom, q, ctx)
        for j, co in islice(enumerate(ladder), 0, 41, step):
            want = _ladder_rebuilt(z, top, bottom, q, j, ctx)
            assert abs(co - want) <= tol * abs(want), (ctx, j)


def test_pochhammer_ladder_first_value_is_qpoch_many():
    top = [(0.3 + 0.1j, 1, _INF), (0.2j, 2, _INF), (0.4, 0, 1)]
    bottom = [(0.15 - 0.2j, 0, _INF), (0.6, 1, _INF)]
    for ctx in (STANDARD, EXTENDED):
        first = next(pochhammer_ladder(0.7, top, bottom, 0.5, ctx))
        assert first == qpoch_many([0.3 + 0.1j, 0.2j], 0.5, over=[0.15 - 0.2j, 0.6],
                                   ctx=ctx)


def test_pochhammer_ladder_vanishing_divisor_is_a_pole():
    # (-2)_j on the bottom vanishes from j = 3 on; (-2)_j on top just stays 0
    assert list(islice(pochhammer_ladder(1, [(-2, 0, 1)]), 5)) == [1, -2, 2, 0, 0]
    ladder = pochhammer_ladder(1, (), [(-2, 0, 1)])
    assert list(islice(ladder, 3)) == [1, -0.5, 0.5]
    with pytest.raises(PoleError):
        next(ladder)


def test_gamma_basics():
    assert abs(complex_gamma(1.0) - 1) < 1e-14
    assert abs(complex_gamma(0.5) - math.sqrt(math.pi)) < 1e-14
    with pytest.raises(PoleError):
        complex_gamma(0.0)
    with pytest.raises(PoleError):
        complex_gamma(-3.0)


@pytest.mark.parametrize("z", [171.7, 200.0])
def test_gamma_past_the_double_range_is_a_range_error(z):
    # Gamma(171.7) is about 1.1e309: past the largest double, not a bare
    # OverflowError
    with pytest.raises(RangeError):
        complex_gamma(z)


def test_gamma_underflows_to_zero_left_of_the_origin():
    # |Gamma(-200.5)| is about 1e-376, below the smallest double
    assert complex_gamma(-200.5) == 0


def test_log_abs_gamma_next_to_a_pole_is_finite():
    # -3 + 1e-15 is not -3: only an exact nonpositive integer is a pole
    z = -3 + 1e-15
    with mp.workdps(30):
        ref = float(mp.log(abs(mp.gamma(mp.mpf(z)))))
    assert abs(log_abs_gamma(z) - ref) <= 1e-12 * ref
    # the Lanczos array too: its reflection reduces Re z by the nearest
    # integer before the sine
    assert abs(log_abs_gamma(np.array([z + 0j]))[0] - ref) <= 1e-12 * ref
    with pytest.raises(PoleError):
        log_abs_gamma(-3.0)


@pytest.mark.parametrize("ctx", [STANDARD, EXTENDED], ids=["standard", "extended"])
@pytest.mark.parametrize("x", [-0.5, 0, -2])
def test_log_gamma_real_refuses_nonpositive_x_in_both_precisions(x, ctx):
    with pytest.raises(DomainError):
        log_gamma_real(x, ctx)


def test_gamma_recurrence_on_strip():
    rng = random.Random(11)
    for _ in range(60):
        z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        if abs(z - round(z.real)) < 0.05 and z.real < 0.5:
            continue
        lhs = complex_gamma(z + 1)
        rhs = z * complex_gamma(z)
        assert abs(lhs - rhs) <= 1e-11 * abs(lhs)


def test_gamma_modulus_identity():
    for x in [0.1, 0.5, 1.0, 3.7, 9.0, 20.0]:
        g2 = abs(complex_gamma(complex(1, x))) ** 2
        ref = math.pi * x / math.sinh(math.pi * x)
        assert abs(g2 - ref) <= 1e-10 * ref


def test_gamma_against_mpmath():
    for z in (1 + 1j, -3.3 + 2j, 4.2 - 11j, 0.2 + 45j, -20.7 - 30j, 30 + 0.5j):
        with mp.workdps(30):
            ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
        got = complex_gamma(z)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_gamma_extended():
    got = complex_gamma(0.5 + 3j, EXTENDED)
    with mp.workdps(40):
        ref = mp.gamma(mp.mpc(0.5, 3))
        assert abs(complex(got - ref)) < 1e-30


def test_log_abs_gamma_large_imaginary():
    for z in (0.25 + 130j, 0.25 - 260j, 1.7 - 40j, 0.1 + 24j, 0.1 + 26j):
        with mp.workdps(30):
            ref = float(mp.re(mp.loggamma(mp.mpc(z.real, z.imag))))
        assert abs(log_abs_gamma(z) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_log_abs_gamma_on_array_matches_scalar():
    # the Lanczos array against the scalar function, which is mpmath's
    # loggamma at 53 bits; one seeded block per branch of the array:
    # Lanczos directly (Re z >= 1/2), through the reflection (Re z < 1/2),
    # and the reflection's |pi Im z| > 25 asymptote
    rng = np.random.default_rng(11)
    n = 60
    sign = rng.choice([-1.0, 1.0], n)
    z = np.concatenate([rng.uniform(0.5, 6.0, n) + 1j * rng.uniform(-60, 60, n),
                        rng.uniform(-3.7, 0.49, n) + 1j * rng.uniform(-7.9, 7.9, n),
                        rng.uniform(-3.7, 0.49, n) + 1j * sign * rng.uniform(8.1, 300, n)])
    got = log_abs_gamma(z)
    assert got.shape == z.shape
    for zi, gi in zip(z, got):
        want = log_abs_gamma(complex(zi))
        assert abs(gi - want) <= 1e-13 * max(1.0, abs(want)), zi


def test_log_abs_gamma_on_array_guards():
    with pytest.raises(PoleError):
        log_abs_gamma(np.array([0.5 + 1j, -2.0 + 0j]))
    with pytest.raises(ParamError):
        log_abs_gamma(np.array([0.5 + 1j]), EXTENDED)


def test_pow_principal():
    assert complex_pow_principal(1.0, 2.3 + 0.4j) == 1
    v = complex_pow_principal(math.e, 1j)
    assert abs(v - complex(math.cos(1), math.sin(1))) < 1e-15
    base = 1 - 0.5 * cmath.exp(0.6j)
    v = complex_pow_principal(base, 2j)
    # polar decomposition oracle: |b^{2i}| = e^{-2 arg b}
    assert abs(abs(v) - math.exp(-2 * cmath.phase(base))) < 1e-14
    with pytest.raises(DomainError):
        complex_pow_principal(0.0, -1.0)
    assert complex_pow_principal(0.0, 2.0) == 0


def test_pow_additivity_no_branch_crossing():
    rng = random.Random(5)
    for _ in range(30):
        b = complex(rng.uniform(0.1, 3), rng.uniform(-2, 2))
        e1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        e2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = complex_pow_principal(b, e1 + e2)
        rhs = complex_pow_principal(b, e1) * complex_pow_principal(b, e2)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_bessel_trivial():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(2.5, 0.0) == 0.0


def test_bessel_first_zero_of_j0():
    # bisect the ascending series between 2 and 3, then check the value at
    # the located zero
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bessel_j(0, lo) * bessel_j(0, mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert abs(lo - 2.4048255576957728) < 1e-12
    assert abs(bessel_j(0, 2.4048255576957728)) < 1e-10


def test_bessel_half_order_closed_form():
    for z in (0.5, 2.0, 7.3, 22.0):
        ref = math.sqrt(2 / (math.pi * z)) * math.sin(z)
        assert abs(bessel_j(0.5, z) - ref) <= 1e-11 * max(1.0, abs(ref))


def test_bessel_large_argument_accuracy():
    for nu, z in ((0, 30.0), (3.7, 25.0), (0.2, 18.0)):
        with mp.workdps(30):
            ref = float(mp.besselj(nu, z))
        assert abs(bessel_j(nu, z) - ref) <= 1e-11 * max(abs(ref), 1e-3)


def _bessel_rel_err(nu, z, ctx):
    with mp.workdps(40):
        ref = mp.besselj(nu, mp.mpf(z))
        return abs((bessel_j(nu, z, ctx) - ref) / ref)


@pytest.mark.parametrize("ctx, bound", [(STANDARD, 1e-13), (EXTENDED, 1e-30)])
def test_bessel_tiny_values_are_summed_in_full(ctx, bound):
    # an absolute stop floor of 10^(-dps-4) ended these after one or two
    # terms: J_60(9) was 6.8% off and J_40.5(2) 2.9e-4 off in both precisions
    assert bessel_j(60, 9.0, ctx) < 1e-40
    for nu, z in ((60, 9.0), (40.5, 2.0)):
        assert _bessel_rel_err(nu, z, ctx) <= bound


@pytest.mark.parametrize("ctx, bound", [(STANDARD, 1e-13), (EXTENDED, 1e-30)])
def test_bessel_seeded_grid_against_mpmath(ctx, bound):
    rng = random.Random(19)
    pts = []
    for _ in range(120):
        nu = rng.randrange(0, 81) + rng.choice((0.0, rng.random()))
        pts.append((nu, rng.uniform(0.0, 30.0)))
    # high orders at small z: values far below 1e-20
    for _ in range(30):
        nu = rng.uniform(20.0, 80.0)
        pts.append((nu, rng.uniform(0.01, 0.4 * math.sqrt(nu))))
    j0 = 2.404825557695773
    pts += [(0, j0 + s * 10.0 ** -e) for e in range(3, 13, 2) for s in (1, -1)]
    pts.append((0, j0))
    assert sum(abs(mp.besselj(nu, z)) < 1e-20 for nu, z in pts) >= 50
    worst = max(_bessel_rel_err(nu, z, ctx) for nu, z in pts)
    assert worst <= bound


def test_bessel_escalates_on_measured_cancellation(monkeypatch):
    # J_30(9.5): the terms only fall, no digit cancels, so the series stays
    # in double although z > 8; J_0(9.5) cancels 3.4 digits (largest term
    # 450) and is summed again at escalated precision
    calls = []

    def counted(dps):
        calls.append(dps)
        return extended_context(dps)

    monkeypatch.setattr(numerics, "extended_context", counted)
    assert _bessel_rel_err(30, 9.5, STANDARD) <= 1e-13
    assert calls == []
    assert _bessel_rel_err(0, 9.5, STANDARD) <= 1e-15
    assert len(calls) == 1


def test_bessel_range_errors():
    with pytest.raises(RangeError):
        bessel_j(0, 31.0)
    with pytest.raises(RangeError):
        bessel_j(-1.5, 1.0)


def test_bessel_negative_argument_needs_an_exact_integer_order():
    # J_m(-z) = (-1)^m J_m(z) for an integer m only: an order one rounding
    # off an integer is no integer
    assert bessel_j(3, -1.5) == -bessel_j(3, 1.5)
    for nu, z in ((1e-13, -1.5), (2 + 2 ** -50, -1.0)):
        with pytest.raises(DomainError):
            bessel_j(nu, z)


def test_extended_context_ladder():
    # escalations share one context per rung of ten digits
    assert extended_context(12).dps == 30
    assert extended_context(40) is EXTENDED
    assert extended_context(41) is extended_context(50)
    assert extended_context(41).dps == 50
    assert str(extended_context(41).rnum(1) / 3) == "0." + "3" * 50
