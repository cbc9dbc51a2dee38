"""Arithmetic backends: each operation of a context, its result type and its
digits, on the standard context and on two extended ones."""
import cmath
import math

import mpmath as mp
import pytest

from qkl.numerics import EXTENDED, STANDARD, Context, extended_context

Z = 0.3 + 0.4j
X = 0.7
THETA = 2.1
EXTENDED_CONTEXTS = [EXTENDED, extended_context(60)]
ALL_CONTEXTS = [STANDARD, *EXTENDED_CONTEXTS]
IDS = repr


def _complex_results(ctx):
    return [ctx.cnum(Z), ctx.exp(Z), ctx.log(Z), ctx.sqrt(Z), ctx.expi(THETA)]


def _real_results(ctx):
    return [ctx.rnum(X), ctx.rexp(X), ctx.rlog(X), ctx.rsqrt(X),
            ctx.cos(X), ctx.sin(X), ctx.acos(X)]


def test_mode_is_chosen_once():
    assert (STANDARD.mode, STANDARD.extended, STANDARD.dps) == ("standard", False, 16)
    assert (EXTENDED.mode, EXTENDED.extended, EXTENDED.dps) == ("extended", True, 40)
    assert repr(extended_context(55)) == "Context('extended', dps=60)"
    assert extended_context(55) is extended_context(60)
    assert Context("extended", 10).dps == 30
    with pytest.raises(ValueError):
        Context("interval")


def test_standard_results_are_python_numbers():
    assert all(type(v) is complex for v in _complex_results(STANDARD))
    assert all(type(v) is float for v in _real_results(STANDARD))


@pytest.mark.parametrize("ctx", EXTENDED_CONTEXTS, ids=IDS)
def test_extended_results_are_the_contexts_own_types(ctx):
    own = ctx.rnum(0).context
    assert own is not mp.mp and own.dps == ctx.dps
    assert all(type(v) is own.mpc for v in _complex_results(ctx))
    assert all(type(v) is own.mpf for v in _real_results(ctx))
    assert type(ctx.gamma(ctx.rnum(X))) is own.mpf
    assert type(ctx.loggamma(ctx.cnum(Z))) is own.mpc


def test_standard_results_equal_math_and_cmath_bit_for_bit():
    s = STANDARD
    assert [s.cnum(Z), s.exp(Z), s.log(Z), s.sqrt(Z)] == [
        Z, cmath.exp(Z), cmath.log(Z), cmath.sqrt(Z)]
    assert [s.rnum(X), s.rexp(X), s.rlog(X), s.rsqrt(X), s.cos(X), s.sin(X),
            s.acos(X)] == [X, math.exp(X), math.log(X), math.sqrt(X),
                           math.cos(X), math.sin(X), math.acos(X)]
    assert s.expi(THETA) == complex(math.cos(THETA), math.sin(THETA))
    assert s.log(-1.0) == complex(0.0, math.pi)   # principal branch


def test_gamma_is_mpmaths_in_both_modes():
    # a standard context computes Gamma with its own 53-bit mpmath context
    for ctx in ALL_CONTEXTS:
        eps, pi = 10.0 ** (2 - ctx.dps), ctx.acos(-1)
        g = ctx.gamma(ctx.rnum(0.5))
        assert abs(g * g - pi) < eps
        lg = ctx.loggamma(ctx.cnum(-0.5))   # principal branch
        assert abs(lg.real - ctx.rlog(2 * ctx.rsqrt(pi))) < eps
        assert abs(lg.imag + pi) < eps
    assert STANDARD.gamma(0.5).context.prec == 53


@pytest.mark.parametrize("ctx", EXTENDED_CONTEXTS, ids=IDS)
def test_extended_results_carry_the_contexts_digits(ctx):
    eps = 10.0 ** (2 - ctx.dps)
    assert abs(ctx.rsqrt(2) ** 2 - 2) < eps
    assert abs(abs(ctx.expi(THETA)) - 1) < eps
    assert abs(ctx.expi(THETA) - ctx.exp(ctx.cnum(1j * THETA))) < eps
    assert abs(ctx.exp(ctx.log(ctx.cnum(Z))) - Z) < eps
    assert abs(ctx.sqrt(ctx.cnum(Z)) ** 2 - Z) < eps
    assert abs(ctx.rexp(ctx.rlog(X)) - X) < eps
    assert abs(ctx.cos(ctx.acos(X)) - X) < eps
    assert abs(ctx.cos(X) ** 2 + ctx.sin(X) ** 2 - 1) < eps
    log_minus_one = ctx.log(ctx.cnum(-1))   # principal branch
    assert log_minus_one.real == 0 and abs(log_minus_one.imag - ctx.acos(-1)) < eps


@pytest.mark.parametrize("ctx", ALL_CONTEXTS, ids=IDS)
def test_is_finite(ctx):
    inf, nan = float("inf"), float("nan")
    for v in (inf, -inf, nan, complex(inf, 0.0), complex(0.0, nan),
              ctx.rnum(inf), ctx.cnum(complex(0.0, nan))):
        assert not ctx.is_finite(v), v
    for v in (0, 1.5, Z, ctx.rnum(X), ctx.cnum(Z)):
        assert ctx.is_finite(v), v


@pytest.mark.parametrize("ctx", ALL_CONTEXTS, ids=IDS)
def test_adopt_copies_mpmath_numbers_and_keeps_python_ones(ctx):
    for v in (3, 1.5, Z):
        assert ctx.adopt(v) is v
    own = ctx.adopt(mp.mpf(0)).context
    wide = extended_context(100).rsqrt(2)
    for v in (wide, extended_context(100).expi(THETA)):
        a = ctx.adopt(v)
        assert a.context is own and a == v      # the value is copied exactly
    # further arithmetic rounds at the adopting context's precision
    assert abs(ctx.adopt(wide) * 1 - wide) < 10.0 ** (2 - ctx.dps)
    assert ctx.adopt(wide) * 1 != wide
