"""The series engines' two term loops, on Python integers (``qkl.dyadic``)
in extended precision and on doubles in standard: values against 80-digit
references, bounded by 2^-(prec - 8) times the sum of the terms'
magnitudes, the size of the integers the first builds, and the conversions
of ``numerics.Context``."""
import cmath
import random

import mpmath as mp
import pytest

import qkl.dyadic as dyadic
import qkl.hyper as hyper
from qkl.hyper import SeriesStatus, TruncationPolicy, bhs_rphis, hyp_pfq, vwp_8w7
from qkl.numerics import EXTENDED, STANDARD, extended_context

REF = mp.MPContext()
REF.dps = 80
# a non-terminating pFq is summed to far below its 40 or 60 digits, so that it
# meets the infinite sum of mpmath's hyper
DEEP = TruncationPolicy(tail_tol=1e-75)


def _c(x):
    return REF.mpc(complex(x))


def _pfq_terms(up, lo, z, count):
    t, z = REF.mpc(1), _c(z)
    for n in range(count):
        yield t
        num = den = REF.mpc(1)
        for u in up:
            num *= _c(u) + n
        for l in lo:
            den *= _c(l) + n
        t = t * num / (den * (n + 1)) * z


def _q_terms(up, lo, q, z, count, extra=0):
    """prod (u; q)_n / prod (l; q)_n z^n ((-1)^n q^(n choose 2))^extra for
    n < count, the q-shifted factorials carried factor by factor."""
    q, z = REF.mpf(q), _c(z)
    up, lo = [_c(u) for u in up], [_c(l) for l in lo]
    t, qn = REF.mpc(1), REF.mpf(1)
    for n in range(count):
        yield t
        for u in up:
            t *= 1 - u * qn
        for l in lo:
            t /= 1 - l * qn
        t *= z * (-qn) ** extra
        qn *= q


def _rphis_terms(up, lo, q, z, count):
    # prod (u; q)_n / ((q; q)_n prod (l; q)_n) z^n ((-1)^n q^(n choose 2))^(1+s-r)
    return _q_terms(up, [q, *lo], q, z, count, 1 + len(lo) - len(up))


def _vwp_terms(a, bs, q, z, count):
    # (1 - a q^2n) / (1 - a) (a; q)_n prod (b; q)_n / ((q; q)_n prod (d; q)_n) z^n,
    # d = a q / b formed as vwp_8w7 forms it (in doubles from doubles)
    ds = [a * q / b for b in bs]
    for n, t in enumerate(_q_terms([a, *bs], [q, *ds], q, z, count)):
        yield t * (1 - _c(a) * REF.mpf(q) ** (2 * n)) / (1 - _c(a))


def _within_bound(ev, ref, terms, ctx=EXTENDED):
    """|value - ref| <= 2^-(prec - 8) sum |t_n|."""
    size = REF.fsum(abs(t) for t in terms)
    err = abs(REF.mpc(ev.value) - ref)
    return err <= REF.ldexp(size, 8 - ctx.prec), (err, size)


def _rand_c(rng, scale=1.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def _terminating_draws():
    rng = random.Random(20)
    for _ in range(12):
        n = rng.randrange(1, 41)
        q = rng.choice([0.3, 0.5, 0.7, 0.9])
        yield ("pfq", [-n, _rand_c(rng, 2), rng.uniform(-3, 3)],
               [_rand_c(rng, 2) + 3, rng.uniform(0.5, 4)], _rand_c(rng, 2))
        m = rng.randrange(1, 16)
        yield ("rphis", [q ** -m, _rand_c(rng, 0.5), rng.uniform(-1, 1)],
               [_rand_c(rng, 0.5)], q, rng.uniform(-1, 1))
        yield ("8w7", _rand_c(rng, 0.3),
               [q ** -m] + [_rand_c(rng, 0.5) for _ in range(4)], q, _rand_c(rng, 1.5))


def _boundary_draws():
    rng = random.Random(21)
    for _ in range(6):
        z = cmath.rect(rng.uniform(0.9, 0.97), rng.uniform(-3, 3))
        q = rng.choice([0.3, 0.5, 0.7, 0.9])
        yield ("pfq", [_rand_c(rng), rng.uniform(-2, 2)], [_rand_c(rng) + 3], z)
        yield ("rphis", [_rand_c(rng, 0.4), _rand_c(rng, 0.4)], [_rand_c(rng, 0.4)], q, z)
        yield ("8w7", _rand_c(rng, 0.3), [_rand_c(rng, 0.4) for _ in range(5)], q, z)


def _rphis_order_draws():
    """Terminating r-phi-s with r = s, whose (-q^n)^(1+s-r) is a factor
    0 - q^n of the term ratio's numerator, and with r = s + 2, where it is
    one of its denominator."""
    rng = random.Random(24)
    for s, r in ((1, 1), (2, 2), (3, 3), (0, 2), (2, 4)):
        m = rng.randrange(1, 16)
        q = rng.choice([0.3, 0.5, 0.7, 0.9])
        yield ("rphis", [q ** -m] + [_rand_c(rng, 0.5) for _ in range(r - 1)],
               [_rand_c(rng, 0.5) for _ in range(s)], q, _rand_c(rng, 1.5))


# zero and negative-zero imaginary parts, and 1e-300 next to order one
_EDGE_DRAWS = [
    ("pfq", [complex(-12, 0.0), complex(0.7, -0.0)], [complex(1.3, -0.0)], complex(-1.6, 0.0)),
    ("pfq", [complex(0.7, 1e-300), complex(-0.3, 0.2)], [complex(1.3, -1e-300), 1.5], 0.5),
    ("pfq", [-9, 2.5], [1.25], 1e-300),
    ("rphis", [complex(0.4, -0.0), complex(-0.3, 0.0)], [complex(0.6, 0.0)], 0.5,
     complex(0.93, -0.0)),
    ("rphis", [1e-300, complex(0.2, 0.3)], [complex(1e-300, 0.4)], 0.7, 0.95),
    ("8w7", complex(0.3, -0.0), [complex(0.5, 0.0), 0.2, 0.4, complex(-0.6, -0.0), 0.1],
     0.7, 0.92),
    ("8w7", 0.3, [1e-300, complex(0.2, 0.3), 0.4, 0.6, 0.1], 0.5, 0.9),
]


def _evaluate(draw, ctx=EXTENDED):
    """(SeriesEval, 80-digit reference, reference terms) of one draw."""
    kind, *args = draw
    if kind == "pfq":
        up, lo, z = args
        terminating = hyper.detect_termination(up) is not None
        ev = hyp_pfq(up, lo, z, None if terminating else DEEP, ctx)
        ref = REF.hyper([_c(u) for u in up], [_c(l) for l in lo], _c(z))
        return ev, ref, list(_pfq_terms(up, lo, z, ev.terms_used))
    if kind == "rphis":
        ev = bhs_rphis(*args, ctx=ctx)
        terms = list(_rphis_terms(*args, ev.terms_used))
    else:
        ev = vwp_8w7(*args, ctx=ctx)
        terms = list(_vwp_terms(*args, ev.terms_used))
    return ev, REF.fsum(terms), terms


_DRAWS = [*_terminating_draws(), *_boundary_draws(), *_EDGE_DRAWS, *_rphis_order_draws()]


@pytest.mark.parametrize("draw", _DRAWS, ids=lambda d: d[0])
def test_extended_engines_meet_an_80_digit_reference(draw):
    ev, ref, terms = _evaluate(draw)
    assert ev.precision == "extended"
    ok, detail = _within_bound(ev, ref, terms)
    assert ok, detail


@pytest.mark.parametrize("draw", _DRAWS, ids=lambda d: d[0])
def test_standard_engines_meet_an_80_digit_reference(draw):
    # the double loop reads the factor lists the integer loop takes, and
    # keeps to the same bound at 53 bits (a draw near |z| = 1 escalates)
    ev, ref, terms = _evaluate(draw, STANDARD)
    ok, detail = _within_bound(ev, ref, terms, STANDARD)
    assert ok, detail


def test_the_bound_holds_at_a_higher_precision():
    ctx = extended_context(60)
    for draw in [*_EDGE_DRAWS, next(_terminating_draws()), next(_boundary_draws())]:
        ev, ref, terms = _evaluate(draw, ctx)
        ok, detail = _within_bound(ev, ref, terms, ctx)
        assert ok, (draw, detail)


def test_integers_stay_small_next_to_tiny_parameters(monkeypatch):
    # every product the loop rounds, and every sum, stays within a few
    # thousand bits when parameters of 1e-300 meet parameters of order one
    widest = [0]
    round_ = dyadic._round

    def recording(re, im, exp, wp):
        widest[0] = max(widest[0], re.bit_length(), im.bit_length())
        return round_(re, im, exp, wp)

    monkeypatch.setattr(dyadic, "_round", recording)
    for draw in _EDGE_DRAWS:
        ev = _evaluate(draw)[0]
        assert ev.terms_used > 1
    assert 0 < widest[0] <= 4000, widest[0]


@pytest.mark.parametrize("draw, terms, status", [
    (("pfq", [-30, complex(0.73, 1.37)], [1.46], 1 - cmath.exp(-3.8j)), 31,
     SeriesStatus.TERMINATED_FINITE),
    (("pfq", [0.5, 0.5], [1.5], 0.95), 466, SeriesStatus.CONVERGED),
    (("8w7", complex(0.2, 0.1), [0.5, complex(0.2, 0.3), 0.4, 0.6, 0.3], 0.7, 0.95), 621,
     SeriesStatus.CONVERGED),
], ids=["2f1_degree_30", "2f1_at_0.95", "8w7_at_0.95"])
def test_named_draws_stop_where_they_did(draw, terms, status):
    # the stopping rule compares through exponents and stops where the
    # per-term mpmath sums stopped
    kind, *args = draw
    engine = {"pfq": hyp_pfq, "8w7": vwp_8w7}[kind]
    ev = engine(*args, ctx=EXTENDED)
    assert (ev.terms_used, ev.status) == (terms, status)


@pytest.mark.parametrize("engine, args", [
    (hyp_pfq, ([-5, 0.5], [1.5], 0.3)),
    (bhs_rphis, ([0.3, 0.2], [0.5], 0.6, 0.4)),
    (vwp_8w7, (0.3, [0.5, 0.2, 0.4, 0.6, 0.1], 0.7, 0.5)),
])
def test_extended_engines_sum_on_integers(monkeypatch, engine, args):
    seen = []
    accumulate = hyper.accumulate

    def spy(term_iter, *rest, **kwargs):
        seen.append(type(term_iter))
        return accumulate(term_iter, *rest, **kwargs)

    monkeypatch.setattr(hyper, "accumulate", spy)
    engine(*args, ctx=EXTENDED)
    engine(*args)
    assert seen == [dyadic.SeriesTerms, type(x for x in ())]


def test_context_converts_to_and_from_triples():
    rng = random.Random(22)
    values = [0, -7, 2 ** 80, 0.0, -0.0, 1.5, 5e-324, 1.7e308, complex(1e-300, -2),
              complex(-0.0, 3.0), EXTENDED.cnum(1) / 3, EXTENDED.rnum(2) ** -1000 + 1j]
    values += [complex(rng.uniform(-1, 1) * 10.0 ** rng.randrange(-300, 300),
                       rng.uniform(-1, 1) * 10.0 ** rng.randrange(-300, 300))
               for _ in range(200)]
    for v in values:
        re, im, exp = EXTENDED.to_dyadic(v)
        assert mp.mpc(re, im) * mp.mpf(2) ** exp == mp.mpc(EXTENDED.cnum(v))
        assert EXTENDED.from_dyadic((re, im, exp)) == EXTENDED.cnum(v)
    for v in (float("inf"), complex(1, float("nan")), EXTENDED.cnum(mp.inf)):
        with pytest.raises(OverflowError):
            EXTENDED.to_dyadic(v)
    # one rounding, to nearest, at the context's precision
    third = EXTENDED.from_dyadic(((1 << 400) // 3, 0, -400))
    assert third == EXTENDED.cnum(1) / 3


def test_magnitudes_compare_past_the_double_range():
    huge = dyadic.magnitude((3, 4, 5000))
    tiny = dyadic.magnitude((1, 0, -5000))
    zero = dyadic.magnitude((0, 0, 7))
    assert huge > tiny > zero and huge > 0 and not zero > 0 and zero == 0
    assert huge.log10() == pytest.approx(5000 * 0.30102999566398120 + 0.69897000433601886)
    assert 1e-300 * huge > 1e300 * tiny
    assert tiny / huge == 0.0 and zero / huge == 0.0
    with pytest.raises(OverflowError):
        float(huge)
    assert float(dyadic.magnitude((3, 4, -2))) == 1.25


def test_context_lifts_its_own_numbers_exactly():
    # a real or complex number of the context becomes its triple as it is
    for v in (EXTENDED.rnum(1) / 3, -EXTENDED.gamma(EXTENDED.rnum(2.6)),
              EXTENDED.expi(EXTENDED.rnum(-1.1)), EXTENDED.rnum(0)):
        re, im, exp = EXTENDED.to_dyadic(v)
        assert mp.mpc(re, im) * mp.mpf(2) ** exp == mp.mpc(v)
    with pytest.raises(OverflowError):
        EXTENDED.to_dyadic(EXTENDED.rnum(mp.inf))


@pytest.mark.parametrize("z", [0.6 - 0.8j, 2.5 + 0.25j, -1.5 + 3j])
def test_conjugate_convolution_of_the_exponential(z):
    # t_j = z^j / j!, so sum_j t_j conj(t_{n-j}) is the coefficient of s^n in
    # |e^{zs}|^2 = e^{2 Re(z) s}: (2 Re z)^n / n!, from terms of modulus
    # |z|^n / (j! (n-j)!), the largest at j = n/2
    zc = EXTENDED.cnum(z)
    for n in (0, 1, 2, 7, 30):
        parts, lost = dyadic.conjugate_convolution(
            [], [(dyadic.ONE, dyadic.ONE)], EXTENDED.to_dyadic(zc), n, EXTENDED.prec)
        assert parts[1] == 0
        got = REF.mpf(parts[0]) * REF.mpf(2) ** parts[2]
        ref = (2 * REF.mpf(z.real)) ** n / REF.factorial(n)
        largest = abs(REF.mpc(z)) ** n / REF.factorial(n // 2) / REF.factorial(n - n // 2)
        assert abs(got - ref) <= 2 ** -(EXTENDED.prec - 8) * (n + 1) * largest, (z, n)
        true_lost = max(0, float(REF.log10(largest / abs(ref))))
        assert true_lost <= lost <= true_lost + 0.91, (z, n, lost, true_lost)


def test_times_sqrt_is_one_floor_from_the_root():
    # and the exact rising factorial that feeds it: (5/2)_3 = 315/8
    assert dyadic.rising((5, 0, -1), 3) == (315, 0, -3)
    assert dyadic.rising((3, 0, 2), 2) == (156, 0, 0)
    assert dyadic.rising((7, 0, -4), 0) == (1, 0, 0)
    wp = EXTENDED.prec + dyadic.EXTRA_BITS
    for t, num, den in [((3, 0, 0), (2, 0, 0), (1, 0, 0)),
                        ((-5, 7, -3), (5, 0, -3), (7, 0, 4)),
                        ((1, 0, 0), (1, 0, 0), (3 ** 200, 0, -90))]:
        re, im, exp = dyadic.times_sqrt(t, num, den, EXTENDED.prec)
        got = REF.mpc(re, im) * REF.mpf(2) ** exp
        tv = REF.mpc(t[0], t[1]) * REF.mpf(2) ** t[2]
        ref = tv * REF.sqrt(REF.mpf(num[0]) * REF.mpf(2) ** (num[2] - den[2]) / den[0])
        assert abs(got - ref) <= 2 ** -(wp - 3) * abs(ref)
