"""Exact rational verification over the Gaussian rationals."""
import copy
import math
import operator
import pickle
import random
from fractions import Fraction as F

import pytest

from qkl import exact
from qkl.errors import ParamError, PoleError
from qkl.exact import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    EXACT_ROUTES,
    coeff_2f1,
    exact_case,
    gr,
    verify_hahn_exact,
    verify_mult_2f1_exact,
)
from qkl.identities import IdentityCase, run_case


def test_gaussian_rational_field_ops():
    a = gr(F(1, 2), F(1, 3))
    b = gr(F(2, 5), F(-1, 4))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * b == b * a
    assert (a / b) * b == a
    assert gr(3) / gr(0, 1) == gr(0, -3)
    assert a.conjugate().conjugate() == a
    assert gr(-2).is_nonpositive_integer()
    assert not gr(F(-1, 2)).is_nonpositive_integer()
    assert not gr(-2, 1).is_nonpositive_integer()
    with pytest.raises(ZeroDivisionError):
        a / gr(0)
    with pytest.raises(ParamError):
        GaussianRational.of(0.5 + 0j)


def test_hash_agrees_with_eq():
    # a real value hashes as the int or Fraction it equals
    assert gr(3) == 3 and hash(gr(3)) == hash(3)
    assert len({gr(3), 3}) == 1
    assert len({gr(F(-1, 2)), F(-1, 2), gr(F(-2, 4))}) == 1
    assert len({gr(F(1, 2), 3), gr(F(2, 4), F(6, 2))}) == 1
    assert {gr(0): "zero"}[0] == "zero"


def test_eq_with_non_exact_operand_is_false():
    one = gr(1)
    assert (one == None) is False  # noqa: E711
    assert (one == 0.5) is False
    assert (one == 1.0) is False
    assert (one == 1 + 0j) is False
    assert one != "x" and one != [1]
    # arithmetic with a floating operand still refuses it
    for bad in (0.5, 1 + 0j):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ParamError):
                op(one, bad)
            with pytest.raises(ParamError):
                op(bad, one)


def _rand_pair(rng):
    """A random Gaussian rational as a (re, im) pair of Fractions, often real,
    integral or zero."""
    def rat():
        kind = rng.random()
        if kind < 0.15:
            return F(0)
        if kind < 0.45:
            return F(rng.randint(-6, 6))
        return F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
    return rat(), (F(0) if rng.random() < 0.4 else rat())


def _as_operand(rng, pair):
    """The pair as an int or Fraction when it is real (sometimes), else as a
    GaussianRational."""
    re, im = pair
    if im == 0 and rng.random() < 0.5:
        return re.numerator if re.denominator == 1 and rng.random() < 0.5 else re
    return gr(re, im)


def _ref(op, p, q):
    """Reference result of a binary operation on Fraction pairs."""
    (a, b), (c, d) = p, q
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def _assert_is(v, pair):
    """v is the canonical GaussianRational of the pair."""
    assert type(v) is GaussianRational
    x, y, d = v._t
    assert d > 0 and math.gcd(x, y, d) == 1
    assert (F(x, d), F(y, d)) == pair
    assert (v.re, v.im) == pair
    assert type(v.re) is F and type(v.im) is F
    assert repr(v) == f"GaussianRational({pair[0]}, {pair[1]})"
    assert v.is_zero() == (pair == (0, 0))
    assert v.is_nonpositive_integer() == (pair[1] == 0 and pair[0].denominator == 1
                                          and pair[0] <= 0)


def test_operations_match_fraction_pair_arithmetic():
    rng = random.Random(1997)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for _ in range(3000):
        p, q = _rand_pair(rng), _rand_pair(rng)
        a = gr(*p)
        _assert_is(a, p)
        _assert_is(-a, (-p[0], -p[1]))
        _assert_is(a.conjugate(), (p[0], -p[1]))
        b = _as_operand(rng, q)
        for op in ops:
            # the Gaussian operand on either side, the other of any type
            for lhs, rhs, pl, pr in ((a, b, p, q), (b, a, q, p)):
                if op is operator.truediv and pr == (0, 0):
                    with pytest.raises(ZeroDivisionError):
                        op(lhs, rhs)
                    continue
                _assert_is(op(lhs, rhs), _ref(op, pl, pr))
        assert (a == b) == (p == q) and (b == a) == (p == q)
        assert (a != b) == (p != q)
        # the same value reached by another route is equal and hashes alike
        c = (a * b) / b if q != (0, 0) else a + b - b
        assert c == a and hash(c) == hash(a)
        if p[1] == 0:
            assert a == p[0] and hash(a) == hash(p[0])
    for name in ("re", "im", "_t", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, F(1))
    with pytest.raises(AttributeError):
        del a.re
    # immutable, yet copied and pickled by value
    for v in (a, gr(F(-3, 4), 5)):
        assert copy.deepcopy(v) == v and pickle.loads(pickle.dumps(v)) == v


def test_coeff_2f1():
    assert coeff_2f1(gr(7), gr(-3), gr(2), 0) == gr(1)
    assert coeff_2f1(gr(-1), gr(5), gr(2), 2).is_zero()
    assert coeff_2f1(gr(1), gr(1), gr(2), 3) == gr(F(1, 4))
    with pytest.raises(PoleError):
        coeff_2f1(gr(1), gr(1), gr(-2), 3)


def test_mult_2f1_exact_polynomial_case():
    # a = a' = -1, b = b' = 1, c = c' = 1: both sides are (1-z)^2
    ok, k = verify_mult_2f1_exact(gr(-1), gr(1), gr(1), gr(-1), gr(1), gr(1), K=4)
    assert ok and k is None


def test_mult_2f1_exact_rational_set():
    ok, _ = verify_mult_2f1_exact(gr(F(1, 2)), gr(F(1, 3)), gr(F(5, 4)),
                                  gr(F(2, 3)), gr(F(3, 5)), gr(F(7, 6)), K=8)
    assert ok


def test_mult_2f1_exact_gaussian_set():
    ok, _ = verify_mult_2f1_exact(gr(F(1, 2), F(1, 3)), gr(F(1, 3), F(-1, 4)),
                                  gr(F(5, 4)), gr(F(2, 3), F(-1, 3)),
                                  gr(F(3, 5), F(1, 4)), gr(F(7, 6)), K=8)
    assert ok


def test_mult_2f1_exact_guards():
    with pytest.raises(PoleError):
        verify_mult_2f1_exact(gr(1), gr(1), gr(-1), gr(1), gr(1), gr(2), K=3)
    # a + a' = -1 with a = 1/2, a' = -3/2 (not both nonpositive integers)
    with pytest.raises(ParamError):
        verify_mult_2f1_exact(gr(F(1, 2)), gr(1), gr(2), gr(F(-3, 2)), gr(1),
                              gr(2), K=3)


@pytest.mark.parametrize("bad", ["abc", "1/0", "", "1/2/3"])
def test_malformed_exact_string_is_param_error(bad):
    # Fraction raised ValueError or ZeroDivisionError, outside QKLError
    for call in (lambda: gr(bad), lambda: gr(1, bad),
                 lambda: verify_hahn_exact(bad, 1, 2, 2, 1, 1, 0)):
        with pytest.raises(ParamError) as info:
            call()
        assert repr(bad) in str(info.value)


def test_mult_2f1_exact_negative_order_is_refused():
    # K = -1 compares no coefficient, so a verdict would prove nothing
    args = (gr(F(1, 2)), gr(F(1, 3)), gr(F(5, 4)),
            gr(F(2, 3)), gr(F(3, 5)), gr(F(7, 6)))
    with pytest.raises(ParamError):
        verify_mult_2f1_exact(*args, K=-1)
    assert verify_mult_2f1_exact(*args, K=0) == (True, None)
    with pytest.raises(ParamError):
        exact_case("mult_2f1", 0, -1)


def test_exact_comparison_has_teeth():
    # mismatched parameter sets produce genuinely different coefficients
    from qkl.exact import GR_ZERO

    k = 2
    lhs = GR_ZERO
    wrong = GR_ZERO
    for i in range(k + 1):
        left = coeff_2f1(gr(F(1, 2)), gr(F(1, 3)), gr(F(5, 4)), i)
        lhs = lhs + left * coeff_2f1(gr(F(2, 3)), gr(F(3, 5)), gr(F(7, 6)), k - i)
        wrong = wrong + left * coeff_2f1(gr(F(2, 3)), gr(F(3, 5)), gr(F(13, 6)), k - i)
    assert lhs != wrong


def test_exact_case_draws_and_verdicts():
    # each route's draw is a function of (identity, seed) alone, and its
    # verdict callable returns report fields
    assert list(EXACT_ROUTES) == ["mult_2f1", "hahn_bilinear_discrete"]
    vals, verdict = exact_case("mult_2f1", 2, 4)
    assert exact_case("mult_2f1", 2, 4)[0] == vals
    assert set(vals) == {"a", "b", "c", "a2", "b2", "c2"}
    assert vals["a"].im != 0 and vals["b2"].im != 0   # every third seed is Gaussian
    assert verdict() == {"passed": True}
    vals, verdict = exact_case("hahn_bilinear_discrete", 0, 8)
    assert list(vals) == ["alpha", "beta", "M", "N", "z"]
    assert verdict() == {"passed": True}
    with pytest.raises(ParamError, match="not mp_poisson"):
        exact_case("mp_poisson", 0, 8)


def test_mult_2f1_verdict_names_the_first_failing_k(monkeypatch):
    # the verdict is its verifier's: a failing comparison reports its k
    vals, verdict = exact_case("mult_2f1", 0, 8)
    monkeypatch.setattr(exact, "verify_mult_2f1_exact", lambda **kwargs: (False, 3))
    assert verdict() == {"passed": False, "first_failing_k": 3}


def test_hahn_exact_trivial():
    assert verify_hahn_exact(gr(F(1, 2)), gr(F(1, 3)), 4, 5, 2, 3, gr(0))
    assert verify_hahn_exact(gr(F(1, 2)), gr(F(1, 3)), 4, 5, 0, 0, gr(F(2, 7)))


def test_hahn_exact_spec_set_full_lattice():
    for x in range(5):
        for y in range(6):
            assert verify_hahn_exact(gr(F(1, 2)), gr(F(1, 3)), 4, 5, x, y,
                                     gr(F(2, 7)))


def test_hahn_exact_guards():
    with pytest.raises(ParamError):
        verify_hahn_exact(gr(F(1, 2)), gr(F(1, 3)), 4, 5, 7, 0, gr(1))
    with pytest.raises(PoleError):
        verify_hahn_exact(gr(F(1, 2)), gr(-3), 4, 5, 1, 1, gr(1))


def test_float_exact_agreement():
    # at an exactly-verified parameter set the floating residual is < 1e-12
    rep = run_case(IdentityCase("mult_2f1",
                                {"a": 0.5, "b": 1 / 3, "c": 1.25, "a2": 2 / 3,
                                 "b2": 0.6, "c2": 7 / 6, "z": 0.1}))
    assert rep.rel_err < 1e-12


def test_exact_is_deterministic():
    args = (gr(F(1, 2)), gr(F(1, 3)), gr(F(5, 4)),
            gr(F(2, 3)), gr(F(3, 5)), gr(F(7, 6)))
    assert verify_mult_2f1_exact(*args, K=6) == verify_mult_2f1_exact(*args, K=6)


def _pfq_ref(upper, lower, z, nmax):
    """Reference terminating pFq(upper; lower; z) through z^nmax, term by
    term in GaussianRational operators; a vanishing numerator ends the sum
    before any denominator zero is touched."""
    total = term = GR_ONE
    for m in range(nmax):
        num = z
        for u in upper:
            num = num * (u + m)
        if num.is_zero():
            break
        den = gr(m + 1)
        for v in lower:
            den = den * (v + m)
        if den.is_zero():
            raise PoleError("lower-parameter pole inside the summation range")
        term = term * num / den
        total = total + term
    return total


def _poch_ref(a, n):
    out = GR_ONE
    for m in range(n):
        out = out * (a + m)
    return out


def _mult_2f1_per_k(a, b, c, a2, b2, c2, K):
    """Reference: the multiplication formula checked coefficient by
    coefficient, every Taylor coefficient, C_j and 3F2 factor recomputed for
    each k (the guards are those of ``verify_mult_2f1_exact``)."""
    a, b, c, a2, b2, c2 = (GaussianRational.of(v) for v in (a, b, c, a2, b2, c2))
    for v in (c, c2):
        if v.is_nonpositive_integer():
            raise PoleError("c or c' is a nonpositive integer")
    for u, u2 in ((a, a2), (b, b2)):
        if (u + u2).is_nonpositive_integer():
            if not (u.is_nonpositive_integer() and u2.is_nonpositive_integer()):
                raise ParamError("sum is a nonpositive integer")
    A, B = a + a2, b + b2
    for k in range(K + 1):
        lhs = GR_ZERO
        for i in range(k + 1):
            lhs = lhs + coeff_2f1(a, b, c, i) * coeff_2f1(a2, b2, c2, k - i)
        rhs = GR_ZERO
        for j in range(k + 1):
            cden = _poch_ref(c2, j) * _poch_ref(c + c2 + j - 1, j)
            if cden.is_zero():
                raise PoleError("C_j prefactor pole")
            cj = (_poch_ref(c, j) * _poch_ref(A, j) * _poch_ref(B, j)
                  / (cden * math.factorial(j)))
            if not cj.is_zero():
                cj = cj * _pfq_ref([gr(-j), a, c + c2 + j - 1], [A, c], GR_ONE, j)
                cj = cj * _pfq_ref([gr(-j), b, c + c2 + j - 1], [B, c], GR_ONE, j)
            if not cj.is_zero():
                rhs = rhs + cj * coeff_2f1(A + j, B + j, c + c2 + 2 * j, k - j)
        if lhs != rhs:
            return False, k
    return True, None


def _outcome(fn, args, K):
    try:
        return fn(*args, K=K)
    except (PoleError, ParamError) as exc:
        return type(exc)


def test_mult_2f1_exact_matches_per_k_formula():
    # c and c' are halves, so c + c' + j - 1 and c + c' + 2j often meet the
    # nonpositive integers: poles inside the sum, beside the guarded ones
    rng = random.Random(2024)

    def rat(lo, hi):
        den = rng.choice((1, 2, 2, 3))
        return F(rng.randint(lo * den, hi * den), den)

    seen = set()
    for _ in range(100):
        args = [gr(rat(-2, 2)), gr(rat(-2, 2)), gr(F(rng.randint(-3, 6), 2)),
                gr(rat(-2, 2)), gr(rat(-2, 2)), gr(F(rng.randint(-3, 6), 2))]
        if rng.random() < 0.4:
            for i in rng.sample(range(6), 2):
                args[i] = args[i] + gr(0, rat(-1, 1))
        K = rng.randint(2, 8)
        got = _outcome(verify_mult_2f1_exact, args, K)
        assert got == _outcome(_mult_2f1_per_k, args, K), (args, K)
        if got is PoleError and not (args[2].is_nonpositive_integer()
                                     or args[5].is_nonpositive_integer()):
            got = "pole inside the sum"
        seen.add(got if not isinstance(got, tuple) else got[0])
    assert seen == {True, PoleError, ParamError, "pole inside the sum"}


def _hahn_per_j(alpha, beta, M, N, x, y, z):
    """Reference: the discrete Hahn theorem in GaussianRational operators,
    every Pochhammer product recomputed for each j; the poles of all j are
    checked first, in the order of ``verify_hahn_exact``."""
    alpha, beta, z = (GaussianRational.of(v) for v in (alpha, beta, z))
    jmax = min(M, N)
    for j in range(jmax + 1):
        if (_poch_ref(beta + 1, j).is_zero()
                or _poch_ref(alpha + beta + j + 1, j).is_zero()):
            raise PoleError("Pochhammer pole in the coefficient")
        if _poch_ref(alpha + 1, j).is_zero():
            raise PoleError("(alpha+1)_j pole inside Hahn polynomial range")
    lhs, zj = GR_ZERO, GR_ONE
    for j in range(jmax + 1):
        coef = (_poch_ref(alpha + 1, j) * _poch_ref(gr(-M), j) * _poch_ref(gr(-N), j)
                / (math.factorial(j) * _poch_ref(beta + 1, j)
                   * _poch_ref(alpha + beta + j + 1, j)))
        hx = _pfq_ref([gr(-j), alpha + beta + j + 1, gr(-x)], [alpha + 1, gr(-M)], GR_ONE, j)
        hy = _pfq_ref([gr(-j), alpha + beta + j + 1, gr(-y)], [alpha + 1, gr(-N)], GR_ONE, j)
        f = _pfq_ref([gr(j - M), gr(j - N)], [alpha + beta + 2 * j + 2], z, jmax - j)
        lhs = lhs + hx * hy * coef * f * zj
        zj = zj * z
    rhs = (_pfq_ref([gr(-x), gr(-y)], [alpha + 1], z, min(x, y))
           * _pfq_ref([gr(x - M), gr(y - N)], [beta + 1], z, min(M - x, N - y)))
    return lhs == rhs


def _hahn_outcome(fn, args):
    try:
        return fn(*args)
    except (PoleError, ParamError) as exc:
        return type(exc), str(exc)


def test_hahn_exact_matches_per_j_formula():
    # alpha and beta are halves, often negative: alpha + beta is then an
    # integer, so (alpha+beta+j+1)_j meets zero, and a negative integer alpha
    # puts a zero of (alpha+1)_j inside the range
    rng = random.Random(1997)
    seen = set()
    for _ in range(100):
        M, N = rng.randint(1, 6), rng.randint(1, 6)
        alpha, beta = F(rng.randint(-9, 6), 2), F(rng.randint(-9, 6), 2)
        if rng.random() < 0.2:
            alpha = gr(alpha, F(rng.randint(-3, 3), 4))
        z = gr(F(rng.randint(-8, 8), rng.randint(1, 5)),
               F(rng.randint(-2, 2), 3) if rng.random() < 0.3 else 0)
        args = (alpha, beta, M, N, rng.randint(0, M), rng.randint(0, N), z)
        got = _hahn_outcome(verify_hahn_exact, args)
        # the same pole is met first: the same message
        assert got == _hahn_outcome(_hahn_per_j, args), args
        seen.add(got)
    assert seen == {True, (PoleError, "Pochhammer pole in the coefficient"),
                    (PoleError, "(alpha+1)_j pole inside Hahn polynomial range")}


def test_non_integer_orders_and_lattice_points_are_refused():
    args = (gr(F(1, 2)), gr(F(1, 3)), gr(F(5, 4)),
            gr(F(2, 3)), gr(F(3, 5)), gr(F(7, 6)))
    for K in (2.5, 2.0, F(2), "2"):
        with pytest.raises(ParamError, match="K must be an int"):
            verify_mult_2f1_exact(*args, K=K)
        with pytest.raises(ParamError, match="K must be an int"):
            exact_case("mult_2f1", 0, K)
    good = dict(alpha=gr(F(1, 2)), beta=gr(F(1, 3)), M=4, N=5, x=2, y=3, z=gr(F(2, 7)))
    assert verify_hahn_exact(**good)
    for name in ("M", "N", "x", "y"):
        for bad in (float(good[name]), F(good[name]), str(good[name])):
            with pytest.raises(ParamError, match=f"{name} must be an int"):
                verify_hahn_exact(**{**good, name: bad})
