"""Exact rational verification over the Gaussian rationals."""
import random
from fractions import Fraction as F

import pytest

from qkl.errors import ParamError, PoleError
from qkl.exact import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    _pfq_exact,
    coeff_2f1,
    factorial_exact,
    gr,
    poch_exact,
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
            cden = poch_exact(c2, j) * poch_exact(c + c2 + j - 1, j)
            if cden.is_zero():
                raise PoleError("C_j prefactor pole")
            cj = (poch_exact(c, j) * poch_exact(A, j) * poch_exact(B, j)
                  / (cden * factorial_exact(j)))
            if not cj.is_zero():
                cj = cj * _pfq_exact([gr(-j), a, c + c2 + j - 1], [A, c], GR_ONE, j)
                cj = cj * _pfq_exact([gr(-j), b, c + c2 + j - 1], [B, c], GR_ONE, j)
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
