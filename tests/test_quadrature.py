"""Orthonormality checks: printed weights and adaptive Gram matrices."""
import math
import random

import mpmath as mp
import numpy as np
import pytest

from qkl.errors import ConvergenceError, ParamError, RangeError
from qkl.polys import ASCParams, AWParams
from qkl.quadrature import _adaptive, _mp_support, aw_weight, mp_weight, ortho_gram


def test_mp_weight_closed_point():
    assert abs(mp_weight(1.0, math.pi / 2, 0.0) - 2 / math.pi) < 1e-15


def test_mp_weight_positivity():
    rng = random.Random(4)
    for _ in range(100):
        k = rng.uniform(0.2, 3.0)
        phi = rng.uniform(0.2, math.pi - 0.2)
        x = rng.uniform(-20, 20)
        assert mp_weight(k, phi, x) > 0


def test_mp_weight_k1_identity():
    # |Gamma(1+ix)|^2 = pi x / sinh(pi x)
    for phi, x in ((1.1, 0.7), (2.5, -1.3), (0.4, 3.0)):
        ref = ((2 * math.sin(phi)) ** 2 / (2 * math.pi)
               * math.exp((2 * phi - math.pi) * x)
               * math.pi * x / math.sinh(math.pi * x))
        assert abs(mp_weight(1.0, phi, x) - ref) <= 1e-12 * ref


def test_mp_weight_on_node_array():
    # one call on an array of nodes agrees with the scalar calls, node by
    # node, and underflows to 0.0 at the same nodes; k < 1/2 takes the
    # reflection of log |Gamma|
    rng = random.Random(8)
    for _ in range(12):
        k = rng.choice([rng.uniform(0.2, 0.49), rng.uniform(0.5, 3.0)])
        phi = rng.uniform(0.2, math.pi - 0.2)
        # the log weight is about |2 phi - pi| |x| - pi |x| <= -0.4 |x|,
        # below the -745 where it is returned as 0.0 at |x| = 3000
        xs = np.array([rng.uniform(-40, 40) for _ in range(40)] + [-3000.0, 3000.0])
        got = mp_weight(k, phi, xs)
        assert got.shape == xs.shape
        want = [mp_weight(k, phi, float(x)) for x in xs]
        assert got[-2] == got[-1] == want[-2] == want[-1] == 0.0
        for x, g, w in zip(xs, got, want):
            assert (g == 0.0) == (w == 0.0), (k, phi, x)
            assert abs(g - w) <= 1e-13 * max(1.0, abs(w)), (k, phi, x)


def _mp_support_scalar_walk(k, phi, nmax):
    """The support search one scalar weight at a time: peak on the grid
    -8, -7.5, ..., 8, then steps of 2 outward from +-8 until the enveloped
    weight is below 1e-18 of the peak, or +-400 is reached."""
    peak = max(mp_weight(k, phi, float(x)) for x in np.arange(-8.0, 8.0001, 0.5))

    def envelope(x):
        return mp_weight(k, phi, x) * (1 + x * x) ** (nmax + 1)

    lo = -8.0
    while envelope(lo) > 1e-18 * peak and lo > -400:
        lo -= 2.0
    hi = 8.0
    while envelope(hi) > 1e-18 * peak and hi < 400:
        hi += 2.0
    return lo, hi


def test_mp_support_matches_scalar_walk():
    rng = random.Random(21)
    for _ in range(24):
        k, phi = rng.uniform(0.2, 3.0), rng.uniform(0.15, math.pi - 0.15)
        nmax = rng.randrange(13)
        assert _mp_support(k, phi, nmax) == _mp_support_scalar_walk(k, phi, nmax), (k, phi, nmax)


def _aw_weight_brute_force(q, params, x):
    """The weight as the h(x, alpha) products of its definition, 220 factors
    each, at 40 digits."""
    with mp.workdps(40):
        th = mp.acos(mp.mpf(x))
        qq = mp.mpf(q)

        def h(alpha):
            r = mp.mpf(1)
            for m in range(220):
                r *= ((1 - alpha * mp.exp(1j * th) * qq ** m)
                      * (1 - alpha * mp.exp(-1j * th) * qq ** m))
            return r

        num = h(1) * h(-1) * h(mp.sqrt(qq)) * h(-mp.sqrt(qq))
        for p_ in params:
            if p_ != 0:
                num /= h(mp.mpc(p_))
        return float(mp.re(num))


# the double next below 1 (theta = 1.5e-8); the Al-Salam-Chihara integration
# endpoint theta = 1e-13 itself has cos theta == 1.0, outside the domain
_X_NEAR_ONE = math.nextafter(1.0, 0.0)


def test_aw_weight_brute_force():
    # a real pair, a conjugate pair, four parameters, and the nodes next to
    # x = +-1, where the numerator vanishes
    for params, x in ((ASCParams(0.5, 0.4, 0.3), 0.2),
                      (ASCParams(0.7, 0.3 + 0.4j, 0.3 - 0.4j), -0.45),
                      (AWParams(0.5, 0.4, 0.3, -0.2, 0.1), 0.2),
                      (AWParams(0.3, 0.6 + 0.2j, 0.6 - 0.2j, -0.7, 0.5), 0.83),
                      (ASCParams(0.5, 0.4, 0.3), _X_NEAR_ONE),
                      (ASCParams(0.7, -0.8, 0.6), -_X_NEAR_ONE)):
        if isinstance(params, ASCParams):
            slots = (params.a, params.b)
        else:
            slots = (params.a, params.b, params.c, params.d)
        ref = _aw_weight_brute_force(params.q, slots, x)
        assert abs(aw_weight(params, x) - ref) <= 1e-13 * abs(ref), (params, x)


def test_aw_weight_on_node_array():
    # one call on an array of nodes equals the scalar calls, node by node
    xs = np.cos(np.linspace(0.01, math.pi - 0.01, 15))
    for params in (ASCParams(0.5, 0.4, 0.3), ASCParams(0.7, 0.3 + 0.4j, 0.3 - 0.4j),
                   AWParams(0.5, 0.4, 0.3, -0.2, 0.1)):
        got = aw_weight(params, xs)
        assert got.shape == xs.shape
        assert list(got) == [aw_weight(params, float(x)) for x in xs]


def test_aw_weight_depends_on_x_only():
    # built from e^{+-i theta} pairs, so even in theta
    w1 = aw_weight(ASCParams(0.5, 0.4, 0.3), 0.37)
    w2 = aw_weight(ASCParams(0.5, 0.4, 0.3), 0.37)
    assert w1 == w2
    assert aw_weight(ASCParams(0.5, 0.0, 0.0), 0.2) > 0  # denominator 1


def test_aw_weight_four_parameters():
    v2 = aw_weight(ASCParams(0.5, 0.4, 0.3), 0.2)
    v4 = aw_weight(AWParams(0.5, 0.4, 0.3, 0.0, 0.0), 0.2)
    assert abs(v2 - v4) < 1e-15
    v = aw_weight(AWParams(0.5, 0.4, 0.3, -0.2, 0.1), 0.2)
    assert v > 0


def test_aw_weight_range():
    with pytest.raises(RangeError):
        aw_weight(ASCParams(0.5, 0.4, 0.3), 1.0)
    with pytest.raises(RangeError):
        aw_weight(ASCParams(0.5, 0.4, 0.3), np.array([0.2, -1.0, 0.5]))


def test_mp_gram_identity():
    res = ortho_gram("mp", {"k": 0.8, "phi": 1.1}, nmax=8, tol=1e-9)
    dev = np.abs(res.value - np.eye(9)).max()
    assert dev < 1e-7
    assert res.value[0][0] == pytest.approx(1.0, abs=1e-9)
    assert abs(res.value[0][1]) < 1e-9
    assert res.error_estimate >= 0
    assert res.evaluations > 0


def test_asc_gram_identity():
    res = ortho_gram("asc", {"q": 0.5, "a": 0.4, "b": 0.3}, nmax=8, tol=1e-9)
    assert np.abs(res.value - np.eye(9)).max() < 1e-7


def test_asc_gram_conjugate_pair():
    res = ortho_gram("asc", {"q": 0.5, "a": 0.3 + 0.4j, "b": 0.3 - 0.4j},
                     nmax=6, tol=1e-9)
    assert np.abs(res.value - np.eye(7)).max() < 1e-7


def test_gram_tolerance_refinement():
    # a tighter tolerance changes entries by less than the looser estimate
    loose = ortho_gram("mp", {"k": 1.4, "phi": 0.7}, nmax=4, tol=1e-6)
    tight = ortho_gram("mp", {"k": 1.4, "phi": 0.7}, nmax=4, tol=1e-10)
    assert np.abs(loose.value - tight.value).max() <= max(loose.error_estimate, 1e-12)


@pytest.mark.parametrize("family, params", [
    ("mp", {"k": 0.4, "phi": 2.6}), ("mp", {"k": 2.2, "phi": 0.5}),
    ("asc", {"q": 0.7, "a": 0.6, "b": -0.5}), ("asc", {"q": 0.3, "a": 0.5 + 0.3j, "b": 0.5 - 0.3j})])
def test_gram_error_estimate_within_tolerance(family, params):
    res = ortho_gram(family, params, nmax=8, tol=1e-9)
    assert 0 <= res.error_estimate <= 1e-9
    assert np.abs(res.value - np.eye(9)).max() <= 1e-9


def test_gram_panel_cap_raises():
    # tol = 1e-30 is below rounding: every round splits until the panels
    # would pass the cap
    with pytest.raises(ConvergenceError):
        ortho_gram("mp", {"k": 0.8, "phi": 1.1}, nmax=1, tol=1e-30)
    with pytest.raises(ConvergenceError):
        ortho_gram("asc", {"q": 0.5, "a": 0.4, "b": 0.3}, nmax=1, tol=1e-30)


def test_adaptive_one_integrand_call_per_round():
    # a vector integrand with known integrals; every call takes the 15 nodes
    # of whole panels, the first call those of all the initial panels
    sizes = []

    def f(xs):
        sizes.append(len(xs))
        return np.stack([np.ones_like(xs), xs * xs, np.exp(xs), np.sqrt(xs)], axis=1)

    value, err, n_eval = _adaptive(f, 0.0, 1.0, 1e-12, initial_panels=3)
    want = [1.0, 1 / 3, math.e - 1, 2 / 3]
    assert np.abs(value - want).max() <= 1e-12
    assert err <= 1e-12
    assert sizes[0] == 45
    assert all(n % 15 == 0 for n in sizes)
    assert sum(sizes) == n_eval
    assert len(sizes) > 1


def test_gram_guards():
    with pytest.raises(ParamError):
        ortho_gram("asc", {"q": 0.5, "a": 1.2, "b": 0.3})
    with pytest.raises(ParamError):
        ortho_gram("mp", {"k": 0.8, "phi": 1.1}, nmax=13)
    with pytest.raises(ParamError):
        ortho_gram("mp", {"k": 0.8, "phi": 1.1}, nmax=-1)
    with pytest.raises(ParamError):
        ortho_gram("nope", {})
