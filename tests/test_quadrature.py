"""Orthonormality checks: printed weights and trapezoid-rule Gram matrices."""
import math
import random
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from qkl.errors import ConvergenceError, ParamError, RangeError
from qkl.polys import ASCParams, AWParams
from qkl.quadrature import _mp_support, _trapezoid, aw_weight, mp_weight, ortho_gram
from qkl.series import log_abs_gamma


def test_mp_weight_closed_point():
    w = mp_weight(1.0, math.pi / 2, 0.0)
    assert type(w) is float
    assert abs(w - 2 / math.pi) < 1e-15


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


def _mp_weight_ref(k, phi, x):
    """The weight of ``mp_weight`` at one float x, with log |Gamma(k + ix)|
    from the scalar ``log_abs_gamma`` (mpmath's loggamma at 53 bits), not
    from the Lanczos array that ``mp_weight`` runs on."""
    logw = (2 * k * math.log(2 * math.sin(phi)) - math.log(2 * math.pi)
            + (2 * phi - math.pi) * x + 2 * log_abs_gamma(complex(k, x)))
    return 0.0 if logw < -745.0 else math.exp(logw)


def test_mp_weight_on_node_array():
    # one call on an array of nodes agrees with the mpmath reference, node
    # by node, and underflows to 0.0 at the same nodes; k < 1/2 takes the
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
        want = [_mp_weight_ref(k, phi, float(x)) for x in xs]
        assert got[-2] == got[-1] == want[-2] == want[-1] == 0.0
        for x, g, w in zip(xs, got, want):
            assert (g == 0.0) == (w == 0.0), (k, phi, x)
            assert abs(g - w) <= 1e-13 * max(1.0, abs(w)), (k, phi, x)


def _mp_support_scalar_walk(k, phi, nmax):
    """The support search one reference weight at a time: peak on the grid
    -8, -7.5, ..., 8, then steps of 2 outward from +-8 until the enveloped
    weight is below 1e-18 of the peak, or +-400 is reached."""
    peak = max(_mp_weight_ref(k, phi, float(x)) for x in np.arange(-8.0, 8.0001, 0.5))

    def envelope(x):
        return _mp_weight_ref(k, phi, x) * (1 + x * x) ** (nmax + 1)

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
    # tol = 1e-30 is below rounding: the levels keep halving the step until
    # the next grid would pass the node cap
    with pytest.raises(ConvergenceError):
        ortho_gram("mp", {"k": 0.8, "phi": 1.1}, nmax=1, tol=1e-30)
    with pytest.raises(ConvergenceError):
        ortho_gram("asc", {"q": 0.5, "a": 0.4, "b": 0.3}, nmax=1, tol=1e-30)


@pytest.mark.parametrize("g, a, b, want", [
    # the Gaussian, below 4e-44 at both ends
    (lambda x: np.exp(-x * x), -10.0, 10.0, math.sqrt(math.pi)),
    # sin^2 t e^(cos t): even and 2 pi-periodic, zero at both ends; its
    # integral is pi I_1(1)
    (lambda t: np.sin(t) ** 2 * np.exp(np.cos(t)), 0.0, math.pi,
     math.pi * float(mp.besseli(1, 1)))], ids=["gaussian", "periodic"])
def test_trapezoid_one_integrand_call_per_level(g, a, b, want):
    calls = []

    def f(xs):
        calls.append(xs)
        return g(xs).sum(axis=-1)

    value, err, n_eval = _trapezoid(f, a, b, 1e-13)
    assert abs(value - want) <= 1e-13
    assert 0 <= err <= 1e-13
    # the first call takes the 15 interior nodes of 16 intervals; each later
    # call the midpoints of the grid so far, and nothing else
    assert np.allclose(calls[0], np.linspace(a, b, 17)[1:-1], rtol=0, atol=1e-14)
    for i in range(1, len(calls)):
        grid = np.sort(np.concatenate([[a, b], *calls[:i]]))
        assert np.allclose(np.sort(calls[i]), 0.5 * (grid[:-1] + grid[1:]),
                           rtol=0, atol=1e-14)
    assert len(calls) > 1
    assert n_eval == sum(len(xs) for xs in calls)


def _mp_oracle(k, phi, nmax):
    """Gram entries of the orthonormal Meixner-Pollaczek family by mpmath.quad,
    in the working precision: P_n = (2k)_n / n! e^(i n phi)
    2F1(-n, k + i x; 2k; 1 - e^(-2 i phi)), normalised by n! / Gamma(n + 2k)
    (Koekoek-Lesky-Swarttouw 9.7)."""
    k, phi = mp.mpf(k), mp.mpf(phi)
    z = 1 - mp.expj(-2 * phi)
    norm = (2 * mp.sin(phi)) ** (2 * k) / (2 * mp.pi)
    scale = [mp.rf(2 * k, n) / mp.factorial(n) * mp.expj(n * phi)
             * mp.sqrt(mp.factorial(n) / mp.gamma(n + 2 * k)) for n in range(nmax + 1)]

    @lru_cache(maxsize=None)
    def table(x):
        w = norm * mp.exp((2 * phi - mp.pi) * x) * abs(mp.gamma(k + 1j * x)) ** 2
        ps = []
        for n in range(nmax + 1):
            t, s = mp.mpf(1), mp.mpf(0)
            for j in range(n + 1):
                s += t
                t *= (j - n) * (k + 1j * x + j) / ((2 * k + j) * (j + 1)) * z
            ps.append(mp.re(scale[n] * s))
        return w, ps

    def entry(m, n):
        def f(x):
            w, p = table(x)
            return w * p[m] * p[n]

        return mp.quad(f, [-mp.inf, 0, mp.inf])
    return entry


def _asc_oracle(q, a, b, nmax):
    """Gram entries of the orthonormal Al-Salam-Chihara family by mpmath.quad
    over theta, in the working precision: Q_n = (ab; q)_n a^(-n)
    3phi2(q^-n, a e^(i theta), a e^(-i theta); ab, 0; q, q), normalised by
    (q, ab; q)_n (Koekoek-Lesky-Swarttouw 14.8), and every infinite product
    by Euler's series (z; q)_inf = sum_n q^(n(n-1)/2) (-z)^n / (q; q)_n."""
    q, a, b = mp.mpf(q), mp.mpc(a), mp.mpc(b)
    with mp.extradps(20):
        coeffs = [mp.mpf(1)]
        while coeffs[-1] > mp.mpf(10) ** -(mp.mp.dps + 5):
            n = len(coeffs)
            coeffs.append(coeffs[-1] * q ** (n - 1) / (1 - q ** n))
        coeffs.reverse()

        def qp_inf(z):
            return mp.polyval(coeffs, -z)

        const = mp.re(qp_inf(q) * qp_inf(a * b)) / (2 * mp.pi)
    scale = [1 / (a ** n * mp.sqrt(mp.re(mp.qp(q, q, n) / mp.qp(a * b, q, n))))
             for n in range(nmax + 1)]

    @lru_cache(maxsize=None)
    def table(th):
        e = mp.expj(th)
        with mp.extradps(20):
            w = (abs(qp_inf(e * e)) ** 2
                 / mp.re(qp_inf(a * e) * qp_inf(a / e) * qp_inf(b * e) * qp_inf(b / e)))
        rs = []
        for n in range(nmax + 1):
            t, s = mp.mpf(1), mp.mpf(0)
            for j in range(n + 1):
                s += t
                t *= ((1 - q ** (j - n)) * (1 - a * e * q ** j) * (1 - a / e * q ** j)
                      / ((1 - a * b * q ** j) * (1 - q ** (j + 1))) * q)
            rs.append(mp.re(scale[n] * s))
        return const * w, rs

    # split at the peak of the weight, theta = arg a, for a conjugate pair
    peak = abs(mp.arg(a)) or mp.pi / 2

    def entry(m, n):
        def f(th):
            w, r = table(th)
            return w * r[m] * r[n]

        return mp.quad(f, [0, peak, mp.pi])
    return entry


@pytest.mark.parametrize("family, params", [
    ("mp", {"k": 0.1, "phi": 0.15}),
    ("mp", {"k": 0.3, "phi": math.pi - 0.15}),
    ("asc", {"q": 0.9, "a": 0.9, "b": -0.5}),
    ("asc", {"q": 0.9, "a": 0.9 * complex(math.cos(1.0), math.sin(1.0)),
             "b": 0.9 * complex(math.cos(1.0), -math.sin(1.0))})])
def test_gram_entries_match_mpmath_quad(family, params):
    # near the edges of the parameter ranges: a weight peaked to width k or
    # 1 - |a|, and for MP a tail decaying like e^(-2 phi |x|)
    tol, nmax = 1e-10, 4
    res = ortho_gram(family, params, nmax=nmax, tol=tol)
    with mp.workdps(30):
        entry = (_mp_oracle(params["k"], params["phi"], nmax) if family == "mp"
                 else _asc_oracle(params["q"], params["a"], params["b"], nmax))
        for m, n in ((0, 0), (1, 3), (4, 4)):
            assert abs(res.value[m][n] - float(entry(m, n))) <= tol, (m, n)


def test_gram_guards():
    with pytest.raises(ParamError):
        ortho_gram("asc", {"q": 0.5, "a": 1.2, "b": 0.3})
    with pytest.raises(ParamError):
        ortho_gram("mp", {"k": 0.8, "phi": 1.1}, nmax=13)
    with pytest.raises(ParamError):
        ortho_gram("mp", {"k": 0.8, "phi": 1.1}, nmax=-1)
    with pytest.raises(ParamError):
        ortho_gram("nope", {})
