"""Polynomial families: definitions, recurrences, and structural invariants."""
import cmath
import math
import random
from itertools import islice

import pytest

from qkl.errors import DegreeError, DomainError, ParamError, RealityError
from qkl.identities import sample_params
from qkl.numerics import EXTENDED, extended_context
from qkl.polys import (
    ASCParams,
    AWParams,
    CHahnParams,
    HahnParams,
    MPParams,
    _sj_ac_params,
    asc_orthonormal_stream,
    asc_poly,
    aw_poly,
    aw_stream,
    chahn_poly,
    hahn_poly,
    jacobi_poly,
    mp_orthonormal_stream,
    mp_poly,
    mp_poly_rec,
    sj_ac,
    sj_ac_stream,
    sj_mp,
)


def test_param_validation():
    with pytest.raises(ParamError):
        MPParams(-1.0, 1.0)
    with pytest.raises(ParamError):
        MPParams(1.0, 3.5)
    with pytest.raises(ParamError):
        ASCParams(1.5, 0.3, 0.2)


# ---------------------------------------------------------------- MP

def test_mp_trivial():
    p = MPParams(0.9, 1.3)
    assert mp_poly(p, 0, 0.7) == 1.0
    # n = 1 closed form 2(k cos phi + x sin phi)
    for k, phi, x in ((0.8, 1.1, 0.4), (2.3, 0.4, -3.0), (0.3, 2.8, 1.7)):
        got = mp_poly(MPParams(k, phi), 1, x)
        ref = 2 * (k * math.cos(phi) + x * math.sin(phi))
        assert abs(got - ref) < 1e-13 * max(1.0, abs(ref))


def test_mp_definition_vs_recurrence():
    rng = random.Random(1)
    for _ in range(6):
        p = MPParams(rng.uniform(0.25, 3.0), rng.uniform(0.3, math.pi - 0.3))
        x = rng.uniform(-4, 4)
        for n in (0, 1, 2, 7, 18, 30):
            d = mp_poly(p, n, x, orthonormal=True)
            r = mp_poly_rec(p, n, x)
            assert abs(d - r) <= 1e-11 * max(1.0, abs(r))


def test_mp_three_term_residual():
    rng = random.Random(2)
    for _ in range(5):
        k = rng.uniform(0.25, 2.5)
        phi = rng.uniform(0.3, math.pi - 0.3)
        y = rng.uniform(-4, 4)
        p = MPParams(k, phi)
        vals = [mp_poly(p, n, y, orthonormal=True) for n in range(32)]
        for n in range(1, 30):
            a_n = math.sqrt((n + 1) * (n + 2 * k))
            a_nm1 = math.sqrt(n * (n - 1 + 2 * k))
            lhs = 2 * y * math.sin(phi) * vals[n]
            rhs = (a_n * vals[n + 1] - 2 * (n + k) * math.cos(phi) * vals[n]
                   + a_nm1 * vals[n - 1])
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs), abs(rhs))


def test_mp_rec_start():
    p = MPParams(0.7, 1.2)
    assert abs(mp_poly_rec(p, 0, 2.0) - 1 / math.sqrt(math.gamma(1.4))) < 1e-15
    # k=1, phi=pi/2, y=0: value at n=1 vanishes
    assert abs(mp_poly_rec(MPParams(1.0, math.pi / 2), 1, 0.0)) < 1e-15


# ---------------------------------------------------------------- chahn

def test_chahn_trivial():
    assert chahn_poly(CHahnParams(1, 1, 1, 1), 0, 0.3) == 1
    v = chahn_poly(CHahnParams(0.5, 0.5, 0.5, 0.5), 1, 0.0)
    assert abs(v) < 1e-14


def test_chahn_symmetric_data_is_real():
    # c = a real and d = conj(b): values at real x are real for every n
    # (the coupling coefficients S_j are built from exactly this family)
    rng = random.Random(3)
    for _ in range(5):
        a = rng.uniform(0.2, 2.0)
        b = complex(rng.uniform(0.2, 2.0), rng.uniform(-2, 2))
        p = CHahnParams(a, b, a, b.conjugate())
        x = rng.uniform(-3, 3)
        for n in range(7):
            v = chahn_poly(p, n, x)
            assert abs(v.imag) <= 1e-10 * max(1.0, abs(v.real))


# ---------------------------------------------------------------- hahn

def test_hahn_trivial():
    p = HahnParams(0.5, 1 / 3, 5)
    assert hahn_poly(p, 0, 3) == 1
    for n in range(6):
        assert abs(hahn_poly(p, n, 0) - 1) < 1e-14  # upper -x = 0
    assert abs(hahn_poly(HahnParams(0.0, 0.0, 4), 1, 2)) < 1e-14
    with pytest.raises(DegreeError):
        hahn_poly(p, 6, 1)


# ---------------------------------------------------------------- jacobi

def test_jacobi_trivial():
    assert jacobi_poly(0.4, 1.2, 0, 0.3) == 1.0
    # x = 1: (alpha+1)_n / n!
    for n in (1, 3, 5):
        ref = math.gamma(0.4 + 1 + n) / (math.gamma(1.4) * math.gamma(n + 1))
        assert abs(jacobi_poly(0.4, 1.2, n, 1.0) - ref) < 1e-12 * ref
    assert abs(jacobi_poly(0, 0, 2, 0.3) - (3 * 0.09 - 1) / 2) < 1e-14


# ---------------------------------------------------------------- aw / asc

def test_aw_trivial_and_n1():
    q = 0.5
    p = AWParams(q, 0.4, 0.3, -0.2, 0.6)
    assert aw_poly(p, 0, 0.3) == 1
    a, b, c, d, x = 0.4, 0.3, -0.2, 0.6, 0.3
    ref = (2 * x * (1 - a * b * c * d) - (a + b + c + d)
           + (a * b * c + a * b * d + a * c * d + b * c * d))
    assert abs(aw_poly(p, 1, x) - ref) < 1e-13


def test_aw_parameter_permutation_symmetry():
    import itertools

    q, x = 0.5, 0.35
    params = (0.45, -0.3, 0.6, 0.25)
    base = aw_poly(AWParams(q, *params), 6, x)
    for perm in itertools.permutations(params):
        v = aw_poly(AWParams(q, *perm), 6, x)
        assert abs(v - base) <= 1e-11 * max(1.0, abs(base))


def test_aw_zero_slot_and_q_hermite():
    q, x = 0.5, 0.3
    # a = 0 is rerouted through a nonzero slot
    v0 = aw_poly(AWParams(q, 0.0, 0.5, 0.0, 0.0), 5, x)
    v1 = aw_poly(AWParams(q, 0.5, 0.0, 0.0, 0.0), 5, x)
    assert abs(v0 - v1) < 1e-13
    # all-zero: continuous q-Hermite, checked against its recurrence
    H = [1.0, 2 * x]
    for n in range(1, 9):
        H.append(2 * x * H[n] - (1 - q ** n) * H[n - 1])
    for n in (2, 5, 8):
        assert abs(aw_poly(AWParams(q, 0, 0, 0, 0), n, x) - H[n]) < 1e-13


def test_asc_basic():
    q = 0.5
    p = ASCParams(q, 0.55, -0.35)
    assert asc_poly(p, 0, 0.3) == 1
    assert abs(asc_poly(p, 1, 0.3) - (2 * 0.3 - 0.55 + 0.35)) < 1e-14
    # orthonormal variant divides by sqrt((q, ab; q)_n)
    from qkl.series import qpoch

    n = 4
    norm = math.sqrt((complex(qpoch(q, q, n)) * complex(qpoch(0.55 * -0.35, q, n))).real)
    assert abs(asc_poly(p, n, 0.3, orthonormal=True) - asc_poly(p, n, 0.3) / norm) < 1e-13


def test_asc_definition_vs_derived_recurrence():
    rng = random.Random(10)
    for _ in range(4):
        q = rng.choice([0.3, 0.5, 0.7])
        a, b = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        x = math.cos(rng.uniform(0.2, math.pi - 0.2))
        gen = asc_orthonormal_stream(a, b, q, x)
        stream = [next(gen) for _ in range(13)]
        for n in (0, 1, 5, 9, 12):
            v = asc_poly(ASCParams(q, a, b), n, x, orthonormal=True)
            assert abs(v - stream[n]) <= 1e-11 * max(1.0, abs(stream[n]))


def test_asc_stream_conjugate_parameters_real():
    a = 0.3 + 0.4j
    gen = asc_orthonormal_stream(a, a.conjugate(), 0.5, 0.2)
    for _ in range(10):
        v = next(gen)
        assert abs(v.imag) < 1e-12


def _sampled_aw_points(ident, seed):
    """The (Askey-Wilson parameters, point) pairs whose streams one case of
    a q-bilinear identity sums."""
    p = sample_params(ident, seed).params
    q, x, y = p["q"], p.get("x"), p.get("y")
    if ident == "aw_bilinear":
        b2, d2 = p["a"] * p["b"] / p["a2"], p["c"] * p["d"] / p["c2"]
        return [(AWParams(q, p["a"], p["b"], p["c"], p["d"]), x),
                (AWParams(q, p["a2"], b2, p["c2"], d2), y)]
    if ident == "cdqh_bilinear":
        b2 = p["a"] * p["b"] / p["a2"]
        return [(AWParams(q, p["a"], p["b"], p["c"], 0.0), x),
                (AWParams(q, p["a2"], b2, p["c2"], 0.0), y)]
    if ident == "asc_bilinear":
        return [(ASCParams(q, p["a"], p["c"]).as_aw(), x),
                (ASCParams(q, p["a2"], p["c2"]).as_aw(), y)]
    if ident == "cbqh_reduction":
        return [(AWParams(q, p["c"], 0.0, 0.0, 0.0), x),
                (AWParams(q, p["c2"], 0.0, 0.0, 0.0), y)]
    k1, k2 = p["k1"], p["k2"]
    return [(_sj_ac_params(k1, k2, k1 + k2, p[u], p[s], q)[1], p[v])
            for u, v, s in (("x1", "x2", "s"), ("y1", "y2", "sigma"))]


def _assert_matches_definition(ref, std, ext):
    # the recurrence stream, in standard and in extended precision, against
    # definitional values summed at >= 120 digits (which promise 16 correct
    # digits), relative to the largest neighbouring value: a value near a
    # zero of p_n carries the rounding of its neighbours
    for n in range(len(std)):
        scale = max(abs(v) for v in ref[max(n - 1, 0):n + 2])
        assert abs(std[n] - ref[n]) <= 1e-12 * scale, n
        assert abs(complex(ext[n]) - ref[n]) <= 1e-12 * scale, n


@pytest.mark.parametrize("ident", ["aw_bilinear", "cdqh_bilinear", "asc_bilinear",
                                   "cbqh_reduction", "ac_spoisson"])
def test_aw_stream_matches_definition(ident):
    ref_ctx = extended_context(120)
    for seed in range(2):
        for aw, x in _sampled_aw_points(ident, seed):
            _assert_matches_definition(
                [complex(aw_poly(aw, n, x, ref_ctx)) for n in range(31)],
                list(islice(aw_stream(aw, x), 30)),
                list(islice(aw_stream(aw, x, EXTENDED), 30)))


def _sampled_kernel_points(ident, seed):
    """The (parameters, point) pairs whose orthonormal streams one case of a
    Poisson-kernel identity sums: MPParams for the Meixner-Pollaczek ones,
    ASCParams (q, q^k s, q^k / s) for the Al-Salam-Chihara ones."""
    p = sample_params(ident, seed).params
    if ident == "mp_poisson":
        return [(MPParams(p["k"], p["phi"]), p[v]) for v in ("x", "y")]
    if ident == "mp_spoisson":
        return [(MPParams(p[k], p["phi"]), p[v])
                for k, v in (("k1", "x1"), ("k1", "y1"), ("k2", "x2"), ("k2", "y2"))]
    q = p["q"]
    if ident == "ac_poisson":
        spec = [(p["k"], p["s"], p["x"]), (p["k"], p["sigma"], p["y"])]
    else:
        spec = [(p["k1"], cmath.exp(1j * math.acos(p["x2"])), p["x1"]),
                (p["k1"], cmath.exp(1j * math.acos(p["y2"])), p["y1"]),
                (p["k2"], p["s"], p["x2"]), (p["k2"], p["sigma"], p["y2"])]
    return [(ASCParams(q, q ** k * complex(s), q ** k / complex(s)), x)
            for k, s, x in spec]


@pytest.mark.parametrize("ident", ["mp_poisson", "mp_spoisson"])
def test_mp_stream_matches_definition(ident):
    ref_ctx = extended_context(120)
    for seed in range(2):
        for mp, y in _sampled_kernel_points(ident, seed):
            _assert_matches_definition(
                [float(mp_poly(mp, n, y, True, ref_ctx)) for n in range(31)],
                list(islice(mp_orthonormal_stream(mp, y), 30)),
                list(islice(mp_orthonormal_stream(mp, y, EXTENDED), 30)))


@pytest.mark.parametrize("ident", ["ac_poisson", "ac_spoisson"])
def test_asc_stream_matches_definition(ident):
    ref_ctx = extended_context(120)
    for seed in range(2):
        for asc, x in _sampled_kernel_points(ident, seed):
            _assert_matches_definition(
                [complex(asc_poly(asc, n, x, True, ref_ctx)) for n in range(31)],
                list(islice(asc_orthonormal_stream(asc.a, asc.b, asc.q, x), 30)),
                list(islice(asc_orthonormal_stream(asc.a, asc.b, asc.q, x, EXTENDED), 30)))


def test_aw_stream_special_parameters():
    # one nonzero parameter (continuous big q-Hermite) and all zeros
    # (continuous q-Hermite), against the definition
    x = 0.3
    for params in ((0.0, 0.45, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (0.5, -0.6, 0.0, 0.2)):
        aw = AWParams(0.5, *params)
        vals = list(islice(aw_stream(aw, x), 12))
        for n, v in enumerate(vals):
            ref = aw_poly(aw, n, x)
            assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref)), (params, n)


def test_aw_stream_domain():
    aw = AWParams(0.5, 0.4, 0.3, -0.2, 0.6)
    with pytest.raises(DomainError):
        aw_stream(aw, 1.5)
    with pytest.raises(DomainError):
        aw_stream(aw, -1.0 - 1e-9)
    assert next(aw_stream(aw, 1.0 + 1e-13)) == 1


def test_sj_ac_stream_matches_sj_ac():
    cases = [(0.5, 0.7, 0.2, -0.1, 1.1, 0.5), (0.25, 0.25, -0.6, 0.9, 0.8, 0.3)]
    p = sample_params("ac_spoisson", 0).params
    cases.append((p["k1"], p["k2"], p["x1"], p["x2"], p["s"], p["q"]))
    for k1, k2, x1, x2, s, q in cases:
        vals = list(islice(sj_ac_stream(k1, k2, x1, x2, s, q), 21))
        for j, v in enumerate(vals):
            ref = sj_ac(k1, k2, j, x1, x2, s, q)
            scale = max(abs(w) for w in vals[max(j - 1, 0):j + 2])
            assert abs(v - ref) <= 1e-11 * scale, (k1, k2, j)
    # only the j = 0 window on |s| binds
    with pytest.raises(ParamError):
        sj_ac_stream(0.5, 0.7, 0.2, -0.1, 9.0, 0.5)
    with pytest.raises(ParamError):
        sj_ac_stream(0.0, 0.7, 0.2, -0.1, 1.1, 0.5)


# ---------------------------------------------------------------- degree

def _forward_difference_is_zero(f, n, x0, h, scale_pts):
    """(n+1)-th forward difference over n+2 equally spaced points."""
    vals = [f(x0 + i * h) for i in range(n + 2)]
    scale = max(abs(v) for v in vals) or 1.0
    acc = 0
    for i in range(n + 2):
        acc += (-1) ** i * math.comb(n + 1, i) * vals[n + 1 - i]
    return abs(acc) <= 1e-9 * scale * scale_pts


@pytest.mark.parametrize("family,n", [("mp", 4), ("mp", 7), ("jacobi", 5),
                                      ("chahn", 4), ("aw", 5), ("asc", 6),
                                      ("hahn", 3)])
def test_degree_property(family, n):
    if family == "mp":
        f = lambda x: mp_poly(MPParams(0.8, 1.1), n, x)
        assert _forward_difference_is_zero(f, n, -1.0, 0.4, 2 ** n)
    elif family == "jacobi":
        f = lambda x: jacobi_poly(0.3, 0.9, n, x)
        assert _forward_difference_is_zero(f, n, -0.8, 0.25, 2 ** n)
    elif family == "chahn":
        p = CHahnParams(0.7, 0.9 - 0.5j, 0.7, 0.9 + 0.5j)
        f = lambda x: abs(chahn_poly(p, n, x)) * 0 + chahn_poly(p, n, x).real
        assert _forward_difference_is_zero(f, n, -1.0, 0.35, 2 ** n)
    elif family == "aw":
        p = AWParams(0.5, 0.45, -0.3, 0.6, 0.25)
        f = lambda x: aw_poly(p, n, x).real
        assert _forward_difference_is_zero(f, n, -0.75, 0.2, 2 ** n)
    elif family == "asc":
        p = ASCParams(0.5, 0.55, -0.35)
        f = lambda x: asc_poly(p, n, x).real
        assert _forward_difference_is_zero(f, n, -0.8, 0.2, 2 ** n)
    elif family == "hahn":
        p = HahnParams(0.5, 0.25, 6)
        f = lambda x: hahn_poly(p, n, x).real
        assert _forward_difference_is_zero(f, n, 0.0, 1.0, 2 ** n)


# ---------------------------------------------------------------- coupling

def test_sj_mp_closed_forms():
    k1, k2 = 0.6, 0.9
    v0 = sj_mp(k1, k2, 0, 0.3, -0.2, 1.0)
    ref = math.sqrt((2 * k1 + 2 * k2 - 1) * math.gamma(2 * k1 + 2 * k2 - 1)
                    / (math.gamma(2 * k1) * math.gamma(2 * k2)))
    assert abs(v0 - ref) < 1e-13
    assert abs(sj_mp(0.5, 0.5, 0, 1.2, -0.7, 1.0) - 1.0) < 1e-14


def test_sj_ac_basics():
    assert sj_ac(0.5, 0.7, 0, 0.2, -0.1, 1.1, 0.5) == 1
    # real s, real arguments -> real value
    for j in range(5):
        v = sj_ac(0.5, 0.7, j, 0.2, -0.1, 1.1, 0.5)
        assert abs(v.imag) <= 1e-10 * max(1.0, abs(v.real))
    with pytest.raises(ParamError):
        sj_ac(0.5, 0.7, 0, 0.2, -0.1, 9.0, 0.5)


def test_extended_context_round_trip():
    p = MPParams(0.8, 1.1)
    v_std = mp_poly(p, 12, 0.4, orthonormal=True)
    v_ext = mp_poly(p, 12, 0.4, orthonormal=True, ctx=EXTENDED)
    assert abs(v_std - float(v_ext)) <= 1e-13 * max(1.0, abs(v_std))


def test_reality_error_raised():
    # forcing an imaginary x through the real-valued MP evaluation trips the
    # reality guard
    with pytest.raises((RealityError, TypeError)):
        mp_poly(MPParams(0.8, 1.1), 3, 1 + 2j)  # type: ignore[arg-type]
