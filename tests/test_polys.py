"""Polynomial families: definitions, recurrences, and structural invariants."""
import cmath
import math
import random
from itertools import islice

import mpmath as mp
import numpy as np
import pytest

from qkl.errors import DegreeError, DomainError, ParamError, RealityError
from qkl.hyper import hyp_pfq_stable
from qkl.identities import sample_params
from qkl.numerics import EXTENDED, STANDARD, extended_context
from qkl.polys import (
    ASCParams,
    AWParams,
    CHahnParams,
    HahnParams,
    MPParams,
    _2f1_stream,
    _3f2_stream,
    _sj_ac_params,
    _sj_mp_params,
    asc_orthonormal_nodes,
    asc_orthonormal_stream,
    asc_poly,
    aw_poly,
    aw_stream,
    chahn_poly,
    chahn_stream,
    hahn_poly,
    in_spectral_window,
    jacobi_poly,
    jacobi_stream,
    mp_orthonormal_nodes,
    mp_orthonormal_stream,
    mp_poly,
    mp_poly_rec,
    sj_ac,
    sj_ac_stream,
    sj_mp,
    sj_mp_stream,
    unit_phase,
)


def test_spectral_window_in_logs():
    # q^-k overflows a float at q = 0.1, k = 400; the logs do not
    assert in_spectral_window(2.0, 0.1, 400.0)
    assert in_spectral_window(1e-300, 0.1, 400.0)
    assert in_spectral_window(1e300, 0.1, 400.0)
    assert not in_spectral_window(1e-300, 0.1, 250.0)
    assert in_spectral_window(1.5j, 0.5, 1.0)
    assert not in_spectral_window(2.5, 0.5, 1.0)
    # the unit circle is kept with its slack, and s = 0 stays outside
    assert in_spectral_window(1.0 + 5e-13, 0.5, 1e-15)
    assert not in_spectral_window(1.0 + 5e-12, 0.5, 1e-15)
    assert not in_spectral_window(0.0, 0.5, 5.0)


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
    return [(_sj_ac_params(k1, k2, k1 + k2, p[u], p[s], q, STANDARD)[1], p[v])
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


def test_orthonormal_nodes_match_scalar_streams():
    # the node-vector recurrences against the scalar streams, node by node:
    # MP runs the same real arithmetic and must agree bit for bit; the ASC
    # coefficients are complex, and numpy divides complex numbers with other
    # roundings than Python, so ASC agrees to rounding of the row's scale
    ys = np.linspace(-12.0, 12.0, 25)
    for k, phi in ((0.8, 1.1), (2.3, 0.4), (0.3, 2.8)):
        p = MPParams(k, phi)
        rows = list(islice(mp_orthonormal_nodes(p, ys), 13))
        for i, y in enumerate(ys):
            ref = list(islice(mp_orthonormal_stream(p, float(y)), 13))
            assert rows[0] == ref[0]
            assert [float(r[i]) for r in rows[1:]] == ref[1:]
    xs = np.cos(np.linspace(0.01, math.pi - 0.01, 25))
    for q, a, b in ((0.5, 0.4, 0.3), (0.7, 0.3 + 0.4j, 0.3 - 0.4j), (0.9, 0.9, -0.9)):
        rows = list(islice(asc_orthonormal_nodes(a, b, q, xs), 30))
        ref = np.array([list(islice(asc_orthonormal_stream(a, b, q, float(x)), 30))
                        for x in xs]).T
        assert rows[0] == ref[0][0] == 1
        for n in range(1, 30):
            assert np.abs(rows[n] - ref[n]).max() <= 1e-14 * np.abs(ref[n]).max()


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
    # k1 + k2 = 1/2 puts the base q^{2k1+2k2-1} of the norm at exactly 1
    cases = [(0.5, 0.7, 0.2, -0.1, 1.1, 0.5), (0.25, 0.25, -0.6, 0.9, 0.8, 0.3),
             (0.25, 0.25, 0.3, -0.4, 1.0, 0.5)]
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


def _sampled_classical_streams(ident, seed):
    """(definition of n in a context, stream in a context) pairs for the
    streams one case of a classical j-sum identity sums."""
    p = sample_params(ident, seed).params
    if ident == "jacobi_bessel":
        al, be = p["alpha"], p["beta"]
        return [(lambda n, c, x=p[v]: float(jacobi_poly(al, be, n, x, c)),
                 lambda c, x=p[v]: jacobi_stream(al, be, x, c))
                for v in ("x", "y")]
    if ident in ("mult_2f1", "conf_1f1"):
        # 3F2(-n, n+s-1, z; u, c; 1) at z = a, u = a + a' (and z = b,
        # u = b + b'), and conf_1f1's 2F1(-n, n+s-1; c; x / (x + y))
        s, cc = p["c"] + p["c2"], p["c"]
        shapes = [(p[z], p[z] + p[z + "2"])
                  for z in (("a", "b") if ident == "mult_2f1" else ("a",))]
        out = [(lambda n, c, z=z, u=u: complex(hyp_pfq_stable(
                    [-n, c.rnum(s) + (n - 1), z], [u, cc], 1, c)),
                lambda c, z=z, u=u: _3f2_stream(*(c.cnum(v) for v in (s, z, u, cc)), c))
               for z, u in shapes]
        if ident == "conf_1f1":
            y = p["x"] / (p["x"] + p["y"])
            out.append((lambda n, c: complex(hyp_pfq_stable(
                            [-n, c.rnum(s) + (n - 1)], [cc], y, c)),
                        lambda c: _2f1_stream(c.cnum(s), c.cnum(cc), c.cnum(y), c)))
        return out
    if ident in ("hahn_product", "mp_spoisson"):
        spec = [(_sj_mp_params(p["k1"], p["k2"], p[u], p[v]), p[u])
                for u, v in (("x1", "x2"), ("y1", "y2"))]
    else:
        a, beta = p["a"], p["beta"]
        spec = [(CHahnParams(a, complex(beta, w), a, complex(beta, -w)), p[v])
                for w, v in ((p["u"], "x"), (p["v"], "y"))]
    return [(lambda n, c, ch=ch, x=x: complex(chahn_poly(ch, n, x, c)),
             lambda c, ch=ch, x=x: chahn_stream(ch, x, c))
            for ch, x in spec]


@pytest.mark.parametrize("ident", ["hahn_product", "chahn_bilinear", "chahn_finite",
                                   "mp_spoisson", "mult_2f1", "conf_1f1",
                                   "jacobi_bessel"])
def test_classical_stream_matches_definition(ident):
    ref_ctx = extended_context(120)
    for seed in range(2):
        for definition, stream in _sampled_classical_streams(ident, seed):
            _assert_matches_definition(
                [definition(n, ref_ctx) for n in range(31)],
                list(islice(stream(STANDARD), 30)),
                list(islice(stream(EXTENDED), 30)))


def test_3f2_stream_matches_hahn_poly():
    # Q_n(x; alpha, beta, N) is the 3F2 stream at s = alpha + beta + 2, z = -x,
    # u = alpha + 1, v = -N, through the top degree n = N
    ref_ctx = extended_context(120)
    for seed in range(10):
        p = sample_params("hahn_bilinear_discrete", seed).params
        al, be = p["alpha"], p["beta"]
        for x, top in ((p["x"], p["M"]), (p["y"], p["N"])):
            hahn = HahnParams(al, be, top)

            def stream(c):
                u = c.cnum(al) + 1
                return list(islice(_3f2_stream(u + c.cnum(be) + 1, c.cnum(-x), u,
                                               c.cnum(-top), c), top + 1))
            _assert_matches_definition(
                [complex(hahn_poly(hahn, n, x, ref_ctx)) for n in range(top + 1)],
                stream(STANDARD), stream(EXTENDED))


def test_sj_mp_stream_matches_sj_mp():
    p = sample_params("mp_spoisson", 0).params
    cases = [(0.6, 0.9, 0.3, -0.2, 1.0), (0.25, 0.3, -1.4, 2.2, 2.5),
             (p["k1"], p["k2"], p["x1"], p["x2"], p["phi"])]
    for k1, k2, x1, x2, phi in cases:
        vals = list(islice(sj_mp_stream(k1, k2, x1, x2, phi), 21))
        for j, v in enumerate(vals):
            scale = max(abs(w) for w in vals[max(j - 1, 0):j + 2])
            assert abs(v - sj_mp(k1, k2, j, x1, x2, phi)) <= 1e-12 * scale, (k1, k2, j)
    with pytest.raises(ParamError):
        sj_mp_stream(0.0, 0.7, 0.2, -0.1, 1.0)
    # the log-form weight of sj_mp is kept: 2 k1 + 2 k2 - 1 < 0 at j = 0
    with pytest.raises(ValueError):
        next(sj_mp_stream(0.2, 0.2, 0.2, -0.1, 1.0))


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
    # x1 within the 1e-12 slack of [-1, 1] is clamped like x2, not refused
    assert (sj_ac(0.5, 0.7, 2, 1 + 1e-13, 0.3, 1.0, 0.5)
            == sj_ac(0.5, 0.7, 2, 1.0, 0.3, 1.0, 0.5))
    with pytest.raises(DomainError):
        sj_ac(0.5, 0.7, 2, 1.5, 0.3, 1.0, 0.5)


def test_unit_phase():
    rng = random.Random(11)
    xs = [-1.0, -0.0, 0.0, 1.0] + [rng.uniform(-1, 1) for _ in range(2000)]
    for x in xs:
        e = unit_phase(x, "test")
        assert e == cmath.exp(1j * math.acos(x)), x
        assert e.conjugate() == STANDARD.expi(-math.acos(x)), x
    assert unit_phase(1 + 1e-13, "test") == unit_phase(1.0, "test") == 1
    assert unit_phase(-1 - 1e-13, "test") == unit_phase(-1.0, "test")
    for x in (1.5, -1 - 1e-9):
        with pytest.raises(DomainError):
            unit_phase(x, "test")
    with mp.workdps(60):
        for x in xs[:4] + xs[-50:]:
            e = unit_phase(x, "test", EXTENDED)
            assert abs(mp.mpc(e) - mp.exp(1j * mp.acos(mp.mpf(x)))) <= 1e-38, x


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
