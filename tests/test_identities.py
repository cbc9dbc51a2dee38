"""Identity registry: samplers, validators, degenerate anchors, and seeded
verification sweeps."""
import sys
import threading
from itertools import count, islice

import mpmath as mp
import numpy as np
import pytest

import qkl.hyper as hyper
import qkl.identities as identities
import qkl.kernels as kernels
from qkl.errors import DenominatorPoleError, DomainError, HypothesisError, QKLError
from qkl.hyper import TruncationPolicy, contiguous_ladder, vwp_8w7
from qkl.identities import (
    IdentityCase,
    _sum_j,
    get_entry,
    identity_ids,
    run_case,
    sample_params,
)
from qkl.numerics import EXTENDED, STANDARD, extended_context
from qkl.series import pochhammer, pochhammer_ladder, qpoch

ALL_IDS = identity_ids()


def test_registry_contents():
    expected = {"mp_poisson", "mp_recurrence", "hahn_product", "chahn_bilinear",
                "jacobi_bessel", "chahn_finite", "chahn_finite_whipple",
                "mult_2f1", "burchnall_chaundy", "conf_1f1",
                "hahn_bilinear_discrete", "ac_poisson", "ac_poisson_alt",
                "ac_spoisson", "aw_bilinear", "cdqh_bilinear", "asc_bilinear",
                "cbqh_reduction", "mp_spoisson", "aw_recurrence"}
    assert set(ALL_IDS) == expected


def test_unknown_identity():
    with pytest.raises(KeyError):
        get_entry("nope")


@pytest.mark.parametrize("ident", ALL_IDS)
def test_sampler_determinism(ident):
    a = sample_params(ident, 42)
    b = sample_params(ident, 42)
    assert a.params == b.params
    c = sample_params(ident, 43)
    assert c.params != a.params


def test_constraints_by_construction():
    for seed in range(8):
        p = sample_params("aw_bilinear", seed).params
        b2 = p["a"] * p["b"] / p["a2"]
        d2 = p["c"] * p["d"] / p["c2"]
        assert abs(p["a"] * p["b"] - p["a2"] * b2) <= 1e-15
        assert abs(p["c"] * p["d"] - p["c2"] * d2) <= 1e-15
        assert max(abs(b2), abs(d2)) <= 0.7 + 1e-12
        p = sample_params("chahn_bilinear", seed).params
        b = complex(p["beta"], p["u"])
        b2 = complex(p["beta"], p["v"])
        assert (b + b.conjugate()) == (b2 + b2.conjugate())


def test_hypothesis_violation_raises():
    case = sample_params("mp_poisson", 0)
    bad = IdentityCase("mp_poisson", {**case.params, "k": -1.0})
    with pytest.raises(HypothesisError):
        run_case(bad)
    bad = IdentityCase("aw_bilinear", {**sample_params("aw_bilinear", 0).params,
                                       "a": 1.5})
    with pytest.raises(HypothesisError):
        run_case(bad)


@pytest.mark.parametrize("ident", ["aw_bilinear", "cdqh_bilinear", "asc_bilinear",
                                   "cbqh_reduction"])
def test_q_bilinear_point_on_the_slack(ident):
    # both sides clamp x = cos theta within 1e-12 of [-1, 1] and refuse a
    # point beyond it with a DomainError, the right side included
    base = sample_params(ident, 0).params
    for key in ("x", "y"):
        for v in (1 + 1e-13, -1 - 1e-13):
            assert run_case(IdentityCase(ident, {**base, key: v})).passed, (key, v)
        bad = {**base, key: 1.5}
        with pytest.raises(DomainError):
            run_case(IdentityCase(ident, bad))
        with pytest.raises(DomainError):
            get_entry(ident).eval_rhs(bad, TruncationPolicy(), STANDARD)


def test_convergence_violation_is_divergence():
    from qkl.errors import DivergenceError

    case = sample_params("mp_poisson", 0)
    bad = IdentityCase("mp_poisson", {**case.params, "t": 1.0})
    with pytest.raises(DivergenceError):
        run_case(bad)


_ANCHORS = {
    "mp_poisson": {"t": 0.0},
    "mp_recurrence": {"n": 0},
    "hahn_product": {"r": 0.0},
    "chahn_bilinear": {"r": 0.0},
    "jacobi_bessel": {"alpha": 0.7, "beta": 1.1, "z": 0.0},
    "chahn_finite": {"K": 1},
    "chahn_finite_whipple": {"K": 1},
    "mult_2f1": {"z": 0.0},
    "burchnall_chaundy": {"z": 0.0},
    "conf_1f1": {"x": 1e-30, "y": 1e-30},
    "hahn_bilinear_discrete": {"z": 0.0},
    "ac_poisson": {"t": 0.0},
    "ac_poisson_alt": {"t": 0.0},
    "ac_spoisson": {"t": 0.0},
    "aw_bilinear": {"t": 0.0},
    "cdqh_bilinear": {"t": 0.0},
    "asc_bilinear": {"t": 0.0},
    "cbqh_reduction": {"t": 0.0},
    "mp_spoisson": {"t": 0.0},
    "aw_recurrence": {"n": 0},
}


@pytest.mark.parametrize("ident", ALL_IDS)
def test_degenerate_anchor(ident):
    base = sample_params(ident, 0).params
    params = {**base, **_ANCHORS[ident]}
    rep = run_case(IdentityCase(ident, params, tol_rel=1e-13))
    assert rep.passed, (ident, rep.rel_err)


# points where every coefficient is finite but a factor of a coefficient is
# gained and dropped in the same step at small j (A + j - 1 = 0 at j = 1, or
# 1 - abcd q^{j-1} = 0 at j = 0): a carry that divides the one by the other
# raises ZeroDivisionError
_COINCIDENT_FACTORS = [
    ("chahn_bilinear", {"a": 0.2, "beta": 0.3, "u": 0.4, "v": -0.7, "x": 0.5,
                        "y": -1.1, "r": 0.3}),
    ("hahn_product", {"k1": 0.2, "k2": 0.3, "x1": 0.5, "x2": -0.4, "y1": 1.1,
                      "y2": 0.2, "r": 0.3}),
    ("mult_2f1", {"a": 0.3, "b": -0.7, "c": 0.4, "a2": 1.2, "b2": 0.9, "c2": 0.6,
                  "z": 0.3}),
    ("conf_1f1", {"a": 0.3, "c": 0.4, "a2": 1.2, "c2": 0.6, "x": 0.5, "y": 0.7}),
    ("burchnall_chaundy", {"a": 0.3, "b": -0.7, "c": 0.5, "z": 0.3}),
    ("aw_bilinear", {"q": 0.0625, "a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5,
                     "a2": 0.5, "c2": 0.5, "t": 0.1, "x": 0.3, "y": -0.2}),
]


@pytest.mark.parametrize("ident, params", _COINCIDENT_FACTORS,
                         ids=[ident for ident, _ in _COINCIDENT_FACTORS])
@pytest.mark.parametrize("precision", ["standard", "extended"])
def test_coincident_coefficient_factors_evaluate(ident, params, precision):
    rep = run_case(IdentityCase(ident, params), precision=precision)
    assert rep.passed, (ident, precision, rep.rel_err)
    assert rep.precision_used == precision


# admissible Jacobi-Bessel points on both sides of s = alpha + beta + 1 = 0,
# where Gamma(s) has a pole: the coefficients take Gamma(s + 1) and
# (s + 2j) / (s + j), so no Gamma of a nonpositive argument is formed
_JACOBI_BESSEL_LOW_ORDERS = [-0.95, -0.6, -0.5, -0.3]


@pytest.mark.parametrize("alpha", _JACOBI_BESSEL_LOW_ORDERS)
@pytest.mark.parametrize("precision", ["standard", "extended"])
def test_jacobi_bessel_low_orders_evaluate(alpha, precision):
    params = {"alpha": alpha, "beta": alpha, "x": 0.3, "y": -0.2, "z": 2.0}
    rep = run_case(IdentityCase("jacobi_bessel", params), precision=precision)
    assert rep.passed, (alpha, precision, rep.rel_err)
    assert rep.rel_err < 1e-14
    assert rep.precision_used == precision


# admissible discrete Hahn points with alpha + beta = -K, K = 2..9: the Hahn
# streams' divisors 2n + s - 1 and 2n + s (s = alpha + beta + 2) vanish at
# n = (K - 1) / 2 or (K - 2) / 2; (alpha, beta) = (-0.5, -1.5), (-1.5, -0.5)
# and (0.5, -3.5) among them
_HAHN_STREAM_POLES = [(al, -K - al) for K in range(2, 10) for al in (-0.5, 0.5, 1.25)] \
    + [(-1.5, -0.5)]


@pytest.mark.parametrize("precision", ["standard", "extended"])
def test_hahn_stream_poles_are_typed_errors(precision):
    # the j-sum meets the lower-parameter pole of its 2F1 factor before it
    # pulls a stream value that divides by zero, so the case raises a QKLError
    ctx = STANDARD if precision == "standard" else EXTENDED
    entry = get_entry("hahn_bilinear_discrete")
    raised = 0
    for al, be in _HAHN_STREAM_POLES:
        for M, N, x, y in ((6, 6, 2, 3), (6, 5, 6, 0), (4, 6, 0, 6), (2, 3, 1, 1)):
            p = {"alpha": al, "beta": be, "M": M, "N": N, "x": x, "y": y, "z": 0.4}
            entry.validator(p)
            try:
                entry.eval_lhs(p, TruncationPolicy(), ctx)
            except QKLError:
                raised += 1
    assert raised > 0
    for al, be in ((-0.5, -1.5), (-1.5, -0.5), (0.5, -3.5)):
        p = {"alpha": al, "beta": be, "M": 6, "N": 6, "x": 2, "y": 3, "z": 0.4}
        with pytest.raises(DenominatorPoleError):
            run_case(IdentityCase("hahn_bilinear_discrete", p), precision=precision)


@pytest.mark.parametrize("ident", ALL_IDS)
def test_seeded_sweep_small(ident):
    for seed in range(5):
        rep = run_case(sample_params(ident, seed))
        assert rep.rel_err <= 1e-8, (ident, seed, rep.rel_err)
        assert rep.passed


def test_report_fields():
    rep = run_case(sample_params("mp_poisson", 1))
    assert rep.identity_id == "mp_poisson"
    assert rep.rel_err == pytest.approx(
        abs(rep.lhs - rep.rhs) / max(abs(rep.lhs), abs(rep.rhs), 1e-300))
    assert rep.precision_used in ("standard", "extended")
    assert "lhs" in rep.terms and "rhs" in rep.terms


def test_explicit_extended_precision():
    case = sample_params("aw_bilinear", 0)
    rep = run_case(IdentityCase(case.identity_id, case.params, tol_rel=1e-10),
                   precision="extended")
    assert rep.precision_used == "extended"
    assert rep.rel_err <= 1e-10


@pytest.mark.parametrize("ident", ["aw_bilinear", "ac_spoisson", "cdqh_bilinear",
                                   "asc_bilinear", "cbqh_reduction"])
def test_extended_q_bilinear_case_leaves_mpmath_precision_alone(ident):
    # extended values carry their own mpmath context, so a case that drops
    # its Askey-Wilson streams mid-sum leaves the global precision as it was
    dps = mp.mp.dps
    run_case(sample_params(ident, 3), precision="extended")
    assert mp.mp.dps == dps


def test_tail_tol_scaling():
    # halving tail_tol never worsens the residual by more than 2x (noise floor
    # allowed for)
    for ident in ("mp_poisson", "chahn_bilinear"):
        base = sample_params(ident, 3)
        r1 = run_case(IdentityCase(ident, base.params,
                                   policy=TruncationPolicy(tail_tol=1e-10)))
        r2 = run_case(IdentityCase(ident, base.params,
                                   policy=TruncationPolicy(tail_tol=5e-11)))
        assert r2.rel_err <= 2 * r1.rel_err + 1e-13


def test_params_survive_in_case():
    case = sample_params("mp_spoisson", 7)
    assert set(case.params) == set(get_entry("mp_spoisson").param_names)
    assert case.seed == 7


@pytest.mark.parametrize("ident", ALL_IDS)
def test_param_names_are_sampler_keys(ident):
    names = get_entry(ident).param_names
    for seed in range(3):
        assert tuple(sample_params(ident, seed).params) == names


def test_mult_2f1_polynomial_case_floating():
    # a = a' = -1, b = b' = 1, c = c' = 1: both sides are (1-z)^2 = 0.25 at
    # z = 0.5; the expansion coefficients vanish beyond j = 2
    rep = run_case(IdentityCase("mult_2f1",
                                {"a": -1.0, "b": 1.0, "c": 1.0,
                                 "a2": -1.0, "b2": 1.0, "c2": 1.0, "z": 0.5}))
    assert abs(rep.lhs - 0.25) < 1e-14
    assert abs(rep.rhs - 0.25) < 1e-14
    assert rep.passed


def test_burchnall_chaundy_polynomial_case_floating():
    # a = -1: 2F1(-1, b; c; z) = 1 - b z / c, squared; the 3F2 streams of
    # the expansion would divide by A + j = 0 at j = 2, beyond the last
    # nonzero coefficient, so they are never pulled there
    rep = run_case(IdentityCase("burchnall_chaundy",
                                {"a": -1.0, "b": 0.5, "c": 1.5, "z": 0.5}))
    ref = (1 - 0.5 * 0.5 / 1.5) ** 2
    assert abs(rep.lhs - ref) < 1e-14
    assert abs(rep.rhs - ref) < 1e-14
    assert rep.passed
    assert rep.terms["rhs"] == {"terms": 6, "status": "Converged"}


def test_conf_1f1_polynomial_case_floating():
    # a = -1, a' = -2: both 1F1 are polynomials and the expansion stops at
    # j = 3, where A + j = 0 would stop the 3F2 stream
    x, y, c, c2 = 0.7, 1.2, 1.5, 2.5
    rep = run_case(IdentityCase("conf_1f1", {"a": -1.0, "c": c, "a2": -2.0,
                                             "c2": c2, "x": x, "y": y}))
    ref = (1 - x / c) * (1 - 2 * y / c2 + y * y / (c2 * (c2 + 1)))
    assert abs(rep.lhs - ref) < 1e-14
    assert abs(rep.rhs - ref) < 1e-14
    assert rep.passed
    assert rep.terms["rhs"] == {"terms": 7, "status": "Converged"}


def test_jsum_reports_term_cap():
    value, meta = _sum_j(map(lambda j: 1.0, count()), TruncationPolicy(), STANDARD,
                         jmax=7)
    assert value == 7
    assert meta == {"terms": 7, "status": "MaxTermsReached"}


def test_jsum_stops_after_quiet_window():
    value, meta = _sum_j(map(lambda j: 1.0 if j < 2 else 0.0, count()),
                         TruncationPolicy(quiet_window=3), STANDARD)
    assert value == 2
    assert meta == {"terms": 5, "status": "Converged"}


@pytest.mark.parametrize("ident", ALL_IDS)
def test_registry_50_seed_invariant(ident):
    # every registered identity passes at 1e-8 on 50 seeded samples; seeds
    # 0..4 are the cases of test_seeded_sweep_small
    for seed in range(5, 50):
        rep = run_case(sample_params(ident, seed))
        assert rep.passed, (ident, seed, rep.rel_err)


def test_extended_mp_recurrence_keeps_extended_digits():
    # 2y sin(phi) and the recurrence coefficients are computed in the
    # extended context, like the definitional values they multiply
    for seed in (0, 5):
        rep = run_case(sample_params("mp_recurrence", seed), precision="extended")
        assert rep.rel_err <= 1e-30, (seed, rep.rel_err)


def test_run_case_is_thread_safe():
    # standard cases in one thread while extended ones run in another: each
    # thread reproduces its single-threaded reports bit for bit
    standard = [sample_params(i, s) for i in ("chahn_bilinear", "mult_2f1", "mp_spoisson")
                for s in range(4)]
    extended = [sample_params(i, s) for i in ("aw_bilinear", "mp_poisson") for s in range(2)]

    def values(case, precision):
        rep = run_case(case, precision=precision)
        return rep.lhs, rep.rhs, rep.rel_err

    want_standard = [values(c, "standard") for c in standard]
    want_extended = [values(c, "extended") for c in extended]
    got_standard, got_extended = [], []
    done = threading.Event()

    def run_standard():
        try:
            got_standard.extend(values(c, "standard") for c in standard)
        finally:
            done.set()

    def run_extended():
        while not done.is_set():
            got_extended.extend(values(c, "extended") for c in extended)

    threads = [threading.Thread(target=run_standard), threading.Thread(target=run_extended)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got_standard == want_standard
    assert got_extended
    assert got_extended == want_extended * (len(got_extended) // len(extended))


# The coefficients of the j-sums, rebuilt from scratch by pochhammer or qpoch
# at each j as the sums once computed them: the oracles of the ladder
# declarations.

def _aw_rebuilt(p, j, ctx):
    q, t = p["q"], p["t"]
    a, b, c, d, a2, c2 = (p[k] for k in ("a", "b", "c", "d", "a2", "c2"))
    b2, d2 = a * b / a2, c * d / c2
    qj = q ** j
    num = qpoch(b * c2 * qj * t, q, ctx=ctx) * qpoch(b2 * c * qj * t, q, ctx=ctx) \
        * qpoch(b * d2 * qj * t, q, ctx=ctx) * qpoch(b2 * d * qj * t, q, ctx=ctx)
    den = qpoch(b * b2 * c * d * q ** (2 * j) * t, q, ctx=ctx) \
        * qpoch(q, q, j, ctx=ctx) * qpoch(a * b, q, j, ctx=ctx) \
        * qpoch(c * d, q, j, ctx=ctx) \
        * qpoch(a * b * c * d * q ** (j - 1), q, j, ctx=ctx)
    return ctx.cnum(t) ** j * num / den


def _cdqh_rebuilt(p, j, ctx):
    q, t, a, b, c, a2, c2 = (p[k] for k in ("q", "t", "a", "b", "c", "a2", "c2"))
    b2, qj = a * b / a2, q ** j
    return ctx.cnum(t) ** j * qpoch(b * c2 * qj * t, q, ctx=ctx) \
        * qpoch(b2 * c * qj * t, q, ctx=ctx) \
        / (qpoch(q, q, j, ctx=ctx) * qpoch(a * b, q, j, ctx=ctx))


def _asc_rebuilt(p, j, ctx):
    q, t = p["q"], p["t"]
    return ctx.cnum(t) ** j / (qpoch(q, q, j, ctx=ctx)
                               * qpoch(p["a2"] * p["c"] * t, q, j, ctx=ctx))


def _cbqh_rebuilt(p, j, ctx):
    return ctx.cnum(p["t"]) ** j / qpoch(p["q"], p["q"], j, ctx=ctx)


def _chahn_rebuilt(p, j, ctx):
    # (-r)^j j! / ((2a)_j (b+d)_j (A+j)_j), A = 2a + b + d - 1
    a, bd = p["a"], 2 * p["beta"]
    A = 2 * a + bd - 1
    return ctx.cnum(-p["r"]) ** j * pochhammer(1, j, ctx) / (
        pochhammer(2 * a, j, ctx) * pochhammer(bd, j, ctx)
        * pochhammer(A + j, j, ctx))


def _mult_rebuilt(p, j, ctx):
    # z^j (c)_j (A)_j (B)_j / (j! (c')_j (C+j)_j), C = c + c' - 1
    a, b, c, a2, b2, c2 = (p[k] for k in ("a", "b", "c", "a2", "b2", "c2"))
    C = c + c2 - 1
    return ctx.cnum(p["z"]) ** j * pochhammer(c, j, ctx) \
        * pochhammer(a + a2, j, ctx) * pochhammer(b + b2, j, ctx) / (
            pochhammer(1, j, ctx) * pochhammer(c2, j, ctx)
            * pochhammer(C + j, j, ctx))


_LADDER_ORACLES = {
    "aw_bilinear": ("lhs", _aw_rebuilt),
    "cdqh_bilinear": ("lhs", _cdqh_rebuilt),
    "asc_bilinear": ("lhs", _asc_rebuilt),
    "cbqh_reduction": ("lhs", _cbqh_rebuilt),
    "chahn_bilinear": ("lhs", _chahn_rebuilt),
    "mult_2f1": ("rhs", _mult_rebuilt),
}


def _declared_ladder(ident, side, p, ctx):
    """A fresh ladder on the one declaration that ``side`` of ``ident`` makes
    to ``pochhammer_ladder`` at ``p``."""
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return pochhammer_ladder(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "pochhammer_ladder", spy)
        getattr(get_entry(ident), "eval_" + side)(p, TruncationPolicy(), ctx)
    [(args, kwargs)] = calls
    return pochhammer_ladder(*args, **kwargs)


@pytest.mark.parametrize("ident", sorted(_LADDER_ORACLES))
def test_carried_q_coefficients_match_qpoch(ident):
    # the coefficient a j-sum declares to the ladder, carried from j to j + 1,
    # against the same products rebuilt from scratch, j = 0..40, on every
    # draw of seeds 0..9; three draws also in extended precision, at every
    # fifth j
    side, rebuilt = _LADDER_ORACLES[ident]
    for ctx, seeds, step in ((STANDARD, range(10), 1), (EXTENDED, range(3), 5)):
        for seed in seeds:
            p = sample_params(ident, seed).params
            carried = _declared_ladder(ident, side, p, ctx)
            for j, co in islice(enumerate(carried), 0, 41, step):
                want = rebuilt(p, j, ctx)
                assert abs(co - want) <= 1e-12 * abs(want), (ctx, seed, j)


@pytest.mark.parametrize("ident, side", [
    ("aw_bilinear", "lhs"), ("cdqh_bilinear", "lhs"), ("ac_spoisson", "rhs"),
    ("asc_bilinear", "lhs"), ("cbqh_reduction", "lhs")])
def test_q_jsum_qpoch_calls_do_not_grow_with_terms(ident, side, monkeypatch):
    # every q-product of a q j-sum is computed once, before the sum; only the
    # carry runs per term, so the qpoch calls of a case are one count
    # however many terms its j-sum takes
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return qpoch(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qkl") and getattr(mod, "qpoch", None) is qpoch:
            monkeypatch.setattr(mod, "qpoch", counted)
    seen = {}
    for seed in range(30):
        calls.clear()
        rep = run_case(sample_params(ident, seed), precision="standard")
        seen[rep.terms[side]["terms"]] = len(calls)
    assert max(seen) - min(seen) >= 10, seen
    assert len(set(seen.values())) == 1, seen
    assert max(seen.values()) <= 20, seen
    if ident in ("aw_bilinear", "cdqh_bilinear", "ac_spoisson"):
        assert max(seen) >= 40, seen


def test_capped_jsum_fails_its_case(monkeypatch):
    # a j-sum stopped by its term cap one term before the stopping rule
    # would have ended it fails the case, although its residual is small
    case = sample_params("aw_bilinear", 0)
    full = run_case(case, precision="standard")
    assert full.passed and full.terms["lhs"]["status"] == "Converged"
    cap = full.terms["lhs"]["terms"] - 1
    sum_j = identities._sum_j
    monkeypatch.setattr(identities, "_sum_j",
                        lambda terms, policy, ctx, jmax=400, stops=():
                        sum_j(terms, policy, ctx, cap, stops))
    rep = run_case(case)
    assert rep.terms["lhs"] == {"terms": cap, "status": "MaxTermsReached"}
    assert rep.rel_err <= case.tol_rel
    assert not rep.passed
    assert rep.precision_used == "standard" and rep.note is None


# The classical j-sums whose per-j 2F1 or 1F1 comes from
# hyper.contiguous_ladder, by the side that sums them.
_CONTIGUOUS_SIDES = {"hahn_product": "rhs", "chahn_bilinear": "lhs",
                     "mult_2f1": "rhs", "burchnall_chaundy": "rhs",
                     "conf_1f1": "rhs", "mp_spoisson": "rhs"}


def _declared_contiguous(ident, p):
    """The (upper, c, z) that the j-sum side of ``ident`` declares to
    ``contiguous_ladder`` at ``p``, in standard precision."""
    calls = []

    def spy(upper, c, z, policy=None, ctx=STANDARD):
        calls.append((upper, c, z))
        return contiguous_ladder(upper, c, z, policy, ctx)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "contiguous_ladder", spy)
        patch.setattr(kernels, "contiguous_ladder", spy)
        getattr(get_entry(ident), "eval_" + _CONTIGUOUS_SIDES[ident])(
            p, TruncationPolicy(), STANDARD)
    [call] = calls
    return call


@pytest.mark.parametrize("ident", sorted(_CONTIGUOUS_SIDES))
def test_contiguous_ladder_matches_mpmath_on_every_sampler(ident):
    # the per-j factor the j-sum runs on, recurred backward from its anchors,
    # against mpmath's hyp2f1 / hyp1f1 at 30 digits, j = 0..40, on every draw
    # of seeds 0..49 in standard precision and of seeds 0..9 in extended too
    # (its 40-digit anchors set the test's time); the anchors stop at the
    # default tail_tol of 1e-15 in both
    for seed in range(50):
        upper, c, z = _declared_contiguous(ident, sample_params(ident, seed).params)
        with mp.workdps(30):
            up, cc, zz = [mp.mpmathify(u) for u in upper], mp.mpmathify(c), mp.mpmathify(z)
            if len(up) == 2:
                want = [mp.hyp2f1(up[0] + j, up[1] + j, cc + 2 * j, zz) for j in range(41)]
            else:
                want = [mp.hyp1f1(up[0] + j, cc + 2 * j, zz) for j in range(41)]
        for ctx in (STANDARD, EXTENDED) if seed < 10 else (STANDARD,):
            got = islice(contiguous_ladder(upper, c, z, ctx=ctx), 41)
            for j, (ev, w) in enumerate(zip(got, want)):
                assert abs(mp.mpmathify(ev.value) - w) <= 1e-13 * abs(w), (seed, ctx, j)


@pytest.mark.parametrize("ident, side", [("chahn_bilinear", "lhs"), ("conf_1f1", "rhs"),
                                         ("asc_bilinear", "lhs"), ("cdqh_bilinear", "lhs")])
def test_capped_ladder_anchor_fails_its_case(ident, side):
    # five terms cannot sum an anchor of the per-j 2F1 / 1F1 / 2phi1 / 3phi2
    # ladder: the cap the anchors stop at is the j-sum's status, so the case
    # fails on it
    case = sample_params(ident, 0)
    rep = run_case(IdentityCase(ident, case.params, policy=TruncationPolicy(max_terms=5),
                                seed=0))
    assert rep.terms[side]["status"] == "MaxTermsReached"
    assert rep.passed is False


def test_hahn_discrete_extended_builds_parameters_in_context():
    # alpha + 1, beta + 1, alpha + beta + 1 and alpha + beta + 2j + 2 are
    # built from the context's alpha and beta: seed 57 reported 2.6e-15
    # extended while they were doubles
    rep = run_case(sample_params("hahn_bilinear_discrete", 57), precision="extended")
    assert rep.rel_err <= 1e-30, rep.rel_err


# The q j-sums whose per-j 2phi1, 3phi2 or 8W7 comes from a ladder of
# hyper.py: (ladder name, module that calls it, side that sums it).
_Q_LADDER_SIDES = {"asc_bilinear": ("phi21_ladder", identities, "lhs"),
                   "cdqh_bilinear": ("phi32_ladder", identities, "lhs"),
                   "aw_bilinear": ("vwp_ladder", identities, "lhs"),
                   "ac_spoisson": ("vwp_ladder", kernels, "rhs")}


def _declared_q_ladder(ident, p):
    """The ladder's name and the arguments before policy and context that
    the j-sum side of ``ident`` passes it at ``p``, in standard precision."""
    name, module, side = _Q_LADDER_SIDES[ident]
    ladder, calls = getattr(module, name), []

    def spy(*args):
        calls.append(args[:-2])
        return ladder(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, spy)
        getattr(get_entry(ident), "eval_" + side)(p, TruncationPolicy(), STANDARD)
    [call] = calls
    return name, call


def _q_series_ratio(name, args, q):
    """The term ratio, at x = q^n, of y_j for j = 0..40 at once, as a numpy
    array over j in long double: the series each ladder yields, written out
    from its definition."""
    c = np.clongdouble
    q = np.longdouble(q)
    qj = q ** np.arange(41, dtype=np.longdouble)
    if name == "phi21_ladder":
        a, b, cc, z = (c(v) for v in (*args[:3], args[4]))
        return lambda x: ((1 - a * x) * (1 - b * qj * x) * z
                          / ((1 - q * x) * (1 - cc * qj * x)))
    if name == "phi32_ladder":
        (u1, u2), (r1, r2) = ([c(v) for v in x] for x in args[:2])
        w, z = c(args[2]), c(args[2]) / c(args[3])
        return lambda x: ((1 - u1 * qj * x) * (1 - u2 * qj * x) * (1 - w * x) * z
                          / ((1 - q * x) * (1 - w * r1 * qj * x) * (1 - w * r2 * qj * x)))
    a, bs, ratio = c(args[0]), [c(v) for v in args[1]], c(args[2])
    A, r = a * qj * qj, ratio * qj * qj
    b5, z = a / ratio, ratio * a * q * q / (bs[0] * bs[1] * bs[2] * bs[3])

    def ratio_at(x):
        num, den = (1 - A * x) * (1 - b5 * x) * z, (1 - q * x) * (1 - r * q * x)
        for b in bs:
            num, den = num * (1 - b * qj * x), den * (1 - A * q * x / (b * qj))
        return num / den * (1 - A * q * q * x * x) / (1 - A * x * x)

    return ratio_at


def _direct_q_series(name, args, q):
    """y_j for j = 0..40, summed term by term in long double (64-bit
    mantissa on x86-64) until every term is below 1e-21 of its sum:
    independent of qkl's engine, and some 3 digits past double where the
    terms cancel."""
    ratio_at = _q_series_ratio(name, args, q)
    term = np.ones(41, np.clongdouble)
    total, x = term.copy(), np.longdouble(1)
    for _ in range(5000):
        term = term * ratio_at(x)
        total += term
        x *= np.longdouble(q)
        if np.all(np.abs(term) <= 1e-21 * np.abs(total)):
            return total
    raise AssertionError("reference sum did not converge")


@pytest.mark.parametrize("ident", sorted(_Q_LADDER_SIDES))
def test_q_ladders_match_direct_sums_on_every_sampler(ident):
    # the per-j q-series each q j-sum runs on, recurred backward from its
    # anchors, against the series summed afresh at every j, j = 0..40, on
    # every draw of seeds 0..49 in standard precision and seeds 0..9 in
    # extended too
    for seed in range(50):
        p = sample_params(ident, seed).params
        name, args = _declared_q_ladder(ident, p)
        want = _direct_q_series(name, args, p["q"])
        ladder = getattr(hyper, name)
        for ctx in (STANDARD, EXTENDED) if seed < 10 else (STANDARD,):
            got = [complex(ev.value) for ev in islice(ladder(*args, ctx=ctx), 41)]
            err = np.abs(np.array(got, np.clongdouble) - want) / np.abs(want)
            assert err.max() <= 1e-13, (seed, ctx.mode, int(err.argmax()), err.max())


@pytest.mark.parametrize("ident", sorted(_Q_LADDER_SIDES))
def test_q_ladders_match_high_precision_sums(ident):
    # the same against mpmath's qhyper at 30 digits (2phi1, 3phi2) or the
    # direct 8W7 of a 50-digit context, at the block's ends and anchors
    js = (0, 1, 12, 23, 24, 25, 26, 40)
    big = extended_context(50)
    for seed in range(5):
        p = sample_params(ident, seed).params
        name, args = _declared_q_ladder(ident, p)
        q = p["q"]
        with mp.workdps(30):
            if name == "phi21_ladder":
                a, b, c, z = (mp.mpmathify(v) for v in (*args[:3], args[4]))
                want = [mp.qhyper([a, b * q ** j], [c * q ** j], q, z) for j in js]
            elif name == "phi32_ladder":
                (u1, u2), (r1, r2) = ([mp.mpmathify(v) for v in x] for x in args[:2])
                w, om = mp.mpmathify(args[2]), mp.mpmathify(args[3])
                want = [mp.qhyper([u1 * q ** j, u2 * q ** j, w],
                                  [w * r1 * q ** j, w * r2 * q ** j], q, w / om)
                        for j in js]
        if name == "vwp_ladder":
            a, bs, ratio = big.cnum(args[0]), [big.cnum(v) for v in args[1]], big.cnum(args[2])
            qc = big.rnum(q)
            z = ratio * a * qc * qc / (bs[0] * bs[1] * bs[2] * bs[3])
            want = [vwp_8w7(a * qc ** (2 * j), [b * qc ** j for b in bs] + [a / ratio],
                            q, z, ctx=big).value for j in js]
        ladder = getattr(hyper, name)
        for ctx in (STANDARD, EXTENDED):
            got = list(islice(ladder(*args, ctx=ctx), js[-1] + 1))
            for j, w in zip(js, want):
                w = mp.mpmathify(w)
                err = abs(mp.mpmathify(got[j].value) - w) / abs(w)
                assert err <= 1e-13, (seed, ctx.mode, j, err)


@pytest.mark.parametrize("ident, seed", [("asc_bilinear", 0), ("cdqh_bilinear", 0),
                                         ("aw_bilinear", 1), ("ac_spoisson", 0)])
def test_q_ladders_past_the_ratio_bound_match_direct_sums(ident, seed):
    # q = 0.3, t = 0.8: s = t^2 / q = 2.1, where y_j is the dominant solution
    # of its relation and a backward block would multiply an error by about
    # s^24; the ladder sums every y_j instead, and the case passes as the
    # per-j sums let it
    p = dict(sample_params(ident, seed).params, q=0.3, t=0.8)
    rep = run_case(IdentityCase(ident, p, seed=seed), precision="standard")
    assert rep.passed and rep.rel_err <= 1e-12, rep.rel_err
    name, args = _declared_q_ladder(ident, p)
    want = _direct_q_series(name, args, p["q"])
    got = [complex(ev.value) for ev in islice(getattr(hyper, name)(*args), 41)]
    err = np.abs(np.array(got, np.clongdouble) - want) / np.abs(want)
    assert err.max() <= 1e-13, (int(err.argmax()), err.max())


@pytest.mark.parametrize("ident", ["aw_bilinear", "ac_spoisson"])
def test_8w7_ladder_small_q_does_not_underflow(ident):
    # q = 3e-4, t = 0.012 (s = 0.48): the step's products of four powers
    # q^j reach about 1e-340 at the anchors j = 24, 25, past the smallest
    # double, while the quotients they form are of order one
    p = dict(sample_params(ident, 0).params, q=3e-4, t=0.012)
    rep = run_case(IdentityCase(ident, p, seed=0), precision="standard")
    assert rep.passed and rep.rel_err <= 1e-13, rep.rel_err


@pytest.mark.parametrize("ident", ["chahn_bilinear", "asc_bilinear"])
def test_capped_product_factor_fails_its_case(ident):
    # the right side multiplies directly summed series; one stopped at its
    # term cap is the side's status, so the case fails on it
    case = sample_params(ident, 0)
    rep = run_case(IdentityCase(ident, case.params, policy=TruncationPolicy(max_terms=5),
                                seed=0))
    assert rep.terms["rhs"]["status"] == "MaxTermsReached"
    assert rep.passed is False
