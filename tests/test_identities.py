"""Identity registry: samplers, validators, degenerate anchors, and seeded
verification sweeps."""
import threading
from itertools import count

import mpmath as mp
import pytest

from qkl.errors import HypothesisError
from qkl.hyper import TruncationPolicy
from qkl.identities import (
    IdentityCase,
    _sum_j,
    get_entry,
    identity_ids,
    run_case,
    sample_params,
)
from qkl.numerics import STANDARD

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
