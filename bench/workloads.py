"""The benchmark's workloads: operations generated from a seed, each one call
into a public qkl function, with the check that decides whether it passed.

Every workload is a fixed list of operations derived from the benchmark's
``--seed``; identity seeds, Gram-matrix parameters and rational parameters
are all drawn from one ``random.Random`` keyed by workload and seed, never
hand-picked.  The list is fixed so that the set of inputs, and therefore the
digest, the worst error and the tail percentile, do not depend on how fast
the program runs.

Case cost varies several-fold with the parameters, mostly with the modulus
of the argument that sets how long a series or bilinear sum runs (t, r, z,
the finite sum length K or the degree n), so identity cases are drawn by
stratified sampling: a pool of candidate seeds is sorted by that cost key
and one case is drawn from each of equal-sized slices of the pool.  Each run still samples the identity's own
parameter distribution, but runs on different seeds differ far less in
total work than independent draws would.

Every operation of a workload passes on the code it was defined on, so that
any failure reads as a regression.  The one parameter region where qkl is
known to crash (KNOWN_CRASHES) is therefore left out of the candidate pools;
each run reports how many draws it left out, so the defect stays in view.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import qkl

# The identities of each workload (why each was chosen: BENCHMARK.json).
# light_verify also runs Gram matrices and exact verdicts.
WORKLOADS = {
    "q_bilinear": ("aw_bilinear", "ac_spoisson", "cdqh_bilinear",
                   "asc_bilinear", "cbqh_reduction"),
    "classical_bilinear": ("hahn_product", "chahn_bilinear", "mult_2f1",
                           "burchnall_chaundy", "conf_1f1", "mp_spoisson",
                           "jacobi_bessel", "chahn_finite",
                           "chahn_finite_whipple"),
    "light_verify": ("mp_poisson", "mp_recurrence", "ac_poisson",
                     "ac_poisson_alt", "hahn_bilinear_discrete"),
}
# Rounds per workload: each round runs every operation kind once.  The sizes
# (100, 450 and 720 operations) make one pass take about 20-25 s on a
# 2-core machine, enough inputs for the medians and the p90/p95 tails.
ROUNDS = {"q_bilinear": 20, "classical_bilinear": 50, "light_verify": 80}
POOL = 8  # candidate seeds per stratum
# Known crashes, left out of the candidate pools: mp_spoisson raises a
# ValueError in polys.sj_mp whenever k1 + k2 <= 1/2, because the j = 0
# weight takes log(2 k1 + 2 k2 - 1) (ROADMAP item 2; about 1 draw in 500).
KNOWN_CRASHES = {"mp_spoisson": lambda p: p["k1"] + p["k2"] <= 0.5}
GRAM_NMAX = 8
GRAM_TOL = 1e-9
EXACT_K = 8


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` selects the qkl call, ``params`` its inputs."""

    kind: str
    label: str
    params: dict


@dataclass
class Outcome:
    """Result of one operation, or the type of the exception it raised."""

    passed: bool
    digits: float | None = None
    fingerprint: str = ""
    error: str | None = None
    rel_err: float | None = None


def _digits(err: float) -> float:
    return -math.log10(max(err, 1e-17))


def run_op(op: Op) -> Outcome:
    """Execute one operation and apply its correctness check.

    Exceptions of any type are caught and recorded, so one bad case never
    aborts the run; the attribute lookups on ``qkl`` happen at call time, so
    a traced run goes through the tracer's wrappers.
    """
    try:
        if op.kind == "case":
            r = qkl.run_case(op.params["case"])
            return Outcome(r.passed, _digits(r.rel_err),
                           f"{r.lhs!r}|{r.rhs!r}|{r.rel_err!r}|{r.passed}",
                           rel_err=r.rel_err)
        if op.kind == "gram":
            p = dict(op.params)
            res = qkl.ortho_gram(p.pop("family"), p, nmax=GRAM_NMAX,
                                 tol=GRAM_TOL)
            dev = float(np.max(np.abs(res.value - np.eye(GRAM_NMAX + 1))))
            digest = hashlib.sha256(res.value.tobytes()).hexdigest()
            return Outcome(dev <= GRAM_TOL, _digits(dev),
                           f"{digest}|{res.error_estimate!r}|{res.evaluations}")
        if op.kind == "exact_mult":
            p = op.params
            ok, bad_k = qkl.verify_mult_2f1_exact(
                p["a"], p["b"], p["c"], p["a2"], p["b2"], p["c2"], K=EXACT_K)
            return Outcome(ok is True, fingerprint=f"{ok!r}|{bad_k!r}")
        if op.kind == "exact_hahn":
            p = op.params
            ok = qkl.verify_hahn_exact(p["alpha"], p["beta"], p["M"], p["N"],
                                       p["x"], p["y"], p["z"])
            return Outcome(ok is True, fingerprint=repr(ok))
        raise ValueError(f"unknown operation kind {op.kind!r}")
    except Exception as exc:  # noqa: BLE001 - every failure is recorded
        return Outcome(False, fingerprint=f"error:{type(exc).__name__}:{exc}",
                       error=type(exc).__name__)


# ---------------------------------------------------------------------------
# operation generators


COST_KEYS = {
    # the argument of the kernel closed form's 2F1 sets the j-sum length
    "mp_spoisson": lambda p: (4 * abs(p["t"]) * math.sin(p["phi"]) ** 2
                              / abs(1 - p["t"]) ** 2),
    "conf_1f1": lambda p: abs(p["x"]) + abs(p["y"]),
}


def _strata_key(case) -> float:
    """The parameter that sets a case's cost: the identity's entry in
    COST_KEYS, else the modulus of the first of t, r, z, K, n it has."""
    p = case.params
    if case.identity_id in COST_KEYS:
        return COST_KEYS[case.identity_id](p)
    return abs(complex(next((p[k] for k in ("t", "r", "z", "K", "n")
                             if k in p), 0.0)))


def _cases(rng: random.Random, identity_id: str, n: int,
           left_out: list) -> list[Op]:
    """``n`` cases of one identity, one from each slice of a candidate pool
    sorted by cost-setting parameters, in random order.  Candidates in a
    known crash region are appended to ``left_out`` and replaced."""
    crashes = KNOWN_CRASHES.get(identity_id, lambda p: False)
    pool = []
    while len(pool) < n * POOL:
        case = qkl.sample_params(identity_id, rng.randrange(2 ** 31))
        (left_out if crashes(case.params) else pool).append(case)
    pool.sort(key=_strata_key)
    cases = [rng.choice(pool[i * POOL:(i + 1) * POOL]) for i in range(n)]
    rng.shuffle(cases)
    return [Op("case", identity_id, {"case": c}) for c in cases]


def _frac(rng: random.Random, lo: int, hi: int) -> Fraction:
    den = rng.randrange(2, 9)
    return Fraction(rng.randrange(lo * den, hi * den + 1), den)


def _gram_mp(rng: random.Random) -> Op:
    return Op("gram", "ortho_mp", {
        "family": "mp", "k": rng.uniform(0.3, 2.5),
        "phi": rng.uniform(0.3, math.pi - 0.3)})


def _gram_asc(rng: random.Random, q: float) -> Op:
    """ASC parameters in the absolutely continuous regime: real, or a
    conjugate pair, with moduli below 1."""
    if rng.random() < 0.5:
        a, b = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
    else:
        a = complex(rng.uniform(-0.8, 0.8), rng.uniform(0.1, 0.8))
        a *= min(1.0, 0.8 / abs(a))
        b = a.conjugate()
    return Op("gram", "ortho_asc", {"family": "asc", "q": q, "a": a, "b": b})


def _exact_mult(rng: random.Random, gaussian: bool) -> Op:
    """Rational 2F1 multiplication parameters; a + a' and b + b' are kept off
    the nonpositive integers, where the expansion is undefined."""
    while True:
        v = {"a": _frac(rng, -2, 2), "b": _frac(rng, -2, 2),
             "c": _frac(rng, 1, 3), "a2": _frac(rng, -2, 2),
             "b2": _frac(rng, -2, 2), "c2": _frac(rng, 1, 3)}
        if gaussian:
            v["a"] = qkl.gr(v["a"], _frac(rng, -1, 1))
            v["b2"] = qkl.gr(v["b2"], _frac(rng, -1, 1))
        if not any((qkl.gr(0) + v[u] + v[u2]).is_nonpositive_integer()
                   for u, u2 in (("a", "a2"), ("b", "b2"))):
            return Op("exact_mult", "exact_mult_2f1", v)


def _exact_hahn(rng: random.Random) -> Op:
    M, N = rng.randrange(2, 7), rng.randrange(2, 7)
    return Op("exact_hahn", "exact_hahn", {
        "alpha": qkl.gr(_frac(rng, 0, 3)), "beta": qkl.gr(_frac(rng, 0, 3)),
        "M": M, "N": N, "x": rng.randrange(M + 1), "y": rng.randrange(N + 1),
        "z": qkl.gr(_frac(rng, -2, 2))})


def build_ops(workload: str, seed: int, left_out: list | None = None
              ) -> list[Op]:
    """The operation list of ``workload`` for ``seed`` (deterministic).
    Candidate cases left out as known crashes are appended to ``left_out``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"bench:{workload}:{seed}")
    rounds = ROUNDS[workload]
    left_out = [] if left_out is None else left_out
    columns = [_cases(rng, i, rounds, left_out) for i in WORKLOADS[workload]]
    if workload == "light_verify":
        # q cycles over the sampler's three bases, every third exact case
        # has Gaussian-rational parameters
        columns += [[_gram_mp(rng) for _ in range(rounds)],
                    [_gram_asc(rng, (0.3, 0.5, 0.7)[r % 3])
                     for r in range(rounds)],
                    [_exact_mult(rng, gaussian=r % 3 == 2)
                     for r in range(rounds)],
                    [_exact_hahn(rng) for _ in range(rounds)]]
    # round-robin order, so that every prefix of a pass mixes all kinds
    return [col[r] for r in range(rounds) for col in columns]


def _param_repr(op: Op) -> list:
    if op.kind == "case":
        case = op.params["case"]
        return [op.kind, op.label, case.seed, repr(case.tol_rel),
                [[k, repr(v)] for k, v in sorted(case.params.items())]]
    return [op.kind, op.label,
            [[k, repr(v)] for k, v in sorted(op.params.items())]]


def digest(ops: list[Op]) -> str:
    """sha256 of the generated parameters of every operation, in order."""
    blob = json.dumps([_param_repr(op) for op in ops], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
