"""Hypergeometric and basic hypergeometric series engine."""
import math
import random
from itertools import islice

import mpmath as mp
import pytest

from qkl.errors import (
    DenominatorPoleError,
    DivergenceError,
    ParamError,
    PoleError,
    PrecisionError,
    QKLError,
    RangeError,
    VWPoleError,
)
import qkl.hyper as hyper
from qkl import numerics
from qkl.hyper import (
    SeriesEval,
    SeriesStatus,
    TruncationPolicy,
    accumulate,
    bhs_rphis,
    contiguous_ladder,
    default_policy,
    detect_termination,
    gauss_2f1,
    hyp_pfq,
    phi21_ladder,
    phi32_ladder,
    stable_eval,
    vwp_8w7,
    vwp_ladder,
)
from qkl.numerics import EXTENDED, STANDARD
from qkl.series import qpoch


def test_policy_validation():
    with pytest.raises(Exception):
        TruncationPolicy(tail_tol=2.0)
    with pytest.raises(Exception):
        TruncationPolicy(quiet_window=0)


def test_detect_termination():
    assert detect_termination([-3, 1.5]) == 3
    assert detect_termination([4.0, 0.3], 0.5) == 2
    assert detect_termination([0.7]) is None
    assert detect_termination([1.0, 0.3], 0.5) == 0


@pytest.mark.parametrize("ctx", [STANDARD, EXTENDED], ids=["standard", "extended"])
def test_classical_termination_is_exact(ctx):
    # a parameter ends its series only when it equals -n or q^-n exactly:
    # 1e-12 i is no 0, and 2F1(a, 1; 1; z) = (1 - z)^(-a) = 1 - 2.877e-13 i
    # at z = -1/3; one part in 1e14 off 4 is no 0.5^-2
    assert detect_termination([1e-12j, 1]) is None
    assert detect_termination([-3 + 1e-13]) is None
    assert detect_termination([EXTENDED.cnum(-4), complex(-7, 0.0)]) == 4
    assert detect_termination([4.0 * (1 + 1e-14)], 0.5) is None
    assert detect_termination([4.0], 0.5) == 2
    a, z = 1e-12j, -1 / 3
    ev = hyp_pfq([a, 1], [1], z, ctx=ctx)
    assert ev.status is SeriesStatus.CONVERGED
    # within the stopping rule's 1e-15 of |value| = 1; exactly 1 is 2.9e-13 off
    ref = complex(mp.power(1 - mp.mpf(z), -mp.mpc(a)))
    assert abs(complex(ev.value) - ref) <= 1e-15


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_q_termination_is_exact_in_each_arithmetic(q):
    # q^-m formed in the parameter's own arithmetic is q^-m; the next
    # double above it is not
    for ctx in (EXTENDED, numerics.extended_context(60)):
        qc = ctx.rnum(q)
        assert [detect_termination([qc ** -m], q) for m in range(31)] == list(range(31))
    for m in range(31):
        assert detect_termination([q ** -m], q) == m
        assert detect_termination([math.nextafter(q ** -m, math.inf)], q) is None


@pytest.mark.parametrize("q, m", [(0.3, 3), (0.5, 4), (0.7, 6)])
def test_next_double_above_q_power_sums_in_full(q, m):
    # 2phi1(u, b; c; q, z) with u one ulp above q^-m is an infinite series:
    # it converges, and agrees with the term-by-term sum at 60 digits
    u, b, c, z = math.nextafter(q ** -m, math.inf), 0.4, 0.25, 0.3
    ev = bhs_rphis([u, b], [c], q, z)
    assert ev.status is SeriesStatus.CONVERGED and ev.terms_used > m + 1
    with mp.workdps(60):
        qm, term, ref = mp.mpf(q), mp.mpf(1), mp.mpf(0)
        for n in range(400):
            ref += term
            x = qm ** n
            term *= (1 - u * x) * (1 - b * x) / ((1 - qm * x) * (1 - c * x)) * z
    # the terms up to n = m cancel to |value| = 3e-3 at q = 0.7: the error
    # is measured on the largest term
    assert abs(ev.value - complex(ref)) <= 1e-14 * 10 ** ev.max_term_log10


def test_pfq_trivial():
    assert hyp_pfq([0.3, -1.2], [0.9], 0.0).value == 1
    ev = hyp_pfq([-1, 2], [4], 0.5)
    assert abs(ev.value - 0.75) < 1e-15
    assert ev.status is SeriesStatus.TERMINATED_FINITE


def test_pfq_log_oracle():
    # 2F1(1,1;2;z) = -log(1-z)/z
    for z in (0.5, -0.7, 0.25):
        ev = hyp_pfq([1, 1], [2], z)
        assert abs(ev.value - (-math.log(1 - z) / z)) < 1e-14


def test_pfq_divergence_and_poles():
    with pytest.raises(DivergenceError):
        hyp_pfq([0.5, 0.5], [1.5], 1.2)
    with pytest.raises(DivergenceError):
        hyp_pfq([0.5, 0.5, 0.7], [1.5], 0.5)   # p > q+1, non-terminating
    with pytest.raises(DenominatorPoleError):
        hyp_pfq([0.5, 0.5], [-2.0], 0.3)
    # termination before the pole is fine: upper -1 stops before (l)_n = 0
    ev = hyp_pfq([-1, 0.5], [-2.0], 0.3)
    assert ev.status is SeriesStatus.TERMINATED_FINITE
    # pole before termination is not
    with pytest.raises(DenominatorPoleError):
        hyp_pfq([-5, 0.5], [-2.0], 0.3)


def test_terminating_policy_independence():
    loose = TruncationPolicy(max_terms=17, tail_tol=1e-3, quiet_window=1)
    tight = TruncationPolicy(max_terms=100000, tail_tol=1e-15, quiet_window=5)
    for upper, lower, z in ([[-6, 1.3], [0.4], 2.5],
                            [[-9, 0.2, 4.0], [1.1, 0.7], -3.0]):
        a = hyp_pfq(upper, lower, z, loose).value
        b = hyp_pfq(upper, lower, z, tight).value
        assert abs(a - b) <= 1e-14 * max(1.0, abs(a))


@pytest.mark.parametrize("ctx", [STANDARD, EXTENDED])
def test_accumulate_ends_a_run_out_iterator_terminated(ctx):
    # terms that run out before the stopping rule or the cap make a
    # terminating sum, summed exactly: tail 0, not MaxTermsReached
    terms = [ctx.cnum(v) for v in (1.0, 0.5, 0.25)]
    ev = accumulate(iter(terms), TruncationPolicy(), ctx)
    assert ev.value == 1.75
    assert (ev.terms_used, ev.tail_estimate) == (3, 0.0)
    assert ev.status is SeriesStatus.TERMINATED_FINITE


def test_gauss_contiguity_in_c():
    rng = random.Random(23)
    for _ in range(25):
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        b = rng.uniform(-2, 2.5)
        c = rng.uniform(1.2, 3.0)
        z = rng.uniform(-0.7, 0.7)
        f = lambda cc: gauss_2f1(a, b, cc, z).value
        res = (c * (c - 1) * (z - 1) * f(c - 1)
               + c * (c - 1 - (2 * c - a - b - 1) * z) * f(c)
               + (c - a) * (c - b) * z * f(c + 1))
        scale = max(abs(f(c)), 1.0) * abs(c) * 3
        assert abs(res) <= 1e-11 * scale


def test_gauss_2f1_pfaff_continuation():
    for z in (-15.0, -1.2, -0.95):
        got = gauss_2f1(complex(1.3, 2), complex(1.3, -1), 2.6, z).value
        with mp.workdps(30):
            ref = complex(mp.hyp2f1(mp.mpc("1.3", "2"), mp.mpc("1.3", "-1"),
                                    mp.mpf("2.6"), z))
        assert abs(got - ref) <= 1e-12 * abs(ref)
    with pytest.raises(DivergenceError):
        gauss_2f1(0.5, 0.7, 1.9, 1.5)  # z/(z-1) = 3 > 1, z > 1


def test_near_boundary_escalation():
    ev = hyp_pfq([0.5, 0.7], [1.9], 0.95)
    assert ev.precision == "extended"
    with mp.workdps(30):
        ref = complex(mp.hyp2f1(0.5, 0.7, 1.9, 0.95))
    assert abs(ev.value - ref) <= 1e-12 * abs(ref)


def test_near_boundary_escalation_measures_its_cancellation():
    # 2F1(20.5, 20.5; 1.5; -0.93) sums terms up to 1e53 to a value of 5e-8:
    # the first, 40-digit attempt keeps none of its digits, and the loop
    # goes on until the value keeps 16
    ev = hyp_pfq([20.5, 20.5], [1.5], -0.93)
    assert ev.precision == "extended"
    with mp.workdps(30):
        ref = complex(mp.hyp2f1(20.5, 20.5, 1.5, -0.93))
    assert abs(ev.value - ref) <= 1e-12 * abs(ref)


def test_rphis_near_boundary_escalation():
    upper, lower, q, z = [0.3, -0.4], [0.6], 0.5, 0.95
    ev = bhs_rphis(upper, lower, q, z)
    assert ev.precision == "extended"
    with mp.workdps(40):
        ref, term, n = mp.mpf(0), mp.mpf(1), 0
        while abs(term) > mp.mpf(10) ** -35:
            ref += term
            qn = mp.mpf(q) ** n
            term *= ((1 - upper[0] * qn) * (1 - upper[1] * qn) * z
                     / ((1 - q * qn) * (1 - lower[0] * qn)))
            n += 1
        ref = complex(ref)
    assert abs(ev.value - ref) <= 1e-12 * abs(ref)


def test_vwp_near_boundary_escalation():
    a, bs, q, z = 0.2, [0.3, 0.4, 0.5, 0.15, 0.25], 0.5, -0.93
    ev = vwp_8w7(a, bs, q, z)
    assert ev.precision == "extended"
    with mp.workdps(40):
        ref, ratio, n = mp.mpf(0), mp.mpf(1), 0
        while n < 10 or abs(ratio) > mp.mpf(10) ** -35:
            qn = mp.mpf(q) ** n
            ref += (1 - a * qn * qn) / (1 - a) * ratio
            factor = (1 - a * qn) * z / (1 - q * qn)
            for b in bs:
                factor *= (1 - b * qn) / (1 - mp.mpf(a) * q / b * qn)
            ratio *= factor
            n += 1
        ref = complex(ref)
    assert abs(ev.value - ref) <= 1e-12 * abs(ref)


def test_rphis_trivial_and_termination():
    assert bhs_rphis([0.3, 0.2], [0.5], 0.5, 0.0).value == 1
    # upper parameter 1 = q^0 terminates at n = 0
    ev = bhs_rphis([1.0, 0.3], [0.2], 0.5, 0.7)
    assert ev.value == 1
    assert ev.status is SeriesStatus.TERMINATED_FINITE


def test_q_binomial_theorem():
    # 1phi0(a; -; q, z) = (az; q)_inf / (z; q)_inf, with a direct-summation
    # cross-check
    a, q, z = 0.3, 0.5, 0.4
    ev = bhs_rphis([a], [], q, z)
    closed = qpoch(a * z, q) / qpoch(z, q)
    assert abs(ev.value - closed) < 1e-14
    direct = sum(complex(qpoch(a, q, n)) / complex(qpoch(q, q, n)) * z ** n
                 for n in range(200))
    assert abs(ev.value - direct) < 1e-14


def test_rphis_zero_parameters():
    # zero upper/lower parameters contribute (0; q)_n = 1
    ev = bhs_rphis([0.25, 0.3, 0.2], [0.4, 0.0], 0.5, 0.5,
                   TruncationPolicy(max_terms=100))
    term_sum = 0
    for n in range(60):
        t = (complex(qpoch(0.25, 0.5, n)) * complex(qpoch(0.3, 0.5, n))
             * complex(qpoch(0.2, 0.5, n))
             / (complex(qpoch(0.5, 0.5, n)) * complex(qpoch(0.4, 0.5, n))) * 0.5 ** n)
        term_sum += t
    assert abs(ev.value - term_sum) < 1e-13


def test_rphis_lower_series_factor():
    # r < s+1 applies the (-1)^n q^C(n,2) convention factor
    a, q, z = 0.4, 0.5, 0.8
    ev = bhs_rphis([a], [0.3], q, z)   # 1phi1
    direct = 0
    for n in range(200):
        direct += (complex(qpoch(a, q, n))
                   / (complex(qpoch(q, q, n)) * complex(qpoch(0.3, q, n)))
                   * (-1) ** n * q ** (n * (n - 1) // 2) * z ** n)
    assert abs(ev.value - direct) < 1e-13


def test_vwp_basic():
    assert vwp_8w7(0.2, [0.3, 0.4, 0.5, 0.15, 0.25], 0.5, 0.0).value == 1
    ev = vwp_8w7(0.2, [1.0, 0.4, 0.5, 0.15, 0.25], 0.5, 0.3)
    assert ev.value == 1  # b = 1 terminates at n = 0
    with pytest.raises(VWPoleError):
        vwp_8w7(1.0, [0.3, 0.4, 0.5, 0.15, 0.25], 0.5, 0.3)
    # a q / b hitting q^{-m} exactly is a denominator pole (b = aq here)
    with pytest.raises(DenominatorPoleError):
        vwp_8w7(0.2, [0.3, 0.4, 0.5, 0.1, 0.25], 0.5, 0.3)


def test_vwp_zero_numerator_parameter():
    # b_i = 0 leaves the denominator a q / b_i undefined unless a = 0
    with pytest.raises(ParamError):
        vwp_8w7(0.2, [0.3, 0.4, 0.5, 0.15, 0.0], 0.5, 0.3)
    # at a = 0 every denominator is 0 and the 8W7 is a 4phi3 with zero lower
    # parameters
    got = vwp_8w7(0.0, [0.3, 0.4, 0.5, 0.15, 0.0], 0.5, 0.3)
    ref = bhs_rphis([0.3, 0.4, 0.5, 0.15], [0, 0, 0], 0.5, 0.3)
    assert abs(got.value - ref.value) <= 1e-14 * abs(ref.value)


def test_vwp_against_direct_extended_summation():
    a, bs, q, z = 0.2, [0.3, 0.4, 0.5, 0.15, 0.25], 0.5, 0.3
    with mp.workdps(40):
        total = mp.mpc(0)
        for n in range(500):
            t = (1 - mp.mpf(a) * mp.mpf(q) ** (2 * n)) / (1 - mp.mpf(a))
            t *= complex(qpoch(a, q, n)) / complex(qpoch(q, q, n))
            for b in bs:
                t *= complex(qpoch(b, q, n)) / complex(qpoch(a * q / b, q, n))
            t *= mp.mpf(z) ** n
            total += t
    got = vwp_8w7(a, bs, q, z)
    assert abs(got.value - complex(total)) <= 1e-13 * abs(complex(total))
    got_ext = vwp_8w7(a, bs, q, z, ctx=EXTENDED)
    assert abs(complex(got_ext.value) - complex(total)) <= 1e-13


def test_default_policy_env_override(monkeypatch):
    monkeypatch.setenv("QKL_MAX_TERMS", "37")
    assert default_policy().max_terms == 37
    monkeypatch.delenv("QKL_MAX_TERMS")
    assert default_policy().max_terms == 10000


def test_stable_eval_overflow_on_every_attempt_is_a_range_error():
    attempts = []

    def build(c):
        attempts.append(c.dps)
        raise OverflowError("too large")

    with pytest.raises(RangeError):
        stable_eval(build, STANDARD)
    assert len(attempts) == 4


@pytest.mark.parametrize("vanishing", [lambda c: 0, lambda c: c.rnum(10) ** -c.dps],
                         ids=["zero", "noise"])
def test_stable_eval_stops_on_a_vanishing_value(vanishing):
    # a value that keeps no significant digit twice (an exact 0, or noise at
    # the working precision under terms of size 1) is returned after two
    # attempts, the second at least 20 digits past the predicted loss
    attempts = []

    def build(c):
        attempts.append(c.dps)
        value = vanishing(c)
        return value, SeriesEval(value, 8, 0.0, SeriesStatus.TERMINATED_FINITE,
                                 c.mode, 0.0)

    value, _, used = stable_eval(build, STANDARD, predicted_lost=3.0)
    assert len(attempts) == 2
    assert attempts[1] >= 3 + 20
    assert used.dps == attempts[-1]
    assert value == vanishing(used)


def _keeps_five_digits(attempts, until=None):
    """A build that keeps 5 digits on every attempt before the ``until``-th,
    and all of them from that one on."""

    def build(c):
        attempts.append(c.dps)
        digits = c.dps if c.extended else 15.95
        lost = 0.0 if until and len(attempts) >= until else digits - 5
        return 1.0, SeriesEval(1.0, 1, 0.0, SeriesStatus.TERMINATED_FINITE,
                               c.mode, lost)

    return build


def test_stable_eval_returns_the_context_it_ran():
    # a build that meets its target on the third attempt: that attempt's
    # context comes back, and no rung above it is built
    attempts = []
    before = set(numerics._LADDER)
    _, _, used = stable_eval(_keeps_five_digits(attempts, until=3), STANDARD)
    assert len(attempts) == 3
    assert used.dps == attempts[-1]
    assert all(dps <= attempts[-1] for dps in set(numerics._LADDER) - before)


def test_stable_eval_missing_its_target_raises_precision_error():
    # a build that keeps 5 digits at every precision never meets its target:
    # the fourth attempt gives up with a PrecisionError, not a value
    attempts = []
    before = set(numerics._LADDER)
    with pytest.raises(PrecisionError, match="after 4 attempts"):
        stable_eval(_keeps_five_digits(attempts), STANDARD)
    assert len(attempts) == 4
    assert all(dps <= attempts[-1] for dps in set(numerics._LADDER) - before)
    assert issubclass(PrecisionError, QKLError)


@pytest.mark.parametrize("upper", [(0.5, 0.7), (0.5,)])
def test_contiguous_ladder_zero_divisor_is_a_pole(upper):
    # c = 0 meets C - 2 = 0 at j = 1, on the way down from the anchors
    with pytest.raises(PoleError):
        next(contiguous_ladder(upper, 0, 0.3))


def test_contiguous_ladder_blocks_and_statuses():
    # the first block is y_0..y_25, recurred down from the anchors y_24 and
    # y_25, which it yields as they were summed; a capped anchor caps its block
    evs = list(islice(contiguous_ladder((0.3, 1.1), 1.7, 0.4), 27))
    for j in (24, 25):
        assert evs[j].value == gauss_2f1(0.3 + j, 1.1 + j, 1.7 + 2 * j, 0.4).value
    assert {ev.status for ev in evs} == {SeriesStatus.CONVERGED}
    capped = next(contiguous_ladder((0.3, 1.1), 1.7, 0.4, TruncationPolicy(max_terms=5)))
    assert capped.status is SeriesStatus.MAX_TERMS_REACHED


@pytest.mark.parametrize("ladder", [
    # C = c q^j = q at j = 1
    lambda: phi21_ladder(0.3, 0.5, 1.0, 0.5, 0.4),
    # V1 = w rho1 q^j = q at j = 1
    lambda: phi32_ladder((0.6, 0.7), (2.0, 0.1), 0.5, 2.1, 0.5),
    # r = ratio q^{2j} = 1 at j = 1
    lambda: vwp_ladder(0.01, (0.3, 0.4, 0.5, 0.6), 4.0, 0.5),
], ids=["2phi1", "3phi2", "8W7"])
def test_q_ladders_zero_divisor_is_a_pole(ladder):
    # the anchors at j = 24, 25 sum; the step from j = 1 to 0 divides by 0
    with pytest.raises(PoleError, match="zero divisor from j = 1 to 0"):
        next(ladder())


@pytest.mark.parametrize("summed, small, large", [
    # s = a z / q: 0.24 and 2.4
    ("bhs_rphis", lambda: phi21_ladder(0.3, 0.5, 0.3, 0.5, 0.4),
     lambda: phi21_ladder(0.9, 0.5, 0.3, 0.3, 0.8)),
    # s = w^2 / (omega q): 0.24 and 1.2
    ("bhs_rphis", lambda: phi32_ladder((0.6, 0.7), (0.5, 0.4), 0.5, 2.1, 0.5),
     lambda: phi32_ladder((0.6, 0.7), (1.2, 0.5), 0.5, 0.7, 0.3)),
    # s = a^2 q / (b1 b2 b3 b4): 0.0014 and 3.5
    ("vwp_8w7", lambda: vwp_ladder(0.01, (0.3, 0.4, 0.5, 0.6), 0.5, 0.5),
     lambda: vwp_ladder(0.5, (0.3, 0.4, 0.5, 0.6), 0.2, 0.5)),
], ids=["2phi1", "3phi2", "8W7"])
def test_q_ladders_sum_every_value_past_the_ratio_bound(monkeypatch, summed, small, large):
    # at |s| <= 1/2 the first 41 values need the anchors at j = 24, 25, 50
    # and 51; past it the other solution of the relation is not damped
    # enough going backward, and each value is its own direct sum
    calls = []
    direct = getattr(hyper, summed)

    def counted(*args):
        calls.append(args)
        return direct(*args)

    monkeypatch.setattr(hyper, summed, counted)
    list(islice(small(), 41))
    assert len(calls) == 4
    calls.clear()
    evs = list(islice(large(), 41))
    assert len(calls) == 41
    assert [ev.value for ev in evs] == [direct(*args).value for args in calls]
