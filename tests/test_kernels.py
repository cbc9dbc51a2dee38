"""Poisson kernels: bilinear sums against the printed closed forms."""
import cmath
import math
import os
import subprocess
import sys
import types
from itertools import islice
from pathlib import Path

import mpmath as mp
import pytest

from qkl.errors import DivergenceError, DomainError
from qkl.hyper import SeriesStatus, TruncationPolicy
from qkl.identities import run_case, sample_params
from qkl.kernels import (
    KernelPoint,
    ac_kernel_closed,
    ac_kernel_closed_alt,
    ac_kernel_closed_ladder,
    ac_kernel_sum,
    mp_kernel_closed,
    mp_kernel_closed_ladder,
    mp_kernel_sum,
)
from qkl.numerics import EXTENDED, STANDARD


def test_kernel_point_validation():
    with pytest.raises(DivergenceError):
        KernelPoint(1.0, 0.0, 0.0)
    for closed in (ac_kernel_closed, ac_kernel_closed_alt):
        with pytest.raises(DomainError):
            closed(0.7, 0.5, KernelPoint(0.5, 1.5, 0.0, s=1.0, sigma=1.0))


def test_mp_kernel_closed_branch_violation_is_a_domain_error():
    # KernelPoint refuses |t| >= 1; a point that skips its check (a plain
    # namespace at t = 1.5, where 1 - t < 0) meets the principal-branch
    # check, which python -O keeps
    with pytest.raises(DomainError, match="principal branch"):
        mp_kernel_closed(0.8, 1.1, types.SimpleNamespace(t=1.5, x=0.3, y=-0.2))
    code = ("import types\n"
            "from qkl.errors import DomainError\n"
            "from qkl.kernels import mp_kernel_closed\n"
            "try:\n"
            "    mp_kernel_closed(0.8, 1.1, types.SimpleNamespace(t=1.5, x=0.3, y=-0.2))\n"
            "except DomainError:\n"
            "    print('DomainError')\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "DomainError"


def test_mp_kernel_t0():
    for k in (0.5, 1.0, 2.3):
        pt = KernelPoint(0.0, 0.4, -0.8)
        ev = mp_kernel_sum(k, 1.2, pt)
        assert abs(ev.value - 1 / math.gamma(2 * k)) < 1e-14
        # t^n vanishes from n = 1 on: the sum is its first term, terminated
        assert (ev.terms_used, ev.status) == (1, SeriesStatus.TERMINATED_FINITE)
        assert abs(mp_kernel_closed(k, 1.2, pt).value - 1 / math.gamma(2 * k)) < 1e-14


def test_mp_kernel_diagonal_positivity():
    # 200-term partial-sum oracle on the diagonal
    pt = KernelPoint(0.3, 0.0, 0.0)
    ev = mp_kernel_sum(1.0, math.pi / 2, pt, TruncationPolicy(max_terms=200))
    assert ev.value.real > 0
    assert abs(ev.value.imag) < 1e-14


def test_mp_kernel_sum_vs_closed():
    cases = [(0.8, 1.1, 0.4, 0.5, -0.3),
             (1.3, math.pi / 2, 0.6, 2.0, -1.0),   # |r| = 15: Pfaff regime
             (0.4, 2.6, -0.55, 3.2, 1.1),
             (2.5, 0.5, 0.55, -4.0, 4.5)]
    for k, phi, t, x, y in cases:
        pt = KernelPoint(t, x, y)
        a = mp_kernel_sum(k, phi, pt).value
        b = mp_kernel_closed(k, phi, pt).value
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))


def test_mp_kernel_complex_t():
    pt = KernelPoint(0.2 + 0.25j, 1.0, 0.5)
    a = mp_kernel_sum(0.7, 0.9, pt).value
    b = mp_kernel_closed(0.7, 0.9, pt).value
    assert abs(a - b) <= 1e-12 * abs(b)


def test_mp_kernel_reality_and_symmetry():
    pt = KernelPoint(-0.45, 1.7, -2.2)
    v = mp_kernel_closed(0.9, 1.4, pt).value
    assert abs(v.imag) <= 1e-9 * abs(v.real)
    swapped = KernelPoint(-0.45, -2.2, 1.7)
    w = mp_kernel_closed(0.9, 1.4, swapped).value
    assert abs(v - w) <= 1e-11 * abs(v)


def test_mp_kernel_truncation_consistency():
    pt = KernelPoint(0.8, 0.6, -0.4)
    short = mp_kernel_sum(0.9, 1.3, pt, TruncationPolicy(max_terms=25))
    full = mp_kernel_sum(0.9, 1.3, pt, TruncationPolicy(max_terms=50))
    assert short.status.value == "MaxTermsReached"
    assert abs(full.value - short.value) <= short.tail_estimate


def test_ac_kernel_t0():
    pt = KernelPoint(0.0, 0.2, -0.4, s=1.1, sigma=0.9)
    ev = ac_kernel_sum(0.7, 0.5, pt)
    assert abs(ev.value - 1) < 1e-14
    assert (ev.terms_used, ev.status) == (1, SeriesStatus.TERMINATED_FINITE)
    assert abs(ac_kernel_closed(0.7, 0.5, pt).value - 1) < 1e-14
    assert abs(ac_kernel_closed_alt(0.7, 0.5, pt).value - 1) < 1e-13


def test_ac_kernel_diagonal_positivity():
    pt = KernelPoint(0.4, 0.3, 0.3, s=1.2, sigma=1.2)
    ev = ac_kernel_sum(0.8, 0.5, pt, TruncationPolicy(max_terms=300))
    assert ev.value.real > 0
    assert abs(ev.value.imag) < 1e-12


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_ac_kernel_sum_vs_closed_vs_alt(q):
    pt = KernelPoint(0.35, 0.2, -0.4, s=1.1, sigma=0.9)
    a = ac_kernel_sum(0.7, q, pt).value
    b = ac_kernel_closed(0.7, q, pt).value
    c = ac_kernel_alt = ac_kernel_closed_alt(0.7, q, pt).value
    assert abs(a - b) <= 1e-9 * abs(b)
    assert abs(b - c) <= 1e-9 * abs(b)


def test_ac_kernel_unit_circle_spectral_parameter():
    pt = KernelPoint(0.3, 0.1, 0.6, s=cmath.exp(0.8j), sigma=cmath.exp(-0.5j))
    a = ac_kernel_sum(0.6, 0.5, pt).value
    b = ac_kernel_closed(0.6, 0.5, pt).value
    assert abs(a - b) <= 1e-11 * abs(b)


def _ladder_points(seeds):
    """(k, q, KernelPoint) of the ac_poisson and ac_spoisson draws."""
    for seed in seeds:
        p = sample_params("ac_poisson", seed).params
        yield p["k"], p["q"], KernelPoint(p["t"], p["x"], p["y"], s=p["s"],
                                          sigma=p["sigma"])
        p = sample_params("ac_spoisson", seed).params
        yield p["k1"] + p["k2"], p["q"], KernelPoint(p["t"], p["x1"], p["y1"],
                                                     s=p["s"], sigma=p["sigma"])


@pytest.mark.parametrize("ctx, seeds, js", [(STANDARD, range(10), range(41)),
                                            (EXTENDED, range(2), range(0, 21, 5))],
                         ids=["standard", "extended"])
def test_ac_kernel_closed_ladder_matches_closed_form(ctx, seeds, js):
    # K_{k+j} carried from K_k against the closed form evaluated afresh at
    # k + j; the first rung too is recurred from the anchors at j = 24, 25
    for k, q, pt in _ladder_points(seeds):
        ladder = list(islice(ac_kernel_closed_ladder(k, q, pt, ctx=ctx), js[-1] + 1))
        for j in js:
            want = ac_kernel_closed(k + j, q, pt, ctx=ctx).value
            assert abs(ladder[j].value - want) <= 1e-12 * abs(want), (k, q, j)


def test_ac_kernel_symmetry():
    pt = KernelPoint(0.3, 0.2, -0.4, s=1.1, sigma=0.9)
    sw = KernelPoint(0.3, -0.4, 0.2, s=0.9, sigma=1.1)
    a = ac_kernel_closed(0.7, 0.5, pt).value
    b = ac_kernel_closed(0.7, 0.5, sw).value
    assert abs(a - b) <= 1e-11 * abs(a)


def test_ac_kernel_reality():
    pt = KernelPoint(-0.35, 0.3, -0.6, s=1.15, sigma=0.85)
    v = ac_kernel_closed(0.9, 0.5, pt).value
    assert abs(v.imag) <= 1e-9 * abs(v.real)


def test_ac_kernel_spectral_window_enforced():
    with pytest.raises(DomainError):
        ac_kernel_sum(0.7, 0.5, KernelPoint(0.3, 0.2, -0.4, s=9.0, sigma=0.9))
    with pytest.raises(DomainError):
        ac_kernel_closed(0.7, 0.5, KernelPoint(0.3, 0.2, 0.4))


def test_extended_kernel_sums_leave_mpmath_precision_alone():
    # extended values carry their own mpmath context: neither the kernel sums,
    # which drop their recurrence streams once converged, nor a case set
    # mpmath's global precision
    dps = mp.mp.dps
    mp_kernel_sum(1.0, 1.0, KernelPoint(0.3, 0.5, -0.2), ctx=EXTENDED)
    assert mp.mp.dps == dps
    ac_kernel_sum(0.7, 0.5, KernelPoint(0.3, 0.2, -0.4, s=1.1, sigma=0.9),
                  ctx=EXTENDED)
    assert mp.mp.dps == dps
    run_case(sample_params("mp_poisson", 3), precision="extended")
    assert mp.mp.dps == dps


@pytest.mark.parametrize("ctx, seeds, js", [(STANDARD, range(10), range(31)),
                                            (EXTENDED, range(2), range(0, 31, 5))],
                         ids=["standard", "extended"])
def test_mp_kernel_closed_ladder_matches_closed_form(ctx, seeds, js):
    # K_{k+j} carried from K_k on the mp_spoisson draws (k = k1 + k2 at the
    # summed points X, Y) against the closed form evaluated afresh at k + j
    for seed in seeds:
        p = sample_params("mp_spoisson", seed).params
        k, pt = p["k1"] + p["k2"], KernelPoint(p["t"], p["x1"] + p["x2"], p["y1"] + p["y2"])
        ladder = list(islice(mp_kernel_closed_ladder(k, p["phi"], pt, ctx=ctx), js[-1] + 1))
        for j in js:
            want = mp_kernel_closed(k + j, p["phi"], pt, ctx=ctx).value
            assert abs(ladder[j].value - want) <= 1e-12 * abs(want), (seed, j)
