"""Tests of the benchmark's own logic.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import qkl  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


# -- op_ms.tail -------------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(20, 50), (39, 50), (40, 75), (99, 75),
                                    (100, 90), (108, 90), (200, 95),
                                    (1000, 99), (10000, 99.9)])
def test_tail_picks_highest_percentile_with_ten_beyond(n, pct):
    value, p, beyond = run.tail_percentile(list(range(n, 0, -1)))
    assert p == pct
    assert beyond >= 10
    assert beyond == sum(1 for x in range(1, n + 1) if x > value)


def test_tail_falls_back_to_median_below_twenty_samples():
    value, p, beyond = run.tail_percentile([5.0, 1.0, 3.0])
    assert (value, p, beyond) == (3.0, 50, 1)


# -- span arithmetic ----------------------------------------------------------

def _spans(*rows):
    spans = tr.Spans()
    for name, start, end, parent, nested in rows:
        sid = spans.add(name, parent, 0, nested)
        spans.start[sid], spans.end[sid] = start, end
    return spans


def test_self_time_subtracts_direct_children_only():
    spans = _spans(("a", 0.0, 10.0, -1, False),
                   ("b", 1.0, 5.0, 0, False),
                   ("c", 2.0, 3.0, 1, False),
                   ("b", 6.0, 9.0, 0, False))
    assert tr.self_times(spans) == [3.0, 3.0, 1.0, 3.0]
    busy, own, calls = tr.busy_and_self(spans)
    assert busy["b"] == 7.0 and own["b"] == 6.0 and calls["b"] == 2


def test_recursive_span_counts_busy_once():
    spans = _spans(("f", 0.0, 10.0, -1, False),
                   ("f", 1.0, 9.0, 0, True),
                   ("g", 2.0, 8.0, 1, False))
    busy, own, calls = tr.busy_and_self(spans)
    assert busy["f"] == 10.0
    assert own["f"] == 2.0 + 2.0
    assert calls["f"] == 2


def test_escalating_hyp_pfq_nests_inside_itself():
    # non-terminating 2F1 with |z| in the escalation band re-enters hyp_pfq
    # at extended precision
    plain = qkl.hyp_pfq([0.5, 0.5], [1.5], 0.95)
    with tr.Tracer() as t:
        traced = qkl.hyp_pfq([0.5, 0.5], [1.5], 0.95)
    assert traced.value == plain.value
    spans = t.spans
    pfq = [i for i, n in enumerate(spans.name) if n == "hyper.hyp_pfq"]
    assert len(pfq) == 2
    outer, inner = pfq
    assert spans.parent[inner] == outer and spans.nested[inner]
    acc = [i for i, n in enumerate(spans.name) if n == "hyper.accumulate"]
    assert len(acc) == 1 and spans.parent[acc[0]] == inner
    m = tr.layer_metrics(t, passes=1)
    assert m["hyper.hyp_pfq.calls"][0] == 2
    assert m["hyper.boundary_escalations"][0] == 1
    assert m["hyper.hyp_pfq.terms"][0] == plain.terms_used
    assert m["hyper.hyp_pfq.busy_s"][0] == pytest.approx(spans.duration(outer))


def test_unpatched_binding_shows_as_cprofile_mismatch(monkeypatch):
    # jacobi_bessel's rhs side calls identities' by-name bessel_j directly,
    # and nothing else that is wrapped
    enter = tr.Tracer.__enter__

    def enter_missing_one(self):
        enter(self)
        qkl.identities.bessel_j = self.originals["series.bessel_j"]
        return self

    case = qkl.sample_params("jacobi_bessel", 0)

    def rhs_only(op):
        entry = qkl.identities.REGISTRY["jacobi_bessel"]
        return entry.eval_rhs(case.params, case.policy, qkl.numerics.STANDARD)

    assert run.cprofile_mismatch([None], rhs_only)[0] == {}
    monkeypatch.setattr(tr.Tracer, "__enter__", enter_missing_one)
    mismatch, _ = run.cprofile_mismatch([None], rhs_only)
    assert mismatch == {"series.bessel_j": [0, 2]}


def test_tracer_restores_every_binding():
    before = (qkl.run_case, qkl.polys._stable_eval, qkl.identities.aw_poly,
              dict(qkl.identities.REGISTRY))
    with tr.Tracer():
        assert qkl.identities.aw_poly is not before[2]
        assert qkl.polys._stable_eval is not before[1]
    after = (qkl.run_case, qkl.polys._stable_eval, qkl.identities.aw_poly,
             dict(qkl.identities.REGISTRY))
    assert after == before


def test_speed_factor_scales_to_the_reference_unit():
    probe = run.SpeedProbe()
    probe.times = [2 * run.CALIBRATION_REF_S, 2 * run.CALIBRATION_REF_S]
    assert probe.factor() == 0.5
    probe.sample()
    assert len(probe.times) == 3 and probe.times[-1] > 0


# -- inputs -------------------------------------------------------------------

def _digest_in_fresh_process(workload, seed, hashseed):
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import workloads; "
            "print(workloads.digest(workloads.build_ops(sys.argv[3], "
            "int(sys.argv[4]))))")
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"),
                          str(BENCH), workload, str(seed)],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    return out.stdout.strip()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_digest_is_stable_for_a_fixed_seed(workload):
    d = workloads.digest(workloads.build_ops(workload, 3))
    assert d == workloads.digest(workloads.build_ops(workload, 3))
    assert d == _digest_in_fresh_process(workload, 3, hashseed=12345)
    assert d != workloads.digest(workloads.build_ops(workload, 4))


def test_known_crash_region_is_left_out_and_reported():
    # seed 27 draws one mp_spoisson candidate with k1 + k2 <= 1/2
    left_out = []
    ops = workloads.build_ops("classical_bilinear", 27, left_out)
    assert [c.identity_id for c in left_out] == ["mp_spoisson"]
    with pytest.raises(ValueError):
        qkl.run_case(left_out[0])
    crashes = workloads.KNOWN_CRASHES["mp_spoisson"]
    assert not any(crashes(op.params["case"].params) for op in ops
                   if op.label == "mp_spoisson")
    assert len(ops) == len(workloads.build_ops("classical_bilinear", 1))


def test_compare_refuses_different_digests():
    rec = {"workload": "q_bilinear", "trace": 0, "digest": "aa", "failed": 0,
           "metrics": {"ops_per_s": {"value": 2.0, "unit": "ops/s"}}}
    other = dict(rec, metrics={"ops_per_s": {"value": 3.0, "unit": "ops/s"}})
    assert "x1.5000" in compare.compare(rec, other)[1]
    with pytest.raises(ValueError, match="digest"):
        compare.compare(rec, dict(other, digest="bb"))


# -- failure accounting ---------------------------------------------------------

def test_exception_of_any_type_is_recorded_not_raised(monkeypatch):
    ops = workloads.build_ops("light_verify", 0)[:2]

    def boom(case, precision="auto"):
        raise ValueError("math domain error")

    monkeypatch.setattr(qkl, "run_case", boom)
    outs = [workloads.run_op(op) for op in ops]
    assert [o.error for o in outs] == ["ValueError", "ValueError"]
    tally = run.Tally(outs)
    tally.add_pass(outs)
    assert tally.failures == {"ValueError": 2}
    assert tally.failed == 2 and not tally.correct


def test_failed_check_counts_and_irreproducible_result_is_incorrect():
    ops = workloads.build_ops("light_verify", 0)[:3]
    outs = [workloads.run_op(op) for op in ops]
    assert all(o.passed for o in outs)
    tally = run.Tally(outs)
    tally.add_pass(outs)
    assert tally.failed == 0 and tally.correct
    tally.add(0, workloads.Outcome(False, fingerprint=outs[0].fingerprint))
    assert tally.failures == {"check_failed": 1} and not tally.correct
    tally.add(1, workloads.Outcome(True, fingerprint="different"))
    assert tally.failures["nondeterministic"] == 1 and not tally.correct


def test_failed_operation_lowers_ops_per_s(monkeypatch):
    monkeypatch.setattr(run, "measure_setup", lambda: (1.0, 1.0))
    ops = workloads.build_ops("light_verify", 0)[:4]

    def run_op(op):
        out = workloads.run_op(op)
        return dataclasses.replace(out, passed=False) if op is ops[0] else out

    res = run.timed_run(ops, 0.0, run_op)
    detail = res["detail"]
    assert res["tally"].failures == {"check_failed": 1}
    verified = detail["executions"] - 1
    assert res["metrics"]["ops_per_s"][0] * detail["speed_factor"] == \
        pytest.approx(verified / detail["busy_s"])
    assert detail["raw"]["ops_per_s"] == pytest.approx(
        verified / detail["busy_s"])


# -- smoke runs ---------------------------------------------------------------

E2E = {"setup_s", "ops_per_s", "op_ms.p50", "op_ms.tail", "digits.tail",
       "peak_rss_mb"}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_one_round_untraced_and_traced(workload):
    ops = run.first_of_each_kind(workloads.build_ops(workload, 0))
    res = run.timed_run(ops, 0.0, workloads.run_op)
    assert res["tally"].correct and res["tally"].failed == 0
    assert set(res["metrics"]) == E2E
    assert all(v > 0 for v, _ in res["metrics"].values())
    detail = res["detail"]
    assert res["metrics"]["ops_per_s"][0] * detail["speed_factor"] == \
        pytest.approx(detail["raw"]["ops_per_s"])

    traced = run.traced_run(ops, 0.0, workloads.run_op)
    assert traced["correct"], traced["detail"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(traced["metrics"]) == {m["name"] for m in declared}
    assert traced["metrics"]["identities.cases"][0] == sum(
        op.kind == "case" for op in ops)


def test_command_line_prints_result_line():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                          "light_verify", "--seed", "0", "--seconds", "0",
                          "--trace", "0"],
                         capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= len(
        workloads.build_ops("light_verify", 0))
    for name, m in res["metrics"].items():
        assert any(line.strip().startswith(f"{name} = ") and
                   line.strip().endswith(m["unit"]) for line in lines)
    assert any("fail_frac" in line for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    script = tmp_path / "bench" / "run.py"
    script.write_text((BENCH / "run.py").read_text())
    out = subprocess.run([sys.executable, str(script), "--workload",
                          "q_bilinear", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], capture_output=True, text=True,
                         timeout=60, cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""
