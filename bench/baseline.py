"""Measure a baseline: every workload on ten seeds untraced, once traced.

    python3 bench/baseline.py

Runs ``bench/run.py`` one process at a time (nothing else should run on the
machine meanwhile), then prints, per workload and end-to-end metric, the
median, the quartiles and the spread (quartile distance over median) next to
the metric's bound from ``BENCHMARK.json``, and writes the baseline: the
environment, the quartiles, the worst ``rel_err`` per identity over all
seeds, the candidate draws left out as known crashes, the per-layer metrics
of one traced run (including ``identities.<id>.case_ms``) and the
layer-to-end-to-end map, to ``bench/baseline.json``.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))

# Which end-to-end metric each per-layer metric should move, on which workload.
LAYER_MAP = [
    {"layer_metrics": ["polys.aw_poly.busy_s", "polys.asc_poly.busy_s",
                       "hyper.stable_eval.attempts",
                       "hyper.stable_eval.escalated_frac",
                       "numerics.extended_context.calls", "numerics.max_dps",
                       "series.qpoch.busy_s"],
     "moves": ["ops_per_s", "op_ms.p50", "op_ms.tail"],
     "on": ["q_bilinear"], "flat_on": ["classical_bilinear", "light_verify"]},
    {"layer_metrics": ["hyper.accumulate.self_s", "hyper.hyp_pfq.*",
                       "hyper.gauss_2f1.*", "polys.chahn_poly.busy_s",
                       "polys.jacobi_poly.busy_s", "polys.hahn_poly.busy_s",
                       "series.pochhammer.busy_s"],
     "moves": ["ops_per_s"], "on": ["classical_bilinear"]},
    {"layer_metrics": ["hyper.accumulate.self_s"], "moves": ["op_ms.p50"],
     "on": ["light_verify"]},
    {"layer_metrics": ["kernels.*", "hyper.vwp_8w7.busy_s",
                       "polys.stream_values"],
     "moves": ["op_ms.p50"], "on": ["light_verify"]},
    {"layer_metrics": ["kernels.ac_kernel_closed.*"], "moves": ["ops_per_s"],
     "on": ["q_bilinear"]},
    {"layer_metrics": ["quadrature.*", "exact.*"], "moves": ["op_ms.tail"],
     "on": ["light_verify"]},
    {"layer_metrics": ["identities.self_s", "identities.jsum_terms",
                       "identities.extended_retries"],
     "moves": ["ops_per_s"], "on": ["q_bilinear", "classical_bilinear"]},
    {"layer_metrics": ["hyper.max_cancel_digits",
                       "hyper.stable_eval.escalated_frac"],
     "moves": ["digits.tail"], "on": ["q_bilinear", "classical_bilinear",
                                     "light_verify"]},
    {"layer_metrics": ["any memo"], "moves": ["peak_rss_mb"],
     "on": ["q_bilinear", "classical_bilinear", "light_verify"]},
    {"layer_metrics": ["work moved into import"], "moves": ["setup_s"],
     "on": ["q_bilinear", "classical_bilinear", "light_verify"]},
]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=900, check=True)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": last, "record": record}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run(workload, seed, spec["run_seconds"], 0))
            r = runs[-1]["result"]
            print(workload, seed, r["correct"], r["attempted"], r["failed"],
                  {k: round(v["value"], 4) for k, v in r["metrics"].items()},
                  flush=True)
        e2e = {}
        for name, bound in bounds.items():
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            e2e[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound, "values": vals}
            flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:12s} median {med:.5g} spread {spread:.4f} "
                  f"(bound {bound}, {flag})", flush=True)
        worst, left_out = {}, {}
        for r in runs:
            for ident, n in r["record"]["detail"][
                    "left_out_known_crashes"].items():
                left_out[ident] = left_out.get(ident, 0) + n
            for ident, err in r["record"]["detail"]["worst_rel_err"].items():
                worst[ident] = max(worst.get(ident, 0.0), err)
        traced = run(workload, SEEDS[0], spec["run_seconds"], 1)
        baseline[workload] = {
            "seeds": SEEDS,
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "digests": {s: r["record"]["digest"] for s, r in zip(SEEDS, runs)},
            "end_to_end": e2e,
            "worst_rel_err": worst,
            "left_out_known_crashes": left_out,
            "traced_seed": SEEDS[0],
            "tracing_overhead": traced["record"]["detail"]["tracing_overhead"],
            "traced_correct": traced["result"]["correct"],
            "per_layer": {k: v["value"]
                          for k, v in traced["result"]["metrics"].items()},
        }
        print(f"  tracing overhead {baseline[workload]['tracing_overhead']:.3f}",
              flush=True)
    doc = {"environment": runs[-1]["record"]["environment"],
           "run_seconds": spec["run_seconds"],
           "workloads": {w["name"]: w["why"] for w in spec["workloads"]},
           "layer_map": LAYER_MAP, "baseline": baseline}
    (BENCH / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
