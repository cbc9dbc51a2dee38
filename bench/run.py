"""qkl benchmark: verified operations per second on three workloads.

    python3 bench/run.py --workload q_bilinear --seed 1 --seconds 30 --trace 0

One client runs the workload's fixed operation list (see ``workloads.py``)
in a closed loop, in this process and on this thread: one whole pass, then
further operations in list order until ``--seconds`` have elapsed.  Every
execution is checked: an identity case must report ``passed``, a Gram
matrix must satisfy max|G - I| <= tol, an exact verdict must be True, and
every repeat must reproduce the first pass bit for bit.  Exceptions of any
type are caught per operation.  Failed operations are counted by type in
``failed``; a failed operation or an irreproducible result makes the run
incorrect (the workloads are drawn so that every operation passes).

``--trace 0`` reports the end-to-end metrics, measured untraced.  The
machine this runs on shares its cores: its speed drifts by up to a third,
over seconds to minutes, for every program alike.  So a fixed calibration
unit of pure-Python and mpmath arithmetic runs between operations, at most
every 0.1 s and with the garbage collector paused, and each operation's time
is scaled by CALIBRATION_REF_S / (the median calibration time within 0.5 s of
it): times are reported at the reference speed, at which one calibration
unit takes CALIBRATION_REF_S.
The record keeps the raw times and the calibration samples.

``--trace 1`` alternates untraced and traced passes, reports the per-layer
metrics from the traced ones (see ``tracer.py``), checks that both give
bit-identical results, checks the tracer's call counts against cProfile,
and reports the tracing overhead.  ``--workload all`` runs every workload in
its own process and prints every metric by workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A JSON record of the
run, with the input digest, per-operation results and (traced) spans, is
written under ``.bench_out/``; ``bench/compare.py`` compares two records.
"""
from __future__ import annotations

import argparse
import bisect
import collections
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)
SETUP_CODE = ("import time; t = time.perf_counter(); import qkl; "
              "print(repr(time.perf_counter() - t))")
# Median time of calibration_unit() on a 2-core x86-64 VM under Python 3.11.7
# and pure-Python mpmath 1.3.0, the machine of the first baseline.
CALIBRATION_REF_S = 0.0025
CALIBRATION_EVERY_S = 0.1
CALIBRATION_WINDOW_S = 0.5


def tail_percentile(samples) -> tuple[float, float, int]:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it.

    Percentiles are nearest-rank: the p-th is the ceil(p n / 100)-th smallest
    sample, and the samples beyond it are the n - ceil(p n / 100) above that
    rank.  Returns (value, percentile, samples beyond); with fewer than 20
    samples no percentile qualifies and the median is returned.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            best = (xs[rank - 1], p, n - rank)
    if best is None:
        rank = math.ceil(n / 2)
        return xs[rank - 1], 50, n - rank
    return best


def calibration_unit():
    """Fixed work in the styles qkl's time goes to: complex floats, Python
    big integers and mpmath numbers."""
    import mpmath

    z, acc = complex(0.3, 0.4), 0j
    for i in range(1, 400):
        acc += z ** i / i
    n, m = 7 ** 300, 11 ** 290
    for i in range(200):
        n = (n * 12345 + i) % m
    with mpmath.workdps(50):
        x = mpmath.mpf(1) / 3
        for i in range(150):
            x = x * x + mpmath.mpf(i) / (i + 1)
            x = x / (1 + x)
    return acc, n, x


class SpeedProbe:
    """Samples the machine's speed with calibration units during a run."""

    def __init__(self):
        self.at: list[float] = []     # end time of each sample
        self.times: list[float] = []  # its duration
        self.last = -math.inf

    def sample(self):
        # a collection of qkl's heap inside the unit would make it slower and
        # so hide a regression that grows the heap
        gc.disable()
        try:
            t0 = time.perf_counter()
            calibration_unit()
            self.last = time.perf_counter()
        finally:
            gc.enable()
        self.at.append(self.last)
        self.times.append(self.last - t0)

    def maybe_sample(self):
        if time.perf_counter() - self.last >= CALIBRATION_EVERY_S:
            self.sample()

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Multiplier taking a time measured in [start, end] to the reference
        speed, from the samples taken in that interval widened by
        CALIBRATION_WINDOW_S (from all samples when none fall in it)."""
        lo = bisect.bisect_left(self.at, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + CALIBRATION_WINDOW_S)
        return CALIBRATION_REF_S / statistics.median(self.times[lo:hi]
                                                      or self.times)


def measure_setup() -> tuple[float, float]:
    """Median time of ``import qkl`` in fresh interpreters, raw and at the
    reference speed (calibrated just before each import).  The first import
    is a warm-up (it may compile bytecode) and is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        probe = SpeedProbe()
        for _ in range(5):
            probe.sample()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        if i:
            raw.append(float(out.stdout.strip().splitlines()[-1]))
            scaled.append(raw[-1] * probe.factor())
    return statistics.median(raw), statistics.median(scaled)


def environment() -> dict:
    import mpmath
    import numpy

    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


# ---------------------------------------------------------------------------
# passes


def run_pass(ops, run_op, tracer=None):
    """Execute every operation once; returns (outcomes, latencies, seconds)."""
    outcomes, lat = [], []
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        outcomes.append(run_op(op))
        lat.append(clock() - t0)
    return outcomes, lat, clock() - start


def first_of_each_kind(ops):
    """The first operation of each label: one round of the workload."""
    seen = {}
    for op in ops:
        seen.setdefault(op.label, op)
    return list(seen.values())


class Tally:
    """Pass/fail accounting over every execution of a run; ``first`` holds
    the outcomes of the first pass, which every repeat must reproduce."""

    def __init__(self, first):
        self.first = first
        self.attempted = 0
        self.failures = collections.Counter()
        self.failing_ops: dict[int, str] = {}

    def add(self, i, out):
        self.attempted += 1
        if out.fingerprint != self.first[i].fingerprint:
            reason = "nondeterministic"
        elif out.error is not None:
            reason = out.error
        elif not out.passed:
            reason = "check_failed"
        else:
            return
        self.failures[reason] += 1
        self.failing_ops.setdefault(i, reason)

    def add_pass(self, outcomes):
        for i, out in enumerate(outcomes):
            self.add(i, out)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        """Every execution passed its check.  The workloads leave out the
        known crash regions, so a failure here is a regression."""
        return self.attempted > 0 and self.failed == 0


def result_summary(ops, first) -> dict:
    """Worst error per identity, and the digits of the numeric operations:
    their minimum and their tail, the lowest percentile with at least ten
    operations below it (the minimum itself hinges on the one rare
    near-tolerance case a seed may or may not draw)."""
    worst: dict[str, float] = {}
    digits = []
    for op, out in zip(ops, first):
        if out.digits is not None:
            digits.append(out.digits)
        if out.rel_err is not None:
            worst[op.label] = max(worst.get(op.label, 0.0), out.rel_err)
    if not digits:
        return {"worst_rel_err": worst, "min_digits": math.nan,
                "digits_tail": (math.nan, 0, 0)}
    low, pct, below = tail_percentile([-d for d in digits])
    return {"worst_rel_err": worst, "min_digits": min(digits),
            "digits_tail": (-low, 100 - pct, below)}


def timed_run(ops, seconds: float, run_op) -> dict:
    """End-to-end metrics of the untraced closed loop: one whole pass, then
    operations in list order until ``seconds`` of operation time."""
    setup_raw, setup_s = measure_setup()
    for op in first_of_each_kind(ops):  # lazy set-up in numpy and mpmath
        run_op(op)
    probe = SpeedProbe()
    probe.sample()
    clock = time.perf_counter
    n = len(ops)
    executions = []  # (op index, start, seconds)

    def execute(i):
        t0 = clock()
        out = run_op(ops[i])
        dt = clock() - t0
        executions.append((i, t0, dt))
        probe.maybe_sample()
        return out, dt

    first = []
    busy = 0.0
    for i in range(n):
        out, dt = execute(i)
        first.append(out)
        busy += dt
    tally = Tally(first)
    tally.add_pass(first)
    while busy < seconds:
        i = len(executions) % n
        out, dt = execute(i)
        tally.add(i, out)
        busy += dt
    per_op = [[] for _ in ops]
    for i, t0, dt in executions:
        per_op[i].append(dt * probe.factor(t0, t0 + dt))
    scaled_busy = sum(sum(x) for x in per_op)
    verified = tally.attempted - tally.failed  # every execution is tallied
    op_ms = [1e3 * statistics.median(x) for x in per_op]
    tail, pct, beyond = tail_percentile(op_ms)
    summary = result_summary(ops, first)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (verified / scaled_busy, "ops/s"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.tail": (tail, "ms"),
        "digits.tail": (summary["digits_tail"][0], "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB"),
    }
    return {
        "metrics": metrics, "tally": tally, "first": first,
        "correct": tally.correct,
        "detail": {
            "fail_frac": tally.failed / tally.attempted,
            "op_ms.tail_percentile": pct,
            "op_ms.tail_samples_beyond": beyond,
            "op_ms.samples": len(op_ms),
            "digits.tail_percentile": summary["digits_tail"][1],
            "digits.tail_samples_below": summary["digits_tail"][2],
            "min_digits": summary["min_digits"],
            "executions": len(executions),
            "busy_s": busy,
            "speed_factor": scaled_busy / busy,
            "raw": {"setup_s": setup_raw, "ops_per_s": verified / busy},
            "calibration": [probe.at, probe.times],
            "timeline": executions,
            "worst_rel_err": summary["worst_rel_err"],
            "op_ms": op_ms,
        },
    }


def cprofile_mismatch(ops, run_op) -> tuple[dict, int]:
    """Wrapped-call counts of one traced pass over ``ops`` against cProfile's
    counts of the original functions: a call that bypassed a wrapper shows as
    a mismatch.  Returns ({span name: [spans, cProfile calls]} for each name
    that differs, number of names checked)."""
    import cProfile

    from tracer import Tracer, profile_counts

    check = Tracer()
    prof = cProfile.Profile()
    with check:
        prof.enable()
        try:
            run_pass(ops, run_op, check)
        finally:
            prof.disable()
    functions = {name: [fn] for name, fn in check.originals.items()
                 if not name.endswith("_stream")}
    profiled = profile_counts(prof, functions)
    sides = check.registry_functions()
    profiled.update(profile_counts(prof, sides, delegates=[
        fn for fns in sides.values() for fn in fns]))
    span_calls = collections.Counter(check.spans.name)
    return ({name: [span_calls[name], n] for name, n in profiled.items()
             if span_calls[name] != n}, len(profiled))


def traced_run(ops, seconds: float, run_op) -> dict:
    """Per-layer metrics from traced passes, with the integrity checks."""
    from tracer import Tracer, layer_metrics

    for op in first_of_each_kind(ops):
        run_op(op)
    tracer = Tracer()
    first = None
    untraced_s = traced_s = 0.0
    mismatched = set()
    passes = 0
    while passes == 0 or untraced_s + traced_s < seconds:
        plain, _, dt_plain = run_pass(ops, run_op)
        with tracer:
            traced, _, dt_traced = run_pass(ops, run_op, tracer)
        if first is None:
            first = plain
            tally = Tally(first)
        tally.add_pass(plain)
        tally.add_pass(traced)
        mismatched.update(i for i, (a, b) in enumerate(zip(plain, traced))
                          if a.fingerprint != b.fingerprint)
        untraced_s += dt_plain
        traced_s += dt_traced
        passes += 1

    count_mismatch, checked = cprofile_mismatch(first_of_each_kind(ops),
                                                run_op)
    metrics = layer_metrics(tracer, passes)
    summary = result_summary(ops, first)
    return {
        "metrics": metrics, "tally": tally, "first": first, "tracer": tracer,
        "correct": tally.correct and not mismatched and not count_mismatch,
        "detail": {
            "fail_frac": tally.failed / tally.attempted,
            "passes": passes,
            "tracing_overhead": traced_s / untraced_s,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "spans": len(tracer.spans),
            "traced_untraced_mismatch_ops": sorted(mismatched),
            "cprofile_count_mismatch": count_mismatch,
            "cprofile_functions_checked": checked,
            "worst_rel_err": summary["worst_rel_err"],
        },
    }


# ---------------------------------------------------------------------------
# output


def write_record(args, ops, digest, res) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "digest": digest, "environment": environment(),
        "correct": res["correct"], "attempted": res["tally"].attempted,
        "failed": res["tally"].failed,
        "failures": dict(res["tally"].failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()},
        "detail": res["detail"],
        "operations": [
            {"label": op.label, "passed": out.passed, "digits": out.digits,
             "error": out.error, "fingerprint": out.fingerprint}
            for op, out in zip(ops, res["first"])],
    }
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    if "tracer" in res:
        spans = res["tracer"].spans
        names = sorted(set(spans.name))
        index = {n: i for i, n in enumerate(names)}
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps({
            "names": names,
            "name": [index[n] for n in spans.name],
            **{f: getattr(spans, f).tolist()
               for f in ("start", "end", "parent", "op", "nested")},
        }, separators=(",", ":")) + "\n")
    return path


def run_workload(args) -> int:
    from workloads import build_ops, digest, run_op

    left_out = []
    ops = build_ops(args.workload, args.seed, left_out)
    dig = digest(ops)
    if args.trace:
        res = traced_run(ops, args.seconds, run_op)
    else:
        res = timed_run(ops, args.seconds, run_op)
    res["detail"]["left_out_known_crashes"] = collections.Counter(
        case.identity_id for case in left_out)
    path = write_record(args, ops, dig, res)
    tally = res["tally"]
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations, "
          f"input digest {dig[:16]}")
    for ident, n in sorted(res["detail"]["left_out_known_crashes"].items()):
        print(f"  left out {n} {ident} draw(s) in a known crash region "
              f"(workloads.KNOWN_CRASHES)")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    detail = res["detail"]
    print(f"  fail_frac = {detail['fail_frac']:.6g} fraction "
          f"({tally.failed} of {tally.attempted} executions)")
    if "op_ms.tail_percentile" in detail:
        print(f"  op_ms.tail is p{detail['op_ms.tail_percentile']:g} of "
              f"{detail['op_ms.samples']} per-operation medians "
              f"({detail['op_ms.tail_samples_beyond']} beyond), "
              f"{detail['executions']} executions")
        print(f"  digits.tail is p{detail['digits.tail_percentile']:g} of "
              f"the numeric operations "
              f"({detail['digits.tail_samples_below']} below); "
              f"min_digits = {detail['min_digits']:.6g} digits")
        print(f"  speed factor = {detail['speed_factor']:.4f} over "
              f"{len(detail['calibration'][0])} calibration units "
              f"(raw ops_per_s = {detail['raw']['ops_per_s']:.6g} ops/s)")
    if "tracing_overhead" in detail:
        print(f"  tracing overhead = {detail['tracing_overhead']:.4f} "
              f"(traced / untraced wall time over {detail['passes']} passes), "
              f"{detail['spans']} spans")
        print(f"  traced == untraced results: "
              f"{not detail['traced_untraced_mismatch_ops']}; wrapped-call "
              f"counts == cProfile over {detail['cprofile_functions_checked']} "
              f"functions: {not detail['cprofile_count_mismatch']}")
    for ident, err in sorted(detail["worst_rel_err"].items()):
        print(f"  worst rel_err {ident} = {err:.3e}")
    for i, reason in sorted(tally.failing_ops.items()):
        print(f"  FAILED op {i} ({ops[i].label}): {reason}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": res["correct"], "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (so peak_rss_mb stays per workload)."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qkl" / "__init__.py").is_file():
        print(f"qkl sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
