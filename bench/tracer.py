"""Outside-in tracing of qkl's layers.

The tracer replaces, from outside the package, the binding of each public
layer function in every loaded ``qkl`` module that holds it (so
``identities``' by-name imports and the ``polys._stable_eval`` alias are
covered too), and the ``eval_lhs``/``eval_rhs`` callables of every registry
entry.  Each wrapped call records one span (name, start, end, parent span,
operation id, nested) in flat in-memory arrays; ``nested`` marks a span that re-enters a function already on the
stack (the escalating re-entry of ``hyp_pfq``), so inclusive busy time counts
only the outermost span of each name.  Counters that need a call's arguments
or result (terms summed, escalations, stream values) are taken in the same
wrapper.  Wrappers pass every argument and result through unchanged, so a
traced run computes bit-identical values.
"""
from __future__ import annotations

import array
import collections
import dataclasses
import functools
import inspect
import math
import statistics
import sys
import time

# (module, function) pairs wrapped with a span, per layer.
SPAN_TARGETS = (
    ("series", "qpoch"), ("series", "pochhammer"), ("series", "bessel_j"),
    ("numerics", "extended_context"),
    ("hyper", "hyp_pfq"), ("hyper", "bhs_rphis"), ("hyper", "vwp_8w7"),
    ("hyper", "gauss_2f1"), ("hyper", "accumulate"), ("hyper", "stable_eval"),
    ("polys", "aw_poly"), ("polys", "asc_poly"), ("polys", "chahn_poly"),
    ("polys", "hahn_poly"), ("polys", "jacobi_poly"), ("polys", "mp_poly"),
    ("polys", "sj_ac"), ("polys", "sj_mp"),
    ("kernels", "mp_kernel_sum"), ("kernels", "mp_kernel_closed"),
    ("kernels", "ac_kernel_sum"), ("kernels", "ac_kernel_closed"),
    ("kernels", "ac_kernel_closed_alt"),
    ("identities", "run_case"),
    ("quadrature", "ortho_gram"), ("quadrature", "mp_weight"),
    ("quadrature", "aw_weight"),
    ("exact", "verify_mult_2f1_exact"), ("exact", "verify_hahn_exact"),
)
# Generator functions: counted per yielded value, no span.
STREAM_TARGETS = (("polys", "mp_orthonormal_stream"),
                  ("polys", "asc_orthonormal_stream"))
SERIES_ENGINES = ("hyper.hyp_pfq", "hyper.bhs_rphis", "hyper.vwp_8w7")
IDENTITY_IDS = (
    "mp_poisson", "mp_recurrence", "hahn_product", "chahn_bilinear",
    "jacobi_bessel", "chahn_finite", "chahn_finite_whipple", "mult_2f1",
    "burchnall_chaundy", "conf_1f1", "hahn_bilinear_discrete", "ac_poisson",
    "ac_poisson_alt", "ac_spoisson", "aw_bilinear", "cdqh_bilinear",
    "asc_bilinear", "cbqh_reduction", "mp_spoisson",
)



class Spans:
    """Spans in parallel arrays, indexed by span id (the order of entry)."""

    def __init__(self):
        self.name: list[str] = []
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.nested = array.array("b")

    def __len__(self):
        return len(self.name)

    def add(self, name: str, parent: int, op: int, nested: bool) -> int:
        sid = len(self.name)
        self.name.append(name)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(parent)
        self.op.append(op)
        self.nested.append(nested)
        return sid

    def duration(self, sid: int) -> float:
        return self.end[sid] - self.start[sid]


def _arg(sig: inspect.Signature, name: str, args, kwargs):
    """Value of parameter ``name`` in a call, falling back to its default."""
    if name in kwargs:
        return kwargs[name]
    params = list(sig.parameters)
    i = params.index(name)
    if i < len(args):
        return args[i]
    return sig.parameters[name].default


class Tracer:
    """Span recorder and layer counters for one traced run.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original binding.  ``op`` is set by the caller to the id
    of the operation being executed.
    """

    def __init__(self):
        self.spans = Spans()
        self.stack: list[int] = []
        self.depth: collections.Counter = collections.Counter()
        self.op = -1
        self.counts: collections.Counter = collections.Counter()
        self.max_dps = 0
        self.max_cancel = 0.0
        self.case_ids: dict[int, str] = {}
        self.gauss_z: dict[int, object] = {}
        self.pfaff_spans: set[int] = set()
        self._last_result: dict[str, object] = {}
        self._patches: list[tuple] = []
        self._registry = None
        self.originals: dict[str, object] = {}

    # -- installation ---------------------------------------------------------
    def __enter__(self):
        import qkl.identities as identities

        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "qkl" or n.startswith("qkl.")) and m is not None]
        for mod_name, fn_name in SPAN_TARGETS + STREAM_TARGETS:
            orig = getattr(sys.modules[f"qkl.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            self.originals[name] = orig
            if (mod_name, fn_name) in STREAM_TARGETS:
                wrapper = self._stream_wrapper(orig)
            else:
                wrapper = self._span_wrapper(name, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        self._registry = dict(identities.REGISTRY)
        for key, entry in self._registry.items():
            identities.REGISTRY[key] = dataclasses.replace(
                entry,
                eval_lhs=self._span_wrapper("identities.lhs", entry.eval_lhs),
                eval_rhs=self._span_wrapper("identities.rhs", entry.eval_rhs))
        return self

    def __exit__(self, *exc):
        import qkl.identities as identities

        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()
        identities.REGISTRY.clear()
        identities.REGISTRY.update(self._registry)
        return False

    def registry_functions(self) -> dict:
        """The original lhs/rhs callables, for call-count cross-checks."""
        return {"identities.lhs": [e.eval_lhs for e in self._registry.values()],
                "identities.rhs": [e.eval_rhs for e in self._registry.values()]}

    # -- wrappers -------------------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        before, after = self._hooks(name, fn)
        spans, stack, depth = self.spans, self.stack, self.depth
        start, end = spans.start, spans.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = spans.add(name, stack[-1] if stack else -1, self.op,
                            depth[name] > 0)
            if before is not None:
                args = before(sid, args, kwargs)
            stack.append(sid)
            depth[name] += 1
            start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if name == "identities.run_case":
                    self.counts["identities.errored"] += 1
                raise
            finally:
                end[sid] = clock()
                depth[name] -= 1
                stack.pop()
            if after is not None:
                after(sid, args, kwargs, result)
            return result

        return wrapper

    def _stream_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for value in fn(*args, **kwargs):
                counts["polys.stream_values"] += 1
                yield value

        return wrapper

    def _hooks(self, name: str, fn):
        """(before, after) callbacks for the counters of one function."""
        sig = inspect.signature(fn)
        counts = self.counts

        if name in SERIES_ENGINES:
            def after(sid, args, kwargs, ev):
                if (not _arg(sig, "ctx", args, kwargs).extended
                        and ev.precision == "extended"):
                    counts["hyper.boundary_escalations"] += 1
                # an escalating call returns its re-entry's result object:
                # count its terms once
                if ev is self._last_result.get(name):
                    return
                self._last_result[name] = ev
                counts[f"{name}.terms"] += ev.terms_used
                lost = ev.cancellation_digits()
                if math.isfinite(lost):
                    self.max_cancel = max(self.max_cancel, lost)
            before = None
            if name == "hyper.hyp_pfq":
                def before(sid, args, kwargs):
                    parent = self.spans.parent[sid]
                    if parent in self.gauss_z and parent not in self.pfaff_spans:
                        # the direct route hands gauss_2f1's own z through
                        if _arg(sig, "z", args, kwargs) is not self.gauss_z[parent]:
                            self.pfaff_spans.add(parent)
                    return args
            return before, after
        if name == "hyper.gauss_2f1":
            def before(sid, args, kwargs):
                self.gauss_z[sid] = _arg(sig, "z", args, kwargs)
                return args

            def after(sid, args, kwargs, ev):
                del self.gauss_z[sid]
                counts[f"{name}.terms"] += ev.terms_used
            return before, after
        if name == "hyper.accumulate":
            def after(sid, args, kwargs, ev):
                counts[f"{name}.terms"] += ev.terms_used
                if ev.status.value == "MaxTermsReached":
                    counts["hyper.max_terms_hits"] += 1
            return None, after
        if name == "hyper.stable_eval":
            def before(sid, args, kwargs):
                build = args[0]

                def counted_build(c):
                    counts["hyper.stable_eval.attempts"] += 1
                    return build(c)
                return (counted_build,) + tuple(args[1:])

            def after(sid, args, kwargs, result):
                if result[2] is not _arg(sig, "ctx", args, kwargs):
                    counts["hyper.stable_eval.escalated"] += 1
            return before, after
        if name == "numerics.extended_context":
            def after(sid, args, kwargs, ctx):
                self.max_dps = max(self.max_dps, ctx.dps)
            return None, after
        if name in ("kernels.mp_kernel_sum", "kernels.ac_kernel_sum"):
            def after(sid, args, kwargs, ev):
                counts["kernels.sum_terms"] += ev.terms_used
            return None, after
        if name == "quadrature.ortho_gram":
            def after(sid, args, kwargs, res):
                counts["quadrature.evaluations"] += res.evaluations
            return None, after
        if name == "identities.run_case":
            def after(sid, args, kwargs, report):
                self.case_ids[sid] = report.identity_id
                if report.note == "extended retry":
                    counts["identities.extended_retries"] += 1
                if not report.passed:
                    counts["identities.failed"] += 1
                for meta in report.terms.values():
                    # j-sum drivers report a stop status and no series tail
                    if "status" in meta and "tail" not in meta:
                        counts["identities.jsum_terms"] += meta["terms"]
                        if meta["status"] != "Converged":
                            counts["identities.jsum_unconverged"] += 1
            return None, after
        return None, None


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: Spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [e - s for s, e in zip(spans.start, spans.end)]
    for sid, parent in enumerate(spans.parent):
        if parent >= 0:
            out[parent] -= spans.duration(sid)
    return out


def busy_and_self(spans: Spans) -> tuple[dict, dict, collections.Counter]:
    """Per span name: inclusive busy time (outermost spans of the name only),
    summed self time, and call count (every span)."""
    selfs = self_times(spans)
    busy: dict[str, float] = collections.defaultdict(float)
    own: dict[str, float] = collections.defaultdict(float)
    calls = collections.Counter(spans.name)
    for sid, (name, st) in enumerate(zip(spans.name, selfs)):
        own[name] += st
        if not spans.nested[sid]:
            busy[name] += spans.duration(sid)
    return busy, own, calls


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, per pass over the operations.

    Returns name -> (value, unit).  Times are seconds per pass; counts are
    per pass; ``identities.<id>.case_ms`` is the median case time in ms (0
    for identities the workload does not run).
    """
    busy, own, calls = busy_and_self(tracer.spans)
    c = tracer.counts
    m: dict[str, tuple[float, str]] = {}

    def per(x):
        return x / passes

    for fn in ("qpoch", "pochhammer", "bessel_j"):
        m[f"series.{fn}.calls"] = (per(calls[f"series.{fn}"]), "count")
        m[f"series.{fn}.busy_s"] = (per(busy[f"series.{fn}"]), "s")
    m["numerics.extended_context.calls"] = (
        per(calls["numerics.extended_context"]), "count")
    m["numerics.max_dps"] = (tracer.max_dps, "digits")
    for fn in ("hyp_pfq", "bhs_rphis", "vwp_8w7", "gauss_2f1", "accumulate"):
        name = f"hyper.{fn}"
        m[f"{name}.calls"] = (per(calls[name]), "count")
        m[f"{name}.busy_s"] = (per(busy[name]), "s")
        m[f"{name}.self_s"] = (per(own[name]), "s")
        m[f"{name}.terms"] = (per(c[f"{name}.terms"]), "count")
    se_calls = calls["hyper.stable_eval"]
    attempts = c["hyper.stable_eval.attempts"]
    m["hyper.stable_eval.calls"] = (per(se_calls), "count")
    m["hyper.stable_eval.busy_s"] = (per(busy["hyper.stable_eval"]), "s")
    m["hyper.stable_eval.attempts"] = (per(attempts), "count")
    m["hyper.stable_eval.useful_frac"] = (
        se_calls / attempts if attempts else 0.0, "fraction")
    m["hyper.stable_eval.escalated_frac"] = (
        c["hyper.stable_eval.escalated"] / se_calls if se_calls else 0.0,
        "fraction")
    m["hyper.boundary_escalations"] = (per(c["hyper.boundary_escalations"]),
                                       "count")
    g_calls = calls["hyper.gauss_2f1"]
    m["hyper.pfaff_frac"] = (
        len(tracer.pfaff_spans) / g_calls if g_calls else 0.0, "fraction")
    m["hyper.max_terms_hits"] = (per(c["hyper.max_terms_hits"]), "count")
    m["hyper.max_cancel_digits"] = (tracer.max_cancel, "digits")
    for fn in ("aw_poly", "asc_poly", "chahn_poly", "hahn_poly", "jacobi_poly",
               "mp_poly", "sj_ac", "sj_mp"):
        name = f"polys.{fn}"
        m[f"{name}.calls"] = (per(calls[name]), "count")
        m[f"{name}.busy_s"] = (per(busy[name]), "s")
        m[f"{name}.self_s"] = (per(own[name]), "s")
    m["polys.stream_values"] = (per(c["polys.stream_values"]), "count")
    for fn in ("mp_kernel_sum", "mp_kernel_closed", "ac_kernel_sum",
               "ac_kernel_closed", "ac_kernel_closed_alt"):
        name = f"kernels.{fn}"
        m[f"{name}.calls"] = (per(calls[name]), "count")
        m[f"{name}.busy_s"] = (per(busy[name]), "s")
        m[f"{name}.self_s"] = (per(own[name]), "s")
    m["kernels.sum_terms"] = (per(c["kernels.sum_terms"]), "count")
    m["identities.cases"] = (per(calls["identities.run_case"]), "count")
    m["identities.lhs_s"] = (per(busy["identities.lhs"]), "s")
    m["identities.rhs_s"] = (per(busy["identities.rhs"]), "s")
    m["identities.self_s"] = (per(own["identities.run_case"]
                                  + own["identities.lhs"]
                                  + own["identities.rhs"]), "s")
    for key in ("jsum_terms", "jsum_unconverged", "extended_retries",
                "failed", "errored"):
        m[f"identities.{key}"] = (per(c[f"identities.{key}"]), "count")
    case_s = collections.defaultdict(list)
    for sid, ident in tracer.case_ids.items():
        case_s[ident].append(tracer.spans.duration(sid))
    for ident in IDENTITY_IDS:
        vals = case_s.get(ident)
        m[f"identities.{ident}.case_ms"] = (
            1e3 * statistics.median(vals) if vals else 0.0, "ms")
    m["quadrature.ortho_gram.calls"] = (per(calls["quadrature.ortho_gram"]),
                                        "count")
    m["quadrature.ortho_gram.busy_s"] = (per(busy["quadrature.ortho_gram"]),
                                         "s")
    m["quadrature.evaluations"] = (per(c["quadrature.evaluations"]), "count")
    m["quadrature.weight_s"] = (per(busy["quadrature.mp_weight"]
                                    + busy["quadrature.aw_weight"]), "s")
    for fn in ("verify_mult_2f1_exact", "verify_hahn_exact"):
        name = f"exact.{fn}"
        m[f"{name}.calls"] = (per(calls[name]), "count")
        m[f"{name}.busy_s"] = (per(busy[name]), "s")
    return m


def _code_key(fn) -> tuple:
    code = inspect.unwrap(fn).__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def profile_counts(profile, functions: dict, delegates=()) -> dict[str, int]:
    """cProfile call counts of the original (unwrapped) functions, summed per
    span name; ``functions`` maps a span name to a list of callables.

    Calls made by one of the ``delegates`` are not counted.  Pass the
    registry sides as delegates only when counting the sides themselves: a
    side that hands its work to another side function (``cbqh_reduction``'s
    rhs is ``asc_bilinear``'s) is one side, timed once.  A layer function
    called by a side is always counted, so a binding the tracer missed shows
    as a mismatch.
    """
    import pstats

    stats = pstats.Stats(profile).stats
    skip = {_code_key(fn) for fn in delegates}
    out = {}
    for name, fns in functions.items():
        total = 0
        for fn in fns:
            entry = stats.get(_code_key(fn))
            if entry is not None:
                # callers map caller -> (calls, primitive calls, tt, ct)
                total += sum(c[0] for caller, c in entry[4].items()
                             if caller not in skip)
        out[name] = total
    return out
