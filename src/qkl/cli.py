"""Command-line front end: evaluate objects, run identity suites, sweep
parameter grids, and check orthonormality, with machine-readable reports.

Exit codes: 0 success, 1 identity failures, 2 bad input, 3 numerical
divergence.  Reports are byte-deterministic for a fixed configuration:
results are ordered by (identity, seed) and floats are rendered with 17
significant digits; no timestamps are embedded.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys

from . import __version__
from .errors import ConvergenceError, DivergenceError, ParamError, QKLError
from .exact import EXACT_ROUTES, exact_case
from .hyper import bhs_rphis, default_policy, gauss_2f1, hyp_pfq, vwp_8w7
from .identities import IdentityCase, _nonneg_int, get_entry, identity_ids, run_case, sample_params
from .kernels import (
    KernelPoint,
    ac_kernel_closed,
    ac_kernel_sum,
    mp_kernel_closed,
    mp_kernel_sum,
)
from .polys import (
    ASCParams,
    AWParams,
    CHahnParams,
    HahnParams,
    MPParams,
    asc_poly,
    aw_poly,
    chahn_poly,
    hahn_poly,
    jacobi_poly,
    mp_poly,
)
from .quadrature import ortho_gram

# ---------------------------------------------------------------------------
# deterministic rendering


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x in (float("inf"), float("-inf")):
        return f'"{x}"'
    return format(float(x), ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Small deterministic JSON renderer: floats at 17 significant digits,
    complex values as [re, im] pairs, keys in insertion order."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f"{pad}  {json.dumps(k)}: {render_json(v, indent + 1)}"
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ", ".join(render_json(v, indent + 1) for v in obj)
        return "[" + items + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, complex):
        return f"[{_fmt_float(obj.real)}, {_fmt_float(obj.imag)}]"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, complex):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    if isinstance(v, dict):
        return json.dumps(v, separators=(",", ":"), default=str)
    return str(v)


# ---------------------------------------------------------------------------
# parameter parsing


def parse_value(text: str):
    """Parse a CLI parameter: int, float, complex (Python literal), a
    comma-separated list of those, or a bare string (enum values)."""
    if "," in text:
        return [parse_value(t) for t in text.split(",")]
    for conv in (int, float, complex):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def parse_kv(tokens) -> dict:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParamError(f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        out[key] = parse_value(val)
    return out


def load_params_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    out = {}
    for key, val in raw.items():
        if isinstance(val, list):
            if len(val) != 2:
                raise ParamError(f"complex parameter {key} needs [re, im]")
            out[key] = complex(val[0], val[1])
        else:
            out[key] = val
    return out


def _parse_seeds(text: str) -> list:
    if ".." not in text:
        return [int(text)]
    lo, hi = (int(t) for t in text.split("..", 1))
    if hi < lo:
        raise ParamError(f"empty seed range {text!r}: the upper end is below the lower")
    return list(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    evaluate = {"poly": _eval_poly, "kernel": _eval_kernel, "series": _eval_series}
    value, meta = evaluate[args.target](parse_kv(args.params))
    print(f"value = {_csv_cell(value)}")
    for key, v in meta.items():
        print(f"{key} = {v}")
    return 0


def _eval_poly(p: dict):
    family = p.pop("family", None)
    n = _nonneg_int(p, "n", ParamError)
    x = float(p.pop("x"))
    ortho = bool(p.pop("orthonormal", 0))
    if family == "mp":
        return mp_poly(MPParams(p["k"], p["phi"]), n, x, ortho), {}
    if family == "chahn":
        return chahn_poly(CHahnParams(p["a"], p["b"], p["c"], p["d"]), n, x), {}
    if family == "hahn":
        N = _nonneg_int(p, "N", ParamError)
        return hahn_poly(HahnParams(p["alpha"], p["beta"], N), n, x), {}
    if family == "jacobi":
        return jacobi_poly(p["alpha"], p["beta"], n, x), {}
    if family == "aw":
        return aw_poly(AWParams(p["q"], p["a"], p["b"], p["c"], p["d"]), n, x), {}
    if family == "asc":
        return asc_poly(ASCParams(p["q"], p["a"], p["b"]), n, x, ortho), {}
    raise ParamError(f"unknown polynomial family {family!r}")


def _eval_kernel(p: dict):
    family = p.pop("family", None)
    closed = bool(p.pop("closed", 0))
    if family == "mp":
        pt = KernelPoint(p["t"], p["x"], p["y"])
        kernel = mp_kernel_closed if closed else mp_kernel_sum
        ev = kernel(p["k"], p["phi"], pt)
    elif family == "ac":
        pt = KernelPoint(p["t"], p["x"], p["y"], s=p["s"], sigma=p["sigma"])
        kernel = ac_kernel_closed if closed else ac_kernel_sum
        ev = kernel(p["k"], p["q"], pt)
    else:
        raise ParamError(f"unknown kernel family {family!r}")
    return _series_result(ev)


def _series_result(ev):
    return ev.value, {"terms_used": ev.terms_used, "tail_estimate": ev.tail_estimate,
                      "status": ev.status.value}


def _as_list(v) -> list:
    return v if isinstance(v, list) else [v]


def _eval_series(p: dict):
    kind = str(p.pop("type", "")).lower()
    policy = default_policy()
    if kind == "2f1":
        ev = gauss_2f1(p["a"], p["b"], p["c"], p["z"], policy)
    elif kind in ("pfq", "rphis"):
        up, lo = _as_list(p["upper"]), _as_list(p.get("lower", []))
        ev = (hyp_pfq(up, lo, p["z"], policy) if kind == "pfq"
              else bhs_rphis(up, lo, p["q"], p["z"], policy))
    elif kind == "8w7":
        ev = vwp_8w7(p["a"], p["b"], p["q"], p["z"], policy)
    else:
        raise ParamError(f"unknown series type {kind!r}")
    return _series_result(ev)


# ---------------------------------------------------------------------------
# check


def _capture(rec: dict, verdict):
    """Fills ``rec`` with the report fields ``verdict()`` returns, and returns
    the exception that ended the case instead, if any: any failure is this
    case's error, never the run's."""
    try:
        rec.update(verdict())
    except Exception as exc:  # any failure is this case's error
        return exc
    return None


def _case_fields(identity_id: str, params: dict, tol: float, precision: str,
                 seed=None) -> dict:
    """Report fields of one numeric case."""
    rep = run_case(IdentityCase(identity_id, params, tol_rel=tol, seed=seed),
                   precision=precision)
    fields = dict(passed=rep.passed, rel_err=rep.rel_err, abs_err=rep.abs_err,
                  lhs=rep.lhs, rhs=rep.rhs, precision=rep.precision_used,
                  terms=rep.terms)
    if rep.note:
        fields["note"] = rep.note
    return fields


def _require_positive_tol(tol: float):
    # a bad tolerance is bad input for the whole run, not one case's error
    if tol <= 0:
        raise ParamError("tol_rel must be positive")


def cmd_check(args) -> int:
    if args.all:
        idents = identity_ids()
    elif args.identity:
        idents = list(args.identity)
        for ident in idents:
            get_entry(ident)
    else:
        raise ParamError("check requires --identity or --all")
    seeds = _parse_seeds(args.seeds)
    if args.exact and args.params:
        raise ParamError("--params sets a numeric case; the exact route draws its own")
    file_params = load_params_file(args.params) if args.params else None

    if not args.exact:
        _require_positive_tol(args.tol)

    results = []
    for ident in sorted(idents):
        for seed in seeds:
            rec = {"identity": ident, "seed": seed}
            if args.exact:
                vals, verdict = exact_case(ident, seed, args.K)
                rec.update(exact=True, params={k: str(v) for k, v in vals.items()})
            else:
                def verdict():
                    params = (file_params if file_params is not None
                              else sample_params(ident, seed).params)
                    return _case_fields(ident, params, args.tol, args.precision, seed)
            exc = _capture(rec, verdict)
            if exc is not None:
                rec.update(passed=False, error=f"{type(exc).__name__}: {exc}")
            results.append(rec)
    n_err = sum("error" in rec for rec in results)
    n_pass = sum(rec["passed"] for rec in results)
    n_fail = len(results) - n_pass - n_err
    config = {"identities": sorted(idents), "seeds": seeds, "tol_rel": args.tol,
              "precision": args.precision, "exact": bool(args.exact), "K": args.K}
    report = {"run": {"command": "check", "config": config, "version": __version__},
              "results": results}
    _write_report(report, args.out, args.format)
    print(f"{n_pass} passed / {n_fail} failed / {n_err} errored")
    return 0 if n_fail == 0 and n_err == 0 else 1


def _write_report(report: dict, out: str | None, fmt: str):
    path = out or ("qkl_report." + ("json" if fmt == "json" else "csv"))
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_json(report) + "\n")
    else:
        rows = report["results"]
        cols = sorted({k for row in rows for k in row})
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in rows:
                writer.writerow([_csv_cell(row.get(c, "")) for c in cols])
    print(f"report written to {path}")


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    entry = get_entry(args.identity)
    _require_positive_tol(args.tol)
    grids = []
    for grid_arg in args.grid:
        if "=" not in grid_arg:
            raise ParamError(f"--grid expects name=v1,v2,..., got {grid_arg!r}")
        name, vals = grid_arg.split("=", 1)
        if name not in entry.param_names:
            raise ParamError(
                f"{name!r} is not a parameter of {args.identity} "
                f"(has: {', '.join(entry.param_names)})")
        grids.append((name, _as_list(parse_value(vals))))
    if not grids:
        raise ParamError("sweep requires at least one --grid")
    seeds = _parse_seeds(args.seeds)
    if len(seeds) != 1:
        raise ParamError(f"sweep takes its base parameters from one seed, got {args.seeds!r}")
    base = (load_params_file(args.params) if args.params
            else sample_params(args.identity, seeds[0]).params)

    names = [name for name, _ in grids]
    cols = names + ["lhs", "rhs", "rel_err", "abs_err", "error"]
    lines = [",".join(cols)]
    for combo in itertools.product(*(vals for _, vals in grids)):
        row = dict(zip(names, combo))
        point = {**base, **row}
        exc = _capture(row, lambda: _case_fields(args.identity, point, args.tol,
                                                 args.precision))
        row["error"] = "" if exc is None else type(exc).__name__
        lines.append(",".join(_csv_cell(row.get(c, "")) for c in cols))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"sweep written to {args.out} ({len(lines) - 1} rows)")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# ortho


def cmd_ortho(args) -> int:
    params = parse_kv(args.params)
    family = params.pop("family", None)
    if family not in ("mp", "asc"):
        raise ParamError("ortho requires family=mp or family=asc")
    res = ortho_gram(family, params, nmax=args.nmax, tol=args.tol)
    n = res.value.shape[0]
    off = max((abs(res.value[i][j]) for i in range(n) for j in range(n) if i != j),
              default=0.0)
    diag = max(abs(res.value[i][i] - 1.0) for i in range(n))
    print(f"gram {n}x{n}: max |off-diagonal| = {off:.3e}, "
          f"max |diagonal - 1| = {diag:.3e}")
    print(f"error_estimate = {res.error_estimate:.3e}, evaluations = {res.evaluations}")
    if args.out:
        report = {
            "run": {"command": "ortho",
                    "config": {"family": family, "params": params,
                               "nmax": args.nmax, "tol": args.tol},
                    "version": __version__},
            "results": [{"gram": [[float(v) for v in row] for row in res.value],
                         "max_offdiag": off, "max_diag_dev": diag,
                         "error_estimate": res.error_estimate,
                         "evaluations": res.evaluations}],
        }
        _write_report(report, args.out, "json")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qkl",
        description="evaluate and machine-verify bilinear generating-function "
                    "identities for (basic) hypergeometric orthogonal polynomials")
    ap.add_argument("--version", action="version", version=f"qkl {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a polynomial, kernel, or series")
    p_eval.add_argument("target", choices=["poly", "kernel", "series"])
    p_eval.add_argument("params", nargs="*", help="key=value parameters")
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("check", help="run identity verification suites")
    p_check.add_argument("--identity", action="append", help="identity id (repeatable)")
    p_check.add_argument("--all", action="store_true", help="run every identity")
    p_check.add_argument("--seeds", default="0..9", help="seed range A..B (default 0..9)")
    p_check.add_argument("--params", help="JSON file of explicit parameters")
    p_check.add_argument("--tol", type=float, default=1e-8)
    p_check.add_argument("--precision", choices=["standard", "extended", "auto"],
                         default="auto")
    p_check.add_argument("--exact", action="store_true",
                         help=f"exact rational verification ({', '.join(EXACT_ROUTES)})")
    p_check.add_argument("--K", type=int, default=8,
                         help="power-series order K of an exact coefficient-wise check")
    p_check.add_argument("--out", help="report path")
    p_check.add_argument("--format", choices=["json", "csv"], default="json")
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="evaluate an identity on a parameter grid")
    p_sweep.add_argument("--identity", required=True)
    p_sweep.add_argument("--grid", action="append", default=[],
                         help="name=v1,v2,... (repeatable)")
    p_sweep.add_argument("--params", help="JSON file of base parameters")
    p_sweep.add_argument("--seeds", default="0", help="seed for base parameters")
    p_sweep.add_argument("--tol", type=float, default=1e-8)
    p_sweep.add_argument("--precision", choices=["standard", "extended", "auto"],
                         default="auto")
    p_sweep.add_argument("--out", help="CSV path (stdout when omitted)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_ortho = sub.add_parser("ortho", help="orthonormality Gram-matrix check")
    p_ortho.add_argument("params", nargs="*",
                         help="family=mp|asc plus family parameters")
    p_ortho.add_argument("--nmax", type=int, default=8)
    p_ortho.add_argument("--tol", type=float, default=1e-9)
    p_ortho.add_argument("--out", help="JSON report path")
    p_ortho.set_defaults(func=cmd_ortho)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DivergenceError, ConvergenceError) as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except (QKLError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
