"""Command-line interface: verbs, exit codes, report determinism."""
import dataclasses
import json
import os
from pathlib import Path

import mpmath as mp
import pytest

from qkl import identities
from qkl.cli import main, parse_value, render_json

GOLDEN = Path(__file__).parent / "golden"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_value():
    assert parse_value("3") == 3
    assert parse_value("0.5") == 0.5
    assert parse_value("1+2j") == 1 + 2j
    assert parse_value("mp") == "mp"
    assert parse_value("0.1,0.2") == [0.1, 0.2]


def test_render_json_fixed_format():
    text = render_json({"x": 0.1, "z": complex(1.5, -2), "n": 3, "s": "ok",
                        "b": True, "none": None, "v": [1.5, 2]})
    assert "0.10000000000000001" in text
    assert "[1.5, -2]" in text
    assert '"ok"' in text
    assert "true" in text and "null" in text


def test_eval_poly(capsys):
    code, out, _ = run(["eval", "poly", "family=mp", "k=1", "phi=1.0",
                        "n=1", "x=0.5"], capsys)
    assert code == 0
    import math

    ref = 2 * (math.cos(1.0) + 0.5 * math.sin(1.0))
    assert abs(float(out.split("=")[1]) - ref) < 1e-12


def test_eval_poly_near_pi_half(capsys):
    # n = 1 at x = 0 equals 2k cos(phi): tiny but nonzero for phi slightly
    # off pi/2
    code, out, _ = run(["eval", "poly", "family=mp", "k=1", "phi=1.5707963",
                        "n=1", "x=0"], capsys)
    assert code == 0
    import math

    got = float(out.split("=")[1])
    assert abs(got - 2 * math.cos(1.5707963)) < 1e-12
    assert abs(got) < 1e-7


def test_eval_kernel_t0(capsys):
    code, out, _ = run(["eval", "kernel", "family=mp", "k=1", "phi=1.0",
                        "t=0", "x=0", "y=0"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("value = 1")
    assert "terms_used" in out


@pytest.mark.parametrize("family", [["family=mp", "k=1", "phi=1.0"],
                                    ["family=ac", "k=0.7", "q=0.5", "s=1.1", "sigma=0.9"]])
def test_eval_closed_kernel_reports_its_series(family, capsys):
    # the closed form prints the stop report of its 2F1 or 8W7, as the sum does
    code, out, _ = run(["eval", "kernel", *family, "t=0.35", "x=0.2", "y=-0.4",
                        "closed=1"], capsys)
    assert code == 0
    keys = [line.split(" = ")[0] for line in out.splitlines()]
    assert keys == ["value", "terms_used", "tail_estimate", "status"]
    assert out.splitlines()[-1] == "status = Converged"


def test_eval_series(capsys):
    code, out, _ = run(["eval", "series", "type=2F1", "a=1", "b=1", "c=2",
                        "z=0.5"], capsys)
    assert code == 0
    import math

    got = complex(out.splitlines()[0].split("=")[1].strip())
    assert abs(got - 2 * math.log(2)) < 1e-14


_SERIES_CASES = [
    # list upper, scalar lower: 2F1(1/2, 1/4; 3/2; 0.3)
    (["type=pfq", "upper=0.5,0.25", "lower=1.5", "z=0.3"],
     lambda: mp.hyp2f1(0.5, 0.25, 1.5, 0.3), 26),
    # scalar upper, no lower: 1F0(1/2; ; z) = (1 - z)^(-1/2)
    (["type=pfq", "upper=0.5", "z=0.3"], lambda: (1 - mp.mpf(0.3)) ** -0.5, 30),
    # list upper, scalar lower: 2phi1(0.3, 0.4; 0.2; q, z)
    (["type=rphis", "upper=0.3,0.4", "lower=0.2", "q=0.5", "z=0.3"],
     lambda: mp.qhyper([0.3, 0.4], [0.2], 0.5, 0.3), 32),
    # scalar upper, no lower: q-binomial theorem (az; q)_inf / (z; q)_inf
    (["type=rphis", "upper=0.3", "q=0.5", "z=0.4"],
     lambda: mp.qp(0.3 * 0.4, 0.5) / mp.qp(0.4, 0.5), 41),
]


@pytest.mark.parametrize("argv, ref, terms", _SERIES_CASES)
def test_eval_series_pfq_rphis_list_and_scalar_upper(argv, ref, terms, capsys):
    code, out, _ = run(["eval", "series", *argv], capsys)
    assert code == 0
    lines = out.splitlines()
    assert [ln.split(" = ")[0] for ln in lines] == [
        "value", "terms_used", "tail_estimate", "status"]
    with mp.workdps(30):
        expected = complex(ref())
    assert abs(complex(lines[0].split(" = ")[1]) - expected) <= 1e-14 * abs(expected)
    assert lines[1] == f"terms_used = {terms}"
    assert lines[3] == "status = Converged"


def test_eval_series_near_boundary_cancellation(capsys):
    # the |z| > 0.9 re-run escalates on its measured cancellation: a single
    # 40-digit run of this 2F1 printed -20387.47 with status Converged
    code, out, _ = run(["eval", "series", "type=pfq", "upper=20.5,20.5",
                        "lower=1.5", "z=-0.93"], capsys)
    assert code == 0
    value = out.splitlines()[0]
    assert value == "value = (-5.37869181454634e-8 + 0.0j)"
    with mp.workdps(30):
        expected = complex(mp.hyp2f1(20.5, 20.5, 1.5, -0.93))
    got = complex(value.split(" = ")[1].replace(" ", ""))
    assert abs(got - expected) <= 1e-12 * abs(expected)


def test_eval_bad_input_exit2(capsys):
    code, _, err = run(["eval", "poly", "family=unknown", "n=1", "x=0"], capsys)
    assert code == 2
    code, _, err = run(["eval", "poly", "family=mp", "k=-1", "phi=1",
                        "n=0", "x=0"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv, bad", [
    (["family=mp", "k=1", "phi=1.0", "n=2.5", "x=0.3"], "n"),
    (["family=hahn", "alpha=0.5", "beta=0.7", "N=4.5", "n=2", "x=1"], "N")])
def test_eval_poly_non_integer_count_exit2(argv, bad, capsys):
    # n = 2.5 is refused, not evaluated as n = 2
    code, out, err = run(["eval", "poly", *argv], capsys)
    assert code == 2 and out == ""
    assert f"{bad} must be a nonnegative integer" in err


def test_eval_divergence_exit3(capsys):
    code, _, err = run(["eval", "kernel", "family=mp", "k=1", "phi=1.0",
                        "t=1.5", "x=0", "y=0"], capsys)
    assert code == 3


def test_check_success_and_report(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    code, out, _ = run(["check", "--identity", "mp_poisson", "--seeds", "0..4",
                        "--out", str(out_file)], capsys)
    assert code == 0
    assert "5 passed / 0 failed / 0 errored" in out
    data = json.loads(out_file.read_text())
    assert data["run"]["command"] == "check"
    assert len(data["results"]) == 5
    assert all(r["passed"] for r in data["results"])


def test_check_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(["check", "--identity", "chahn_finite",
                          "--seeds", "0..2", "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_failure_exit1(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    code, out, _ = run(["check", "--identity", "mp_poisson", "--seeds", "0..1",
                        "--tol", "1e-30", "--precision", "standard",
                        "--out", str(out_file)], capsys)
    assert code == 1
    assert out_file.exists()   # reports still written on failure


# (golden file, check arguments): the extended report carries the values a
# leak of mpmath's global precision would reach
GOLDEN_CHECKS = [
    ("check_all_seeds_0_1.json", ["--seeds", "0..1"]),
    ("check_all_extended_seed_0.json", ["--seeds", "0..0", "--precision", "extended"]),
]


def test_check_all_matches_golden_report(tmp_path, capsys):
    # the committed reports pin every value of check --all bit for bit
    for golden, args in GOLDEN_CHECKS:
        out_file = tmp_path / golden
        code, _, _ = run(["check", "--all", *args, "--out", str(out_file)], capsys)
        assert code == 0, golden
        assert out_file.read_bytes() == (GOLDEN / golden).read_bytes(), golden


# (golden file, check arguments) of the exact route, seeds 0..11: every third
# mult_2f1 seed has Gaussian parameters, written by their repr
GOLDEN_EXACT_CHECKS = [
    ("check_exact_mult_2f1_K8_seeds_0_11.json",
     ["--identity", "mult_2f1", "--exact", "--K", "8"]),
    ("check_exact_hahn_bilinear_discrete_seeds_0_11.json",
     ["--identity", "hahn_bilinear_discrete", "--exact"]),
]


def test_check_exact_matches_golden_report(tmp_path, capsys):
    # the committed reports pin every exact verdict and parameter text
    for golden, args in GOLDEN_EXACT_CHECKS:
        out_file = tmp_path / golden
        code, _, _ = run(["check", *args, "--seeds", "0..11", "--out", str(out_file)],
                         capsys)
        assert code == 0, golden
        assert out_file.read_bytes() == (GOLDEN / golden).read_bytes(), golden


def test_check_csv_matches_golden_report(tmp_path, capsys):
    # the CSV report pins its column order and every cell's text
    golden = "check_mp_poisson_mp_recurrence_seeds_0_2.csv"
    out_file = tmp_path / golden
    code, _, _ = run(["check", "--identity", "mp_poisson", "--identity", "mp_recurrence",
                      "--seeds", "0..2", "--format", "csv", "--out", str(out_file)],
                     capsys)
    assert code == 0
    assert out_file.read_bytes() == (GOLDEN / golden).read_bytes()


def test_sweep_matches_golden_output(tmp_path, capsys):
    # the t = 1 rows carry only the exception's type name; the same bytes go
    # to stdout and to --out
    golden = (GOLDEN / "sweep_mp_poisson_t_k.csv").read_text()
    argv = ["sweep", "--identity", "mp_poisson", "--grid", "t=0,0.2,1", "--grid", "k=0.5,1"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == golden
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run([*argv, "--out", str(out_file)], capsys)
    assert code == 0
    assert out == f"sweep written to {out_file} (6 rows)\n"
    assert out_file.read_text() == golden


def test_check_all_ignores_mpmath_global_precision(tmp_path, capsys):
    # every value carries its own precision, so the process-wide mpmath
    # setting changes no byte of the report
    prec = mp.mp.prec
    try:
        for dps in (5, 100):
            mp.mp.dps = dps
            for golden, args in GOLDEN_CHECKS:
                out_file = tmp_path / f"{dps}_{golden}"
                code, _, _ = run(["check", "--all", *args, "--out", str(out_file)],
                                 capsys)
                assert code == 0, (dps, golden)
                expected = (GOLDEN / golden).read_bytes()
                assert out_file.read_bytes() == expected, (dps, golden)
    finally:
        mp.mp.prec = prec


def test_check_records_any_exception_as_errored(tmp_path, capsys, monkeypatch):
    def boom(p, policy, ctx):
        return 1 / 0

    entry = identities.REGISTRY["mp_poisson"]
    monkeypatch.setitem(identities.REGISTRY, "mp_poisson",
                        dataclasses.replace(entry, eval_rhs=boom))
    out_file = tmp_path / "rep.json"
    code, out, _ = run(["check", "--identity", "mp_poisson",
                        "--identity", "mp_recurrence", "--seeds", "0..1",
                        "--out", str(out_file)], capsys)
    assert code == 1
    assert "2 passed / 0 failed / 2 errored" in out
    results = json.loads(out_file.read_text())["results"]
    errors = [r.get("error") for r in results]
    assert errors[:2] == ["ZeroDivisionError: division by zero"] * 2
    assert errors[2:] == [None, None]
    code, out, _ = run(["sweep", "--identity", "mp_poisson",
                        "--grid", "t=0.2,0.3"], capsys)
    assert code == 0
    assert out.count("ZeroDivisionError") == 2


def test_check_bad_tolerance_is_bad_input(capsys):
    code, _, err = run(["check", "--identity", "mp_poisson", "--seeds", "0",
                        "--tol", "-1"], capsys)
    assert code == 2
    assert "tol_rel must be positive" in err


def test_check_unknown_identity_exit2(capsys):
    code, _, err = run(["check", "--identity", "bogus"], capsys)
    assert code == 2


def test_check_csv_format(tmp_path, capsys):
    out_file = tmp_path / "rep.csv"
    code, _, _ = run(["check", "--identity", "hahn_bilinear_discrete",
                      "--seeds", "0..1", "--format", "csv",
                      "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 3
    assert "identity" in lines[0]


def test_check_exact(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    code, out, _ = run(["check", "--identity", "mult_2f1", "--exact",
                        "--K", "6", "--seeds", "0..3", "--out", str(out_file)],
                       capsys)
    assert code == 0
    data = json.loads(out_file.read_text())
    assert all(r["passed"] and r["exact"] for r in data["results"])
    code, _, _ = run(["check", "--identity", "mp_poisson", "--exact"], capsys)
    assert code == 2   # exact route only covers the rational identities


def test_exact_negative_order_is_bad_input(tmp_path, capsys):
    # K = -1 compares no coefficient: the run is refused, not reported passed
    out_file = tmp_path / "rep.json"
    code, out, err = run(["check", "--identity", "mult_2f1", "--exact", "--K", "-1",
                          "--seeds", "0..2", "--out", str(out_file)], capsys)
    assert code == 2
    assert "K must be >= 0" in err
    assert not out_file.exists()


def test_empty_seed_range_is_bad_input(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    code, out, err = run(["check", "--identity", "mp_poisson", "--seeds", "5..3",
                          "--out", str(out_file)], capsys)
    assert code == 2
    assert "empty seed range" in err
    assert not out_file.exists()
    code, out, err = run(["sweep", "--identity", "mp_poisson", "--grid", "t=0.2",
                          "--seeds", "5..3"], capsys)
    assert code == 2
    assert "empty seed range" in err and out == ""
    code, _, _ = run(["check", "--identity", "mp_poisson", "--seeds", "3..3",
                      "--out", str(out_file)], capsys)
    assert code == 0


def test_sweep_grid(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run(["sweep", "--identity", "mp_poisson",
                        "--grid", "t=0,0.2,0.4,0.6", "--grid", "k=0.5,1,2",
                        "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 13   # header + 12 rows
    assert lines[0].startswith("t,k,")
    # deterministic lexicographic order of the grid product
    assert lines[1].startswith("0,0.5")
    assert lines[-1].startswith("0.59999999999999998,2")


def test_sweep_bad_point_carries_error(capsys):
    code, out, _ = run(["sweep", "--identity", "mp_poisson",
                        "--grid", "t=0.2,1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert "DivergenceError" in lines[2]
    assert "DivergenceError" not in lines[1]


def test_sweep_unknown_grid_param(capsys):
    code, _, err = run(["sweep", "--identity", "mp_poisson",
                        "--grid", "bogus=1,2"], capsys)
    assert code == 2


def test_ortho_cli(capsys):
    code, out, _ = run(["ortho", "family=mp", "k=0.8", "phi=1.1",
                        "--nmax", "6"], capsys)
    assert code == 0
    assert "max |off-diagonal|" in out
    code, _, _ = run(["ortho", "family=asc", "q=0.5", "a=1.2", "b=0.3"], capsys)
    assert code == 2   # discrete-spectrum regime rejected


def test_ortho_degree_zero_and_negative(capsys):
    # a 1x1 Gram has no off-diagonal entry; a negative degree is bad input
    code, out, _ = run(["ortho", "family=mp", "k=0.8", "phi=1.1", "--nmax", "0"], capsys)
    assert code == 0
    assert out.startswith("gram 1x1: max |off-diagonal| = 0.000e+00, ")
    code, _, err = run(["ortho", "family=mp", "k=0.8", "phi=1.1", "--nmax", "-1"], capsys)
    assert code == 2
    assert "nmax >= 0" in err


def test_ortho_report_file_matches_golden(tmp_path, capsys):
    # the --out report is pinned byte for byte
    out_file = tmp_path / "ortho.json"
    code, out, _ = run(["ortho", "family=mp", "k=0.8", "phi=1.1", "--nmax", "4",
                        "--out", str(out_file)], capsys)
    assert code == 0
    assert out.splitlines()[-1] == f"report written to {out_file}"
    assert out_file.read_bytes() == (GOLDEN / "ortho_mp_nmax4.json").read_bytes()


def test_env_max_terms_override(capsys, monkeypatch):
    monkeypatch.setenv("QKL_MAX_TERMS", "5")
    code, out, _ = run(["eval", "series", "type=2F1", "a=0.5", "b=0.5",
                        "c=1.5", "z=0.85"], capsys)
    assert code == 0
    assert "MaxTermsReached" in out
    monkeypatch.delenv("QKL_MAX_TERMS")


def test_params_file(tmp_path, capsys):
    params = {"k": 1.0, "phi": 1.2, "t": 0.3, "x": 0.5, "y": -0.5}
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps(params))
    out_file = tmp_path / "rep.json"
    code, out, _ = run(["check", "--identity", "mp_poisson", "--seeds", "0",
                        "--params", str(pf), "--out", str(out_file)], capsys)
    assert code == 0
    assert "1 passed" in out


def test_check_exact_refuses_a_params_file(tmp_path, capsys):
    # the exact route draws its own rationals: a --params file would be
    # dropped without a word, so the run is refused
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps({"a": 0.5}))
    out_file = tmp_path / "rep.json"
    code, _, err = run(["check", "--identity", "mult_2f1", "--exact", "--params", str(pf),
                        "--seeds", "0..1", "--out", str(out_file)], capsys)
    assert code == 2
    assert "--params" in err
    assert not out_file.exists()


def test_sweep_refuses_a_seed_range(capsys):
    # a sweep's base parameters come from one seed; a range would be cut to
    # its first seed without a word
    code, out, err = run(["sweep", "--identity", "mp_poisson", "--grid", "t=0.2",
                          "--seeds", "0..3"], capsys)
    assert code == 2
    assert "one seed" in err and out == ""
    code, _, _ = run(["sweep", "--identity", "mp_poisson", "--grid", "t=0.2",
                      "--seeds", "2..2"], capsys)
    assert code == 0
