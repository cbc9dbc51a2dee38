"""Package layout: the precision decision stays behind ``qkl.numerics``, which
makes it once per context; the q-kernel point stays behind
``polys.unit_phase``; the classical j-sums stay on recurrence streams; a
j-sum coefficient steps in j only in ``series.pochhammer_ladder``; a series
engine declares its series once, as the factor lists ``hyper._sum_series``
reads; precision escalates only in ``numerics.escalate``; a term of a
kernel sum or a j-sum is built only in ``hyper.sum_streams``; and the command
line names no identity, the exact route staying behind ``qkl.exact``; and
every module-level function has a caller in the package or is exported."""
import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qkl"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_numerics_imports_mpmath():
    importers = sorted(
        path.name for path in SRC.glob("*.py")
        if any(m.split(".")[0] == "mpmath"
               for m in _imported_modules(ast.parse(path.read_text()))))
    assert importers == ["numerics.py"]


def test_no_global_precision_mechanism():
    # no precision guard, no mpmath work-precision manager, no global context
    pattern = re.compile(r"guard|workdps|mp\.mp")
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_identities_sum_classical_families_on_streams():
    # the definitional continuous Hahn, Hahn, Jacobi and MP coupling values
    # stay oracles of the streams; no identity side sums them
    tree = ast.parse((SRC / "identities.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported & {"chahn_poly", "hahn_poly", "jacobi_poly", "sj_mp"} == set()


def test_q_kernel_point_has_one_owner():
    # x = cos theta becomes e^{i theta} only through polys.unit_phase, whose
    # acos is the context's: no module but numerics calls math.acos, and a
    # kernel point does not compute its own angles
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "numerics.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "acos"
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "math"]
    assert calls == []
    tree = ast.parse((SRC / "kernels.py").read_text())
    point = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "KernelPoint")
    assert "thetas" not in {node.name for node in point.body
                            if isinstance(node, ast.FunctionDef)}


def test_jsum_coefficients_step_on_the_one_ladder():
    # the hand-written carries are gone, and the modules that declare j-sum
    # coefficients import the ladder from series
    tree = ast.parse((SRC / "identities.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert defined & {"_q_coefficients", "_aw_bilinear_coefficients"} == set()
    for name in ("identities.py", "kernels.py", "polys.py"):
        tree = ast.parse((SRC / name).read_text())
        sources = {(node.module, node.level) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.name == "pochhammer_ladder"}
        assert sources == {("series", 1)}, name


def test_series_engines_declare_factor_lists_only():
    # no engine writes out its own term loop: hyp_pfq, bhs_rphis and vwp_8w7
    # hand factor lists to _sum_series, the one place a SeriesTerms is built
    tree = ast.parse((SRC / "hyper.py").read_text())
    engines = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name in ("hyp_pfq", "bhs_rphis", "vwp_8w7")]
    assert len(engines) == 3
    assert not [f"{engine.name}:{node.lineno}" for engine in engines
                for node in ast.walk(engine)
                if isinstance(node, (ast.Yield, ast.YieldFrom))]
    builders = sorted((path.name, getattr(top, "name", None))
                      for path in SRC.glob("*.py")
                      for top in ast.parse(path.read_text()).body
                      for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and (getattr(node.func, "id", None) == "SeriesTerms"
                           or getattr(node.func, "attr", None) == "SeriesTerms"))
    assert builders == [("hyper.py", "_sum_series")]


def test_precision_escalates_in_one_loop():
    # numerics.escalate is the one place that builds a wider context: the
    # polynomial values (stable_eval), the |z| > 0.9 series re-runs and
    # Bessel J all hand it their attempts
    callers = sorted((path.name, getattr(top, "name", None))
                     for path in SRC.glob("*.py")
                     for top in ast.parse(path.read_text()).body
                     for node in ast.walk(top)
                     if isinstance(node, ast.Call)
                     and (getattr(node.func, "id", None) == "extended_context"
                          or getattr(node.func, "attr", None) == "extended_context"))
    assert callers == [("numerics.py", "escalate")] * 2


def test_jsums_run_on_one_driver():
    # the kernel sums and the j-sums, infinite or terminating, declare their
    # streams and hyper.sum_streams multiplies them: accumulate has no
    # caller but it and _sum_series, no sum takes a cap of its own, and
    # neither kernels.py nor identities.py writes its own term product; the
    # closed kernels always return a series
    callers = sorted((path.name, top.name) for path in SRC.glob("*.py")
                     for top in ast.parse(path.read_text()).body
                     for node in ast.walk(top)
                     if isinstance(node, ast.Call)
                     and (getattr(node.func, "id", None) == "accumulate"
                          or getattr(node.func, "attr", None) == "accumulate"
                          and getattr(node.func.value, "id", None) == "hyper"))
    assert callers == [("hyper.py", "_sum_series"), ("hyper.py", "sum_streams")]
    capped = sorted(f"{path.name}:{node.lineno}" for path in SRC.glob("*.py")
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.arg) and node.arg == "jmax")
    assert capped == []
    products = sorted(f"{name}:{node.lineno}" for name in ("identities.py", "kernels.py")
                      for node in ast.walk(ast.parse((SRC / name).read_text()))
                      if isinstance(node, ast.FunctionDef) and node.name in ("term", "terms"))
    assert products == []
    hits = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if "as_series" in line]
    assert hits == []


def test_context_chooses_its_backend_once():
    # the operations of a Context are bound in __init__; no other method asks
    # for the mode (__repr__ only prints it), and only numerics reaches the
    # mpmath context behind a Context
    tree = ast.parse((SRC / "numerics.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Context")
    readers = {method.name for method in cls.body
               if isinstance(method, ast.FunctionDef)
               for node in ast.walk(method)
               if isinstance(node, ast.Attribute) and node.attr in ("extended", "mode")
               and isinstance(node.value, ast.Name) and node.value.id == "self"
               and isinstance(node.ctx, ast.Load)}
    assert readers <= {"__init__", "__repr__"}
    assert not any(isinstance(method, ast.FunctionDef)
                   and any(isinstance(d, ast.Name) and d.id == "property"
                           for d in method.decorator_list)
                   for method in cls.body)
    touching = sorted(f"{path.name}:{node.lineno}"
                      for path in SRC.glob("*.py") if path.name != "numerics.py"
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Attribute) and node.attr == "_mpctx")
    assert touching == []


def test_cli_names_no_identity():
    # what an identity's check needs lives in identities.py or exact.py: the
    # command line holds no identity id and calls no verifier directly
    from qkl.identities import identity_ids

    tree = ast.parse((SRC / "cli.py").read_text())
    ids = set(identity_ids())
    named = sorted(node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and node.value in ids)
    assert named == []
    imported = sorted(alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      for alias in node.names if alias.name.startswith("verify_"))
    assert imported == []


def test_every_function_has_a_caller():
    # a module-level function that no code in the package names outside its
    # own definition, and that the package does not export, is dead code
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    exported = {alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined = [(name, top) for name, tree in trees.items() for top in tree.body
               if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))]
    named = {}
    for name, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                ref = (node.id if isinstance(node, ast.Name)
                       else node.attr if isinstance(node, ast.Attribute) else None)
                if ref is not None:
                    named.setdefault(ref, set()).add((name, id(top)))
    uncalled = sorted(f"{name[:-3]}.{top.name}" for name, top in defined
                      if top.name not in exported
                      and not named.get(top.name, set()) - {(name, id(top))})
    assert uncalled == []
