"""Package layout: the precision decision stays behind ``qkl.numerics``, and
the classical j-sums stay on recurrence streams."""
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
    # the definitional continuous Hahn, Jacobi and MP coupling values stay
    # oracles of the streams; no identity side sums them
    tree = ast.parse((SRC / "identities.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported & {"chahn_poly", "jacobi_poly", "sj_mp"} == set()
