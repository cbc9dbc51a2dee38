"""Wide seed soaks, marked slow: the default run leaves them out (see
``addopts`` in pyproject.toml); ``python -m pytest -m slow`` runs them."""
import pytest

from qkl.errors import QKLError
from qkl.identities import run_case, sample_params


@pytest.mark.slow
@pytest.mark.parametrize("ident", ["ac_spoisson", "asc_bilinear", "aw_bilinear",
                                   "cdqh_bilinear"])
def test_q_ladder_identities_pass_seeds_50_to_1049(ident):
    # every case of the four q j-sums that run on a q ladder passes at auto
    # precision; a QKLError is a failed case, any other exception escapes
    failed = []
    for seed in range(50, 1050):
        try:
            rep = run_case(sample_params(ident, seed))
        except QKLError as exc:
            failed.append((seed, type(exc).__name__))
            continue
        if not rep.passed:
            failed.append((seed, rep.rel_err))
    assert failed == []
