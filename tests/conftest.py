"""Shared test setup."""
import mpmath as mp
import pytest


@pytest.fixture(autouse=True)
def _restore_mpmath_precision():
    # oracles that raise mpmath's global precision must not leak it into the
    # library calls of later tests
    prec = mp.mp.prec
    yield
    mp.mp.prec = prec
