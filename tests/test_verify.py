"""Every named check of the verify registry, one test id per check.

The full-level checks (2D-quadrature and spectral-integral oracles) are
marked slow, as ``ddscatter verify`` runs them only at ``--level full``.
"""

import pytest

from ddscatter.verify import CHECKS, FULL


@pytest.mark.parametrize(
    "check",
    [
        pytest.param(fn, id=name, marks=[pytest.mark.slow] if level == FULL else [])
        for name, level, fn in CHECKS
    ],
)
def test_check_passes(check):
    ok, detail = check()
    assert ok, detail
