"""Every named check of the verify registry, one test id per check.

``verify.CHECKS`` is the one place each named invariant is asserted, with
every input range, parameter point and tolerance it is held to; a new
invariant is added there, not as a hand-written test here or in the
module test files.  Acceptance criteria 01, 05, 06 (weak form), 07, 08,
09 and 10 run their registry checks by name.  The I_{n,m} and I_{2,2}
closed-form tests in test_metric.py and test_numerics.py are per-point
views over the registry's own points and helpers, not second copies.

The full-level checks (2D-quadrature and spectral-integral oracles) are
marked slow, as ``ddscatter verify`` runs them only at ``--level full``.
"""

import pytest

from ddscatter import DomainError
from ddscatter.verify import CHECKS, FULL, run_verify


@pytest.mark.parametrize(
    "check",
    [
        pytest.param(fn, id=name, marks=[pytest.mark.slow] if level == FULL else [])
        for name, (level, fn) in CHECKS.items()
    ],
)
def test_check_passes(check):
    ok, detail = check()
    assert ok, detail


def test_unknown_level_is_domain_error():
    with pytest.raises(DomainError, match="level"):
        run_verify("medium")
