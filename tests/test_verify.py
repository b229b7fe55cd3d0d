"""Every check of the verification suite passes at the quick profile."""

import pytest

from potkit.verify import run_check

FAST_CHECKS = ("wolff-atom-limit", "wolff-log-limit", "riesz-atom-limit",
               "envelope-band", "flux-normalization", "cone-suite",
               "determinism", "comparison-principle", "capacity-scaling",
               "condenser", "witness-flip")


@pytest.mark.parametrize("name", FAST_CHECKS)
def test_fast_check_passes(name):
    result = run_check(name, profile="quick", seed=0)
    failed = [m.name for m in result.metrics if not m.ok]
    assert result.passed, failed
