import numpy as np
import pytest

from pairsieve.errors import NonFiniteLoss
from pairsieve.numerics import GradCheckReport, finite_diff_check


def test_finite_diff_check_quadratic():
    def quad(params):
        theta = params[0]
        return 0.5 * float(np.sum(theta**2)), [theta]

    theta = np.random.default_rng(0).uniform(0.5, 2.0, size=(3, 4))
    report = finite_diff_check(quad, [theta])
    assert isinstance(report, GradCheckReport)
    assert report.param_count == 12
    assert report.max_rel_err <= 1e-7


def test_finite_diff_check_flags_wrong_gradient():
    def wrong(params):
        theta = params[0]
        return 0.5 * float(np.sum(theta**2)), [2.0 * theta]

    report = finite_diff_check(wrong, [np.ones(3)])
    assert report.max_rel_err > 0.4


def test_finite_diff_check_non_finite_loss():
    def bad(params):
        return float("inf"), [np.zeros_like(params[0])]

    with pytest.raises(NonFiniteLoss):
        finite_diff_check(bad, [np.ones(2)])
