"""Saltelli-scheme first-order index estimator."""

import math

import numpy as np
import pytest
from scipy import stats

from rmss.exceptions import ModelEvaluationError
from rmss.parameters import Axis, ParameterEntry, StochasticParameterSet
from rmss.sobol import sobol_first_order

UNIT_NORMALS = [stats.norm(0.0, 1.0), stats.norm(0.0, 1.0)]


def additive(x):
    return x[:, 0] + x[:, 1]


def ishigami(x, a=7.0, b=0.1):
    return np.sin(x[:, 0]) + a * np.sin(x[:, 1]) ** 2 + b * x[:, 2] ** 4 * np.sin(x[:, 0])


def ishigami_analytic(a=7.0, b=0.1):
    # closed-form variance decomposition for uniform inputs on [-pi, pi]
    v1 = 0.5 * (1 + b * math.pi**4 / 5) ** 2
    v2 = a**2 / 8
    total = a**2 / 8 + b * math.pi**4 / 5 + b**2 * math.pi**8 / 18 + 0.5
    return np.array([v1 / total, v2 / total, 0.0])


def test_additive_model_splits_variance_evenly():
    idx = sobol_first_order(additive, UNIT_NORMALS, n_base=1024, seed=7)
    assert idx.values.shape == (1, 2)
    assert idx.values[0, 0] == pytest.approx(0.5, abs=0.05)
    assert idx.values[0, 1] == pytest.approx(0.5, abs=0.05)
    assert idx.n_evaluations == 1024 * 4


def test_ignored_input_scores_zero():
    idx = sobol_first_order(lambda x: x[:, 0] ** 2, UNIT_NORMALS, n_base=1024, seed=7)
    assert idx.values[0, 1] == pytest.approx(0.0, abs=0.05)


def test_ishigami_matches_analytic_decomposition():
    marginals = [stats.uniform(loc=-math.pi, scale=2 * math.pi)] * 3
    idx = sobol_first_order(ishigami, marginals, n_base=4096, seed=11)
    expected = ishigami_analytic()
    assert np.abs(idx.values[0] - expected).max() < 0.03


def test_indices_stay_in_unit_interval_up_to_noise():
    idx = sobol_first_order(additive, UNIT_NORMALS, n_base=1024, seed=5)
    eps = 0.05
    assert np.all(idx.values >= -eps)
    assert np.all(idx.values <= 1 + eps)
    assert idx.values.sum() <= 1 + eps


def test_deterministic_for_fixed_seed():
    a = sobol_first_order(additive, UNIT_NORMALS, n_base=256, seed=42)
    b = sobol_first_order(additive, UNIT_NORMALS, n_base=256, seed=42)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.conf, b.conf)


def test_seed_changes_the_estimate():
    a = sobol_first_order(additive, UNIT_NORMALS, n_base=256, seed=1)
    b = sobol_first_order(additive, UNIT_NORMALS, n_base=256, seed=2)
    assert not np.array_equal(a.values, b.values)


def test_small_base_sample_rejected():
    with pytest.raises(ValueError, match="64"):
        sobol_first_order(additive, UNIT_NORMALS, n_base=32, seed=0)


def test_confidence_halfwidths_shrink_with_sample_size():
    small = sobol_first_order(additive, UNIT_NORMALS, n_base=128, seed=9)
    large = sobol_first_order(additive, UNIT_NORMALS, n_base=4096, seed=9)
    assert large.conf.max() < small.conf.max()


def test_foreign_model_failure_wrapped():
    def broken(x):
        raise RuntimeError("boom")

    with pytest.raises(ModelEvaluationError, match="boom"):
        sobol_first_order(broken, UNIT_NORMALS, n_base=64, seed=0)


def test_parameter_set_marginals():
    params = StochasticParameterSet(
        entries=(
            ParameterEntry("g1", Axis.P, 0.5, 0.02),
            ParameterEntry("g2", Axis.P, 0.3, 0.01),
        ),
        sigma=np.diag([0.02**2, 0.01**2]),
    )

    def linear(x):
        return 2.0 * x[:, 0] - 3.0 * x[:, 1] + 1.0

    idx = sobol_first_order(linear, params, n_base=1024, seed=3)
    expected_var = (2 * 0.02) ** 2 + (3 * 0.01) ** 2
    assert idx.values[0, 0] == pytest.approx((2 * 0.02) ** 2 / expected_var, abs=0.05)


def test_multi_output_models_supported():
    def pair(x):
        return np.column_stack([x[:, 0], x[:, 1] ** 2])

    idx = sobol_first_order(pair, UNIT_NORMALS, n_base=256, seed=0)
    assert idx.values.shape == (2, 2)
    assert idx.values[0, 0] > 0.9  # first output is exactly x1
    assert idx.values[0, 1] == pytest.approx(0.0, abs=0.1)
