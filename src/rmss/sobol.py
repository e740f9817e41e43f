"""First-order variance-based sensitivity indices via Saltelli sampling.

The estimator draws two quasi-random base matrices A and B, evaluates the
model on A, B and the d column-swapped hybrids, and forms the first-order
index S_i = mean(Y_B * (Y_ABi - Y_A)) / Var(Y). Total cost is
n_base * (d + 2) model evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import ModelEvaluationError, RmssError
from .parameters import StochasticParameterSet

# Batched evaluator: (n, d) parameter matrix -> (n,) or (n, m) metric values.
ModelFn = Callable[[np.ndarray], np.ndarray]

_N_BOOTSTRAP = 100
_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True, eq=False)
class SobolIndices:
    """First-order indices per (output, parameter), with bootstrap half-widths."""

    values: np.ndarray  # (n_outputs, d)
    conf: np.ndarray  # (n_outputs, d) 95% half-widths
    n_base: int
    n_evaluations: int


def _draw_bases(d: int, n_base: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    from scipy.stats import qmc  # imported here: scipy.stats dominates `import rmss`

    engine = qmc.Sobol(d=2 * d, scramble=True, seed=seed)
    if n_base & (n_base - 1) == 0:
        u = engine.random_base2(int(np.log2(n_base)))
    else:
        u = engine.random(n_base)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return u[:, :d], u[:, d:]


def _evaluate(model: ModelFn, x: np.ndarray, block: str) -> np.ndarray:
    try:
        y = np.asarray(model(x), dtype=float)
    except RmssError:
        raise
    except Exception as exc:  # noqa: BLE001 - wrap arbitrary model failures
        raise ModelEvaluationError(f"model failed on {block} block: {exc}") from exc
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] != x.shape[0]:
        raise ModelEvaluationError(
            f"model returned {y.shape[0]} rows for {x.shape[0]} samples ({block} block)"
        )
    return y


def _saltelli_run(
    model: ModelFn,
    marginals: Sequence,
    n_base: int,
    seed: int,
) -> SobolIndices:
    d = len(marginals)
    ua, ub = _draw_bases(d, n_base, seed)
    a = np.column_stack([marginals[j].ppf(ua[:, j]) for j in range(d)])
    b = np.column_stack([marginals[j].ppf(ub[:, j]) for j in range(d)])

    y_a = _evaluate(model, a, "A")
    y_b = _evaluate(model, b, "B")
    y_ab = []
    for j in range(d):
        abj = a.copy()
        abj[:, j] = b[:, j]
        y_ab.append(_evaluate(model, abj, f"AB{j}"))

    pooled = np.concatenate([y_a, y_b], axis=0)
    var_y = pooled.var(axis=0, ddof=1)
    safe_var = np.where(var_y > 0, var_y, 1.0)

    # Center on the pooled mean: the estimator's expectation is unchanged,
    # but without this the mean-offset term drowns the signal whenever
    # |mean| >> stdev (bus voltages sit near 1 pu with tiny spread).
    mu = pooled.mean(axis=0)
    y_a = y_a - mu
    y_b = y_b - mu
    y_ab = [y - mu for y in y_ab]

    m = y_a.shape[1]
    prod = np.stack([y_b * (y_ab[j] - y_a) for j in range(d)], axis=2)  # (n, m, d)
    s1 = prod.mean(axis=0) / safe_var[:, None]
    s1[var_y == 0.0, :] = 0.0

    # Bootstrap over sample rows; the variance stays fixed and only the
    # numerator is resampled, which is enough for a half-width estimate.
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x50B07]))
    boots = np.empty((_N_BOOTSTRAP, m, d))
    for r in range(_N_BOOTSTRAP):
        pick = rng.integers(0, n_base, size=n_base)
        boots[r] = prod[pick].mean(axis=0) / safe_var[:, None]
    conf = _Z95 * boots.std(axis=0, ddof=1)

    return SobolIndices(
        values=s1, conf=conf, n_base=n_base, n_evaluations=n_base * (d + 2)
    )


def sobol_first_order(
    model: ModelFn,
    params,
    n_base: int,
    seed: int,
) -> SobolIndices:
    """Estimate first-order indices of ``model`` outputs w.r.t. each input.

    ``params`` is either a :class:`StochasticParameterSet` (sampled through
    its independent normal marginals; covariance off-diagonals are ignored,
    as the estimator assumes independent inputs) or a sequence of frozen
    scipy.stats marginal distributions. Deterministic for a fixed seed.
    """
    if n_base < 64:
        raise ValueError(f"n_base must be >= 64, got {n_base}")
    if isinstance(params, StochasticParameterSet):
        from scipy import stats

        params = [stats.norm(loc=e.mean, scale=e.stdev) for e in params.entries]
    return _saltelli_run(model, list(params), n_base, seed)
