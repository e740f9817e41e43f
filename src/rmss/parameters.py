"""Stochastic description of essential component injections.

Each entry is one random axis (P or Q) of one essential generator or
load, with its forecast mean and standard deviation in per-unit. The
joint distribution is multivariate normal with covariance ``sigma``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from .exceptions import ConfigError, NotPSD, TopologyError
from .model import BusKind, GridCase


class Axis(Enum):
    P = "P"
    Q = "Q"


@dataclass(frozen=True)
class ParameterEntry:
    component: str  # component id, e.g. "g5" or "l2"
    axis: Axis
    mean: float  # pu
    stdev: float  # pu

    @property
    def label(self) -> str:
        return f"{self.component}.{self.axis.value}"


def _check_psd(matrix: np.ndarray) -> None:
    """Symmetric-factorization PSD check (Cholesky, then eigenvalue fallback)."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise NotPSD(f"covariance must be square, got shape {matrix.shape}")
    if not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-12):
        raise NotPSD("covariance must be symmetric")
    try:
        np.linalg.cholesky(matrix)
        return
    except np.linalg.LinAlgError:
        pass  # PSD-singular matrices fail Cholesky; fall back to eigenvalues
    eigvals = np.linalg.eigvalsh(matrix)
    floor = -1e-10 * max(1.0, float(np.max(np.abs(eigvals))))
    if eigvals.min() < floor:
        raise NotPSD(f"covariance has negative eigenvalue {eigvals.min():.3e}")


# How far a correlation matrix's diagonal may sit from 1, its entries beyond
# [-1, 1] and their transposes from each other: a rounded np.corrcoef passes.
_CORRELATION_TOL = 1e-12


def _check_correlation(corr: np.ndarray, labels: list[str]) -> None:
    """Refuse a correlation matrix naming the first bad entry's two parameters.

    Every entry must be finite and in [-1, 1], the diagonal 1 and the
    matrix symmetric, each up to ``_CORRELATION_TOL``.
    """
    rules = (
        (~(np.abs(corr) <= 1.0 + _CORRELATION_TOL), "a finite number in [-1, 1]"),
        (np.diag(np.abs(np.diag(corr) - 1.0) > _CORRELATION_TOL), "1 on the diagonal"),
        (np.abs(corr - corr.T) > _CORRELATION_TOL, "equal to its transposed entry"),
    )
    for bad, rule in rules:
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ConfigError(
                f"correlation entry ({labels[i]}, {labels[j]}) is {float(corr[i, j])!r}; "
                f"it must be {rule}"
            )


def _inject(
    p0: np.ndarray, q0: np.ndarray, axis: np.ndarray, bus: np.ndarray, means: np.ndarray,
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Base injections (p0, q0) with each row's entry deviations from ``means`` added."""
    values = np.atleast_2d(values)
    delta = values - means
    pq = np.empty((2, len(values), len(p0)))
    pq[0], pq[1] = p0, q0
    np.add.at(pq, (axis, slice(None), bus), delta.T)
    return pq[0], pq[1]


@dataclass(frozen=True, eq=False)
class StochasticParameterSet:
    entries: tuple[ParameterEntry, ...]
    sigma: np.ndarray  # d x d covariance, pu^2
    means: np.ndarray = field(init=False, repr=False)  # (d,) entry means, read-only
    stdevs: np.ndarray = field(init=False, repr=False)  # (d,) entry stdevs, read-only

    def __post_init__(self):
        for name in ("mean", "stdev"):
            values = np.array([getattr(e, name) for e in self.entries])
            values.flags.writeable = False
            object.__setattr__(self, name + "s", values)
        bad = ~(np.isfinite(self.means) & (0 <= self.stdevs) & (self.stdevs < np.inf))
        if bad.any():
            e = self.entries[int(np.argmax(bad))]
            raise ConfigError(
                f"parameter {e.label} needs a finite mean and a finite "
                f"nonnegative stdev, got mean {e.mean}, stdev {e.stdev}"
            )
        sig = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "sigma", sig)
        if sig.shape != (len(self.entries), len(self.entries)):
            raise NotPSD(
                f"covariance shape {sig.shape} does not match {len(self.entries)} entries"
            )
        _check_psd(sig)
        if not np.allclose(np.diag(sig), self.stdevs**2, rtol=1e-9, atol=1e-15):
            raise NotPSD("covariance diagonal must equal entry stdevs squared")

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.entries)

    def factor(self) -> np.ndarray:
        """Symmetric factor L with L @ L.T = sigma (Cholesky or eigen fallback)."""
        try:
            return np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError:
            w, u = np.linalg.eigh(self.sigma)
            return u @ np.diag(np.sqrt(np.clip(w, 0.0, None)))

    def bus_map(self, case: GridCase) -> np.ndarray:
        """Bus position (case order) of each entry's host component.

        An id the case does not know raises ``KeyError`` like
        :meth:`GridCase.component`.
        """
        idx = case.bus_index()
        comps = case.component_map()
        return np.array([idx[comps[e.component].bus] for e in self.entries], dtype=int)

    def pq_hosts(self, case: GridCase) -> np.ndarray:
        """:meth:`bus_map`, refusing an entry whose host is not a PQ bus."""
        buses = self.bus_map(case)
        for label, i in zip(self.labels(), buses):
            if case.buses[i].kind is not BusKind.PQ:
                raise TopologyError(
                    f"parameter {label} sits on non-PQ bus {case.buses[i].id}; "
                    "re-tag the case so PV hosts are re-modeled as PQ"
                )
        return buses

    def injector(self, case: GridCase):
        """:meth:`injections` on ``case`` as a function of the (S, d) rows alone.

        The case's injections and the bus map are built here once, so a
        caller mapping many blocks of rows pays for them once.
        """
        p0, q0 = case.injections()
        axis = np.array([entry.axis is Axis.Q for entry in self.entries], dtype=int)
        return partial(_inject, p0, q0, axis, self.bus_map(case), self.means)

    def injections(
        self, case: GridCase, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-bus net (p, q) injections, (S, n) each, for (S, d) parameter rows.

        Each row is the case's injections with that row's entry values
        substituted for the means, added entry by entry in entry order:
        ``np.add.at`` adds at a repeated (axis, bus) pair in index order.
        """
        return self.injector(case)(values)

    def apply(
        self, case: GridCase, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-bus net (p, q) injections with entry values substituted for means."""
        p, q = self.injections(case, values)
        return p[0], q[0]

    @classmethod
    def from_case(
        cls,
        case: GridCase,
        sigma_frac: float | None = 0.02,
        sigma_abs: float | None = None,
        axes: tuple[Axis, ...] = (Axis.P,),
        correlation: np.ndarray | None = None,
    ) -> "StochasticParameterSet":
        """Build entries from the tagged essential components of ``case``.

        Standard deviations default to ``sigma_frac`` of each mean's
        magnitude; pass ``sigma_abs`` for a common absolute value instead.
        Zero-mean axes are skipped when sizing by fraction (they carry no
        forecast to deviate from). An optional correlation matrix turns
        the diagonal covariance into a full one; an entry that is not
        finite, lies outside [-1, 1], breaks symmetry or is a diagonal
        other than 1 is refused with its two parameter labels.
        """
        entries: list[ParameterEntry] = []
        for comp in case.essential_components():
            for axis in axes:
                mean = comp.p if axis is Axis.P else comp.q
                if sigma_abs is not None:
                    stdev = sigma_abs
                else:
                    if mean == 0.0:
                        continue
                    stdev = sigma_frac * abs(mean)
                entries.append(ParameterEntry(comp.id, axis, mean, stdev))
        if not entries:
            raise TopologyError("no stochastic parameters: tag essential components first")
        stdevs = np.array([e.stdev for e in entries])
        if correlation is None:
            sigma = np.diag(stdevs**2)
        else:
            corr = np.asarray(correlation, dtype=float)
            if corr.shape != (len(entries), len(entries)):
                raise NotPSD(
                    f"correlation shape {corr.shape} does not match {len(entries)} parameters"
                )
            _check_correlation(corr, [e.label for e in entries])
            sigma = corr * np.outer(stdevs, stdevs)
        params = cls(entries=tuple(entries), sigma=sigma)
        params.pq_hosts(case)
        return params
