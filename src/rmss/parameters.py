"""Stochastic description of essential component injections.

Each entry is one random axis (P or Q) of one essential generator or
load, with its forecast mean and standard deviation in per-unit. The
joint distribution is multivariate normal with covariance ``sigma``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import NotPSD, TopologyError
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


@dataclass(frozen=True, eq=False)
class StochasticParameterSet:
    entries: tuple[ParameterEntry, ...]
    sigma: np.ndarray  # d x d covariance, pu^2
    distribution: str = "normal"

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "sigma", sig)
        if sig.shape != (len(self.entries), len(self.entries)):
            raise NotPSD(
                f"covariance shape {sig.shape} does not match {len(self.entries)} entries"
            )
        _check_psd(sig)
        stdevs = np.array([e.stdev for e in self.entries])
        if not np.allclose(np.diag(sig), stdevs**2, rtol=1e-9, atol=1e-15):
            raise NotPSD("covariance diagonal must equal entry stdevs squared")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def means(self) -> np.ndarray:
        return np.array([e.mean for e in self.entries])

    @property
    def stdevs(self) -> np.ndarray:
        return np.array([e.stdev for e in self.entries])

    def labels(self) -> tuple[str, ...]:
        return tuple(f"{e.component}.{e.axis.value}" for e in self.entries)

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

    def injections(
        self, case: GridCase, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-bus net (p, q) injections, (S, n) each, for (S, d) parameter rows.

        Each row is the case's injections with that row's entry values
        substituted for the means, added entry by entry in entry order.
        """
        values = np.atleast_2d(values)
        delta = values - self.means
        p0, q0 = case.injections()
        p = np.tile(p0, (len(values), 1))
        q = np.tile(q0, (len(values), 1))
        for k, (entry, bus) in enumerate(zip(self.entries, self.bus_map(case))):
            target = p if entry.axis is Axis.P else q
            target[:, bus] += delta[:, k]
        return p, q

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
        the diagonal covariance into a full one.
        """
        kind_of = {b.id: b.kind for b in case.buses}
        entries: list[ParameterEntry] = []
        for comp in case.essential_components():
            if kind_of[comp.bus] is not BusKind.PQ:
                raise TopologyError(
                    f"essential component {comp.id} sits on non-PQ bus {comp.bus}; "
                    "re-tag the case so PV hosts are re-modeled as PQ"
                )
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
            sigma = corr * np.outer(stdevs, stdevs)
        return cls(entries=tuple(entries), sigma=sigma)
