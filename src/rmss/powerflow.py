"""Steady-state AC power flow on the network system Y(x)V = J.

The solver runs Newton iterations on bus current-injection mismatch
equations in rectangular voltage coordinates, so every iterate solves a
sparse linear system in the network matrix shape that the adjoint
sensitivity engine reuses. Slack voltage is held by identity rows; PV
buses carry their net reactive injection as an extra unknown pinned by a
voltage-magnitude equation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .exceptions import (
    JacobianSingular,
    NotConverged,
    SingularityWarning,
    TopologyError,
    UnknownBus,
)
from .model import BusKind, GridCase


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Sparse complex bus admittance matrix in case bus order."""

    y: sparse.csr_matrix
    bus_ids: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.bus_ids)


def build_admittance(case: GridCase) -> AdmittanceMatrix:
    """Stamp in-service branches into the bus admittance matrix.

    Each branch contributes the standard two-port pi-model with an
    off-nominal complex turns ratio tap*exp(j*shift) on the from side.
    """
    idx = case.bus_index()
    n = len(case.buses)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []
    for br in case.branches:
        if not br.status:
            continue
        f, t = idx[br.from_bus], idx[br.to_bus]
        y = 1.0 / complex(br.r, br.x)
        bc = 1j * br.b_shunt / 2.0
        ratio = br.tap * np.exp(1j * br.phase_shift)
        rows += [f, f, t, t]
        cols += [f, t, f, t]
        vals += [
            (y + bc) / (br.tap * br.tap),
            -y / np.conj(ratio),
            -y / ratio,
            y + bc,
        ]
    y_bus = sparse.coo_matrix(
        (np.array(vals, dtype=complex), (rows, cols)), shape=(n, n)
    ).tocsr()

    touched = np.zeros(n, dtype=bool)
    touched[rows] = True
    for i in np.flatnonzero(~touched):
        warnings.warn(
            f"bus {case.buses[i].id} has no incident admittance",
            SingularityWarning,
            stacklevel=2,
        )
    return AdmittanceMatrix(y=y_bus, bus_ids=tuple(b.id for b in case.buses))


@dataclass
class NewtonOptions:
    tolerance: float = 1e-8  # pu power mismatch
    max_iter: int = 50
    flat_start: bool = True  # 1.0 at angle 0; a supplied start solution overrides


@dataclass(eq=False)
class PowerFlowSolution:
    """Converged (or best-iterate) complex bus voltages plus diagnostics."""

    v: np.ndarray  # complex, case bus order
    bus_ids: tuple[int, ...]
    iterations: int
    max_mismatch: float
    converged: bool
    mismatch_history: tuple[float, ...]
    q_pv: dict[int, float] = field(default_factory=dict)  # solved net Q at PV buses


class PowerFlowEngine:
    """Newton solver on the rectangular current-injection equations, built once per case.

    State layout per sample: [e_0, f_0, e_1, f_1, ..., Q at PV buses]. Slack
    rows are identity constraints on the slack voltage; PV buses get an
    extra squared-magnitude row paired with their reactive-injection
    column. The engine holds everything that does not depend on the
    injections: Ybus, the bus-kind index arrays and the fixed CSC pattern
    of the Jacobian, with its constant entries already in place and a
    scatter map for the injection-dependent ones. :meth:`solve` runs full
    Newton on a block of samples in lockstep, each sample with its own
    Jacobian and LU, so a sample's iterates do not depend on the block it
    is solved in.
    """

    def __init__(self, case: GridCase):
        self.case = case
        self.n = n = len(case.buses)
        self.bus_ids = tuple(b.id for b in case.buses)
        self.y = build_admittance(case).y
        kinds = [b.kind for b in case.buses]
        if BusKind.SLACK not in kinds:
            raise TopologyError("case has no slack bus")
        self.slack = kinds.index(BusKind.SLACK)
        self.pv = np.array([i for i, k in enumerate(kinds) if k is BusKind.PV], dtype=int)
        self.pq = np.array([i for i, k in enumerate(kinds) if k is BusKind.PQ], dtype=int)
        self.nonslack = np.array([i for i in range(n) if i != self.slack], dtype=int)
        self.dim = 2 * n + len(self.pv)
        self.case_injections = case.injections()

        slack_bus = case.buses[self.slack]
        ang = slack_bus.angle_setpoint or 0.0
        self.slack_e = slack_bus.v_setpoint * np.cos(ang)
        self.slack_f = slack_bus.v_setpoint * np.sin(ang)
        self.v_set_pv = np.array([case.buses[i].v_setpoint for i in self.pv])

        rows = np.repeat(np.arange(n), np.diff(self.y.indptr))
        keep = rows != self.slack  # slack rows are identity, not KCL
        yr, yc, yv = rows[keep], self.y.indices[keep], self.y.data[keep]
        g, b = yv.real, yv.imag
        const_rows = np.concatenate(
            [2 * yr, 2 * yr, 2 * yr + 1, 2 * yr + 1, [2 * self.slack, 2 * self.slack + 1]]
        )
        const_cols = np.concatenate(
            [2 * yc, 2 * yc + 1, 2 * yc, 2 * yc + 1, [2 * self.slack, 2 * self.slack + 1]]
        )
        const_vals = np.concatenate([-g, b, -b, -g, [1.0, 1.0]])

        ns = self.nonslack
        qcol = 2 * n + np.arange(len(self.pv))
        pv_rows = np.column_stack([2 * self.pv, 2 * self.pv + 1]).ravel()
        var_rows = np.concatenate(
            [np.repeat(2 * ns, 4) + np.tile([0, 0, 1, 1], len(ns)), pv_rows, np.repeat(qcol, 2)]
        )
        var_cols = np.concatenate(
            [np.repeat(2 * ns, 4) + np.tile([0, 1, 0, 1], len(ns)), np.repeat(qcol, 2), pv_rows]
        )

        # Canonical CSC pattern (column-major, sorted rows) of the union of
        # both entry sets. Where an injection entry shares a position with a
        # constant one the two are summed; elsewhere the template holds -0.0,
        # the additive identity that leaves every injection value bit-exact.
        keys = np.concatenate([const_cols, var_cols]) * self.dim + np.concatenate(
            [const_rows, var_rows]
        )
        pattern, slot = np.unique(keys, return_inverse=True)
        self._indices = (pattern % self.dim).astype(np.intc)
        self._indptr = np.searchsorted(pattern // self.dim, np.arange(self.dim + 1)).astype(
            np.intc
        )
        self._template = np.full(len(pattern), -0.0)
        self._template[slot[: len(const_vals)]] = const_vals
        self._var_slots = slot[len(const_vals) :]

    def _initial_states(
        self, q: np.ndarray, start: PowerFlowSolution | None = None
    ) -> np.ndarray:
        """(S, dim) starting states: ``start``'s solution, else a flat start."""
        x = np.zeros((len(q), self.dim))
        if start is not None:
            x[:, 0 : 2 * self.n : 2] = start.v.real
            x[:, 1 : 2 * self.n : 2] = start.v.imag
            for j, i in enumerate(self.pv):
                bus_id = self.bus_ids[i]
                x[:, 2 * self.n + j] = start.q_pv[bus_id] if bus_id in start.q_pv else q[:, i]
        else:
            x[:, 0 : 2 * self.n : 2] = 1.0
            x[:, 2 * self.pv] = self.v_set_pv
            x[:, 2 * self.n :] = q[:, self.pv]
        return self._pin_slack(x)

    def _terms(self, x: np.ndarray, q: np.ndarray):
        """Per-row e, f, effective Q (PV rows from the state), V and network currents Y V."""
        e = x[:, 0 : 2 * self.n : 2]
        f = x[:, 1 : 2 * self.n : 2]
        q_eff = q.copy()
        q_eff[:, self.pv] = x[:, 2 * self.n :]
        v = e + 1j * f
        return e, f, q_eff, v, (self.y @ v.T).T

    def _mismatch(self, v, i_net, p, q) -> np.ndarray:
        """Worst specified-vs-computed power mismatch over non-slack buses, pu, per row."""
        s_calc = v * np.conj(i_net)
        parts = [
            np.abs(p[:, self.nonslack] - s_calc.real[:, self.nonslack]),
            np.abs(q[:, self.pq] - s_calc.imag[:, self.pq]),
            np.abs(np.abs(v[:, self.pv]) - self.v_set_pv),
        ]
        # Python's max() semantics: a part replaces the running value only
        # when strictly greater, so a NaN part never displaces a number.
        worst = None
        for part in parts:
            peak = part.max(axis=1) if part.shape[1] else np.zeros(len(v))
            worst = peak if worst is None else np.where(peak > worst, peak, worst)
        return worst

    def _residual(self, e, f, q_eff, i_net, p) -> np.ndarray:
        d = e * e + f * f
        res = np.empty((len(e), self.dim))
        res[:, 0 : 2 * self.n : 2] = (p * e + q_eff * f) / d - i_net.real
        res[:, 1 : 2 * self.n : 2] = (p * f - q_eff * e) / d - i_net.imag
        res[:, 2 * self.slack] = e[:, self.slack] - self.slack_e
        res[:, 2 * self.slack + 1] = f[:, self.slack] - self.slack_f
        res[:, 2 * self.n :] = e[:, self.pv] ** 2 + f[:, self.pv] ** 2 - self.v_set_pv**2
        return res

    def _jacobian_data(self, e, f, q_eff, p) -> np.ndarray:
        """(S, nnz) CSC data of each row's Jacobian on the engine's fixed pattern."""
        ee, ff = e * e, f * f
        d = ee + ff
        dd = d * d
        ns, pv = self.nonslack, self.pv
        a = ((p * (ff - ee) - 2.0 * q_eff * e * f) / dd)[:, ns]
        b = ((q_eff * (ee - ff) - 2.0 * p * e * f) / dd)[:, ns]
        e_pv, f_pv, d_pv = e[:, pv], f[:, pv], d[:, pv]
        k, m = 4 * len(ns), 2 * len(pv)
        var = np.empty((len(e), len(self._var_slots)))
        var[:, 0:k:4], var[:, 1:k:4], var[:, 2:k:4], var[:, 3:k:4] = a, b, b, -a
        var[:, k : k + m : 2] = f_pv / d_pv
        var[:, k + 1 : k + m : 2] = -e_pv / d_pv
        var[:, k + m :: 2] = 2.0 * e_pv
        var[:, k + m + 1 :: 2] = 2.0 * f_pv
        data = np.tile(self._template, (len(e), 1))
        data[:, self._var_slots] += var
        return data

    def _jacobian(self, data: np.ndarray) -> sparse.csc_matrix:
        """A Jacobian with the CSC values ``data`` on the engine's fixed pattern."""
        return sparse.csc_matrix((data, self._indices, self._indptr), shape=(self.dim, self.dim))

    def _factorize(self, jac: sparse.csc_matrix):
        """Sparse LU of one Jacobian; an uncoupled bus is named in the error."""
        try:
            return splu(jac)
        except RuntimeError as exc:
            row_mass = np.bincount(jac.indices, weights=np.abs(jac.data), minlength=self.dim)
            if np.any(row_mass == 0.0):
                row = int(np.flatnonzero(row_mass == 0.0)[0])
                bus = self.case.buses[row // 2 if row < 2 * self.n else self.pv[row - 2 * self.n]]
                raise JacobianSingular(
                    f"singular Jacobian: no equations couple bus {bus.id}"
                ) from exc
            raise JacobianSingular(f"factorization failed: {exc}") from exc

    def factorize_at(self, start: PowerFlowSolution, p: np.ndarray, q: np.ndarray):
        """Sparse LU of the Jacobian at ``start``'s state under one row of injections."""
        p, q = np.atleast_2d(p), np.atleast_2d(q)
        e, f, q_eff, _, _ = self._terms(self._initial_states(q, start), q)
        return self._factorize(self._jacobian(self._jacobian_data(e, f, q_eff, p)[0]))

    def _pin_slack(self, x: np.ndarray) -> np.ndarray:
        """Hold the slack voltage at its setpoint bit-exactly."""
        x[:, 2 * self.slack] = self.slack_e
        x[:, 2 * self.slack + 1] = self.slack_f
        return x

    def solve(
        self,
        p: np.ndarray,
        q: np.ndarray,
        start: PowerFlowSolution | None = None,
        options: NewtonOptions | None = None,
    ) -> BatchSolution:
        """Full Newton on each row of the (S, n) injections, all rows in lockstep.

        A row stops when its mismatch meets the tolerance (converged), turns
        non-finite or exceeds the divergence limit, its state turns
        non-finite, or it reaches ``max_iter``; the others iterate on.
        """
        opts = options or NewtonOptions()
        p, q = np.atleast_2d(p), np.atleast_2d(q)
        x = self._initial_states(q, start)
        history = np.full((len(x), opts.max_iter + 2), np.nan)
        iterations = np.full(len(x), opts.max_iter)  # Newton steps each row ran
        converged = np.zeros(len(x), dtype=bool)
        jac = self._jacobian(self._template.copy())  # each row swaps its values in
        # The rows still iterating: their indices, states and injections.
        rows, xa, pa, qa = np.arange(len(x)), x, p, q
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for it in range(opts.max_iter + 1):
                e, f, q_eff, v, i_net = self._terms(xa, qa)
                mismatch = self._mismatch(v, i_net, pa, qa)
                history[rows, it] = mismatch
                ok = mismatch <= opts.tolerance
                stop = ok | ~np.isfinite(mismatch) | (mismatch > _DIVERGENCE_LIMIT)
                if stop.any():
                    converged[rows[ok]] = True
                    iterations[rows[stop]] = it
                    x[rows[stop]] = xa[stop]
                    keep = ~stop
                    rows, xa, pa, qa = rows[keep], xa[keep], pa[keep], qa[keep]
                    e, f, q_eff, i_net = e[keep], f[keep], q_eff[keep], i_net[keep]
                if it == opts.max_iter or not len(rows):
                    break
                data = self._jacobian_data(e, f, q_eff, pa)
                rhs = -self._residual(e, f, q_eff, i_net, pa)
                step = np.empty_like(rhs)
                for r in range(len(rows)):
                    jac.data = data[r]
                    step[r] = self._factorize(jac).solve(rhs[r])
                xa = self._pin_slack(xa + step)
                finite = np.isfinite(xa).all(axis=1)
                if not finite.all():
                    blown = rows[~finite]
                    history[blown, it + 1] = np.inf
                    iterations[blown] = it + 1
                    x[blown] = xa[~finite]
                    rows, xa, pa, qa = rows[finite], xa[finite], pa[finite], qa[finite]
        x[rows] = xa  # rows that ran out of iterations
        return BatchSolution(
            v=x[:, 0 : 2 * self.n : 2] + 1j * x[:, 1 : 2 * self.n : 2],
            q_pv=x[:, 2 * self.n :],
            bus_ids=self.bus_ids,
            pv_ids=tuple(self.bus_ids[i] for i in self.pv),
            converged=converged,
            iterations=iterations,
            history=history,
        )


@dataclass(eq=False)
class BatchSolution:
    """Per-row results of one :meth:`PowerFlowEngine.solve` call."""

    v: np.ndarray  # (S, n) complex bus voltages, case bus order
    q_pv: np.ndarray  # (S, n_pv) solved net Q at PV buses
    bus_ids: tuple[int, ...]
    pv_ids: tuple[int, ...]
    converged: np.ndarray  # (S,) bool
    iterations: np.ndarray  # (S,) Newton iterations each row ran
    history: np.ndarray  # (S, max_iter + 2) mismatch per iteration; row k has iterations[k] + 1

    def solution(self, k: int) -> PowerFlowSolution:
        """Row k as a :class:`PowerFlowSolution`."""
        history = tuple(float(m) for m in self.history[k, : self.iterations[k] + 1])
        return PowerFlowSolution(
            v=self.v[k],
            bus_ids=self.bus_ids,
            iterations=int(self.iterations[k]),
            max_mismatch=history[-1],
            converged=bool(self.converged[k]),
            mismatch_history=history,
            q_pv={b: float(q) for b, q in zip(self.pv_ids, self.q_pv[k])},
        )


_DIVERGENCE_LIMIT = 1e8


def engine_for(case: GridCase | PowerFlowEngine) -> PowerFlowEngine:
    """The engine for ``case``: ``case`` itself when it already is one, else built here."""
    return case if isinstance(case, PowerFlowEngine) else PowerFlowEngine(case)


def solve_power_flow(
    case: GridCase | PowerFlowEngine,
    options: NewtonOptions | None = None,
    injections: tuple[np.ndarray, np.ndarray] | None = None,
    start: PowerFlowSolution | None = None,
) -> PowerFlowSolution:
    """Newton power flow; deterministic for fixed inputs.

    The one-row case of :meth:`PowerFlowEngine.solve`; pass an engine
    already built for the case to skip building one. Returns a solution
    with ``converged=False`` plus the mismatch history when the iteration
    fails, rather than raising; callers that need a converged base point
    raise on that flag.
    """
    engine = engine_for(case)
    p, q = injections if injections is not None else engine.case_injections
    return engine.solve(p, q, start, options).solution(0)


class MetricKind(Enum):
    BUS_VOLTAGE_MAGNITUDE = "bus_voltage_magnitude"


@dataclass(frozen=True)
class Metric:
    kind: MetricKind
    bus: int


@dataclass(frozen=True)
class MetricSpec:
    """Ordered list of critical performance metrics to track."""

    entries: tuple[Metric, ...]

    @classmethod
    def voltages_at(cls, bus_ids) -> "MetricSpec":
        return cls(tuple(Metric(MetricKind.BUS_VOLTAGE_MAGNITUDE, int(b)) for b in bus_ids))

    @property
    def buses(self) -> tuple[int, ...]:
        return tuple(m.bus for m in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def default_metric_spec(case: GridCase) -> MetricSpec:
    """Voltage magnitude at every nonzero-injection PQ bus, in bus order."""
    p, q = case.injections()
    idx = case.bus_index()
    buses = [
        b.id
        for b in case.buses
        if b.kind is BusKind.PQ and (p[idx[b.id]] != 0.0 or q[idx[b.id]] != 0.0)
    ]
    return MetricSpec.voltages_at(buses)


def metric_positions(bus_ids: tuple[int, ...], spec: MetricSpec) -> np.ndarray:
    """Case-order position of each metric's bus, in spec order."""
    pos = {bus_id: i for i, bus_id in enumerate(bus_ids)}
    missing = [m.bus for m in spec.entries if m.bus not in pos]
    if missing:
        raise UnknownBus(f"metric references unknown bus {missing[0]}")
    return np.array([pos[m.bus] for m in spec.entries], dtype=int)


def evaluate_metrics(sol: PowerFlowSolution, spec: MetricSpec) -> np.ndarray:
    """Metric values in spec order; requires a converged solution."""
    if not sol.converged:
        raise NotConverged("metrics requested on a non-converged power flow")
    return np.abs(sol.v[metric_positions(sol.bus_ids, spec)])
