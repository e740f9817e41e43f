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

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .exceptions import (
    JacobianSingular,
    NotConverged,
    SingularityWarning,
    UnknownBus,
)
from .model import BusKind, GridCase


def build_admittance(case: GridCase) -> sparse.csr_matrix:
    """The CSR bus admittance matrix, in case bus order, of the branches and bus shunts.

    Each branch contributes the standard two-port pi-model with an
    off-nominal complex turns ratio tap*exp(j*shift) on the from side; a
    bus shunt adds gs + j*bs to its diagonal entry. A bus that no branch
    reaches is warned about, shunt or not.
    """
    idx = case.bus_index()
    n = len(case.buses)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []
    for br in case.branches:
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
    touched = np.zeros(n, dtype=bool)
    touched[rows] = True
    # Only nonzero shunts are stamped: adding 0 could turn a -0.0 entry into +0.0.
    for i, bus in enumerate(case.buses):
        if bus.gs or bus.bs:
            rows.append(i)
            cols.append(i)
            vals.append(complex(bus.gs, bus.bs))
    y_bus = sparse.coo_matrix(
        (np.array(vals, dtype=complex), (rows, cols)), shape=(n, n)
    ).tocsr()

    for i in np.flatnonzero(~touched):
        warnings.warn(
            f"bus {case.buses[i].id} has no incident admittance",
            SingularityWarning,
            stacklevel=2,
        )
    return y_bus


@dataclass
class NewtonOptions:
    tolerance: float = 1e-8  # pu power mismatch
    max_iter: int = 50


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


def _rows_of(rows: np.ndarray, cols: np.ndarray, dim: int) -> list[list[int]]:
    """The entries' columns grouped by row, for (rows, cols) sorted by row."""
    bounds = np.searchsorted(rows, np.arange(dim + 1)).tolist()
    cols = cols.tolist()
    return [cols[a:b] for a, b in zip(bounds, bounds[1:])]


def _levels(deps: list[list[int]], order) -> np.ndarray:
    """Each node's depth in a DAG: 0 without dependencies, else 1 + its deepest dependency's.

    ``order`` visits every node after all its dependencies.
    """
    level = [0] * len(deps)
    for k in order:
        level[k] = 1 + max(map(level.__getitem__, deps[k]), default=-1)
    return np.array(level, dtype=int)


def _by_level(rows: np.ndarray, cols: np.ndarray, level: np.ndarray, pos: np.ndarray) -> list:
    """A row-oriented triangular solve's schedule: per level from 1, its rows and their terms.

    Each entry is (rows, term positions in the LU, term columns, start of
    each row's terms), for ``np.add.reduceat``; rows of level 0 have no terms.
    """
    order = np.argsort(level[rows], kind="stable")  # keeps each row's terms in column order
    rows, cols = rows[order], cols[order]
    heads = np.flatnonzero(np.diff(rows, prepend=-1))  # a row's first term
    bounds = np.searchsorted(level[rows], np.arange(1, level.max() + 2))
    firsts = np.searchsorted(heads, bounds).tolist()
    terms = pos[rows, cols]
    return [
        (rows[heads[h:g]], terms[a:b], cols[a:b], heads[h:g] - a)
        for a, b, h, g in zip(bounds.tolist(), bounds[1:].tolist(), firsts, firsts[1:])
    ]


class _ReplayLU:
    """One sparse LU's pivot sequence, replayed on stacks of same-pattern matrices.

    SuperLU factors the reference matrix A once, with minimum-degree
    ordering on A^T + A and partial pivoting. Its row pivots ``perm_r`` and
    column order ``perm_c`` fix B = Pr A Pc, with B[perm_r[i], perm_c[j]] =
    A[i, j], which every later matrix is factored as without pivoting. The
    fill of B's pattern is found symbolically and each elimination step is
    given a level, one more than the deepest step that writes to its row or
    column. :meth:`solve` then runs the factorization and both triangular
    solves level by level on (nnz + dim, S) arrays. A factor level divides
    its pivots' columns, then applies their rank-one updates in rounds of
    distinct targets; the forward solve's updates join those rounds, as
    one more column of the matrix. A backward-solve level sums each row's
    terms with ``np.add.reduceat``. Every operation is elementwise along S,
    so a row's result does not depend on the other rows or their number.
    """

    def __init__(self, indices: np.ndarray, indptr: np.ndarray, data: np.ndarray):
        self.dim = dim = len(indptr) - 1
        ref = splu(
            sparse.csc_matrix((data, indices, indptr), shape=(dim, dim)),
            permc_spec="MMD_AT_PLUS_A",
        )
        self.perm_r, self.perm_c = ref.perm_r, ref.perm_c
        bi = self.perm_r[indices]
        bj = self.perm_c[np.repeat(np.arange(dim), np.diff(indptr))]

        # Symbolic LU without pivoting, row by row on bit masks: row i takes
        # the upper pattern of every row k < i in its (growing) lower part.
        nbytes = (dim + 7) // 8
        dense = np.zeros((dim, dim), dtype=bool)
        dense[bi, bj] = True
        packed = np.packbits(dense, axis=1, bitorder="little").tobytes()
        pattern = [
            int.from_bytes(packed[r : r + nbytes], "little") for r in range(0, len(packed), nbytes)
        ]
        upper = [0] * dim
        for i in range(dim):
            row, below = pattern[i], (1 << i) - 1
            lower = row & below
            while lower:
                k = (lower & -lower).bit_length() - 1
                row |= upper[k]
                lower = row & below & ~((2 << k) - 1)
            upper[i] = row >> (i + 1) << (i + 1)
            pattern[i] = row
        packed = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in pattern), np.uint8)
        filled = np.unpackbits(packed.reshape(dim, nbytes), axis=1, count=dim, bitorder="little")
        fi, fj = np.nonzero(filled)  # row-major
        pos = np.full((dim, dim), -1)
        pos[fi, fj] = np.arange(len(fi))
        self.nnz, self.scatter = len(fi), pos[bi, bj]
        self.diag = pos[np.arange(dim), np.arange(dim)]
        li, lj = fi[fj < fi], fj[fj < fi]  # strictly lower (L) entries, row-major
        ui, uj = fi[fj > fi], fj[fj > fi]  # strictly upper (U) entries, row-major

        # Step k reads row k of U and column k of L: it waits for each step
        # p with L[k, p] or U[p, k].
        l_rows = _rows_of(li, lj, dim)
        by_col = np.argsort(uj, kind="stable")
        u_cols = _rows_of(uj[by_col], ui[by_col], dim)
        level = _levels([a + b for a, b in zip(l_rows, u_cols)], range(dim))

        # Step k's updates: U[k, j] times each L[i, k], from B[i, j]. The
        # forward solve rides along: y[k] times each L[i, k], from y[i].
        by_col = np.lexsort((li, lj))
        lci, lcj = li[by_col], lj[by_col]  # L entries, column-major
        n_l = np.bincount(lcj, minlength=dim)
        n_u = np.bincount(ui, minlength=dim)
        per = n_l * n_u
        k = np.repeat(np.arange(dim), per)
        offset = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per)
        width = np.maximum(n_u[k], 1)
        i = lci[np.repeat(np.cumsum(n_l) - n_l, per) + offset // width]
        j = uj[np.repeat(np.cumsum(n_u) - n_u, per) + offset % width]
        l_pos, y0 = pos[lci, lcj], self.nnz  # y[i] is row y0 + i of the work array
        target = np.concatenate([pos[i, j], y0 + lci])
        l_k = np.concatenate([pos[i, k], l_pos])
        u_k = np.concatenate([pos[k, j], y0 + lcj])
        k = np.concatenate([k, lcj])
        # An update's round is the number of updates of its level before it
        # with the same target, in step order.
        step_level = level[k]
        order = np.lexsort((k, target, step_level))
        same = np.flatnonzero(np.diff(step_level[order] * (y0 + dim) + target[order], prepend=-1))
        rank = np.empty(len(order), dtype=int)
        rank[order] = np.arange(len(order)) - np.repeat(same, np.diff(same, append=len(order)))
        order = np.lexsort((rank, step_level))  # stable: step order within a round
        group = step_level[order] * (rank.max(initial=0) + 1) + rank[order]
        cuts = np.flatnonzero(np.diff(group, prepend=-1)).tolist() + [len(order)]
        rounds = [[] for _ in range(level.max() + 1)]
        for a, b in zip(cuts, cuts[1:]):
            pick = order[a:b]
            rounds[step_level[pick[0]]].append((target[pick], l_k[pick], u_k[pick]))
        by_level = np.argsort(level[lcj], kind="stable")
        bounds = np.searchsorted(level[lcj][by_level], np.arange(level.max() + 2)).tolist()
        self.factor_levels = [
            (l_pos[pick], self.diag[lcj[pick]], rounds[lv])
            for lv, (a, b) in enumerate(zip(bounds, bounds[1:]))
            for pick in [by_level[a:b]]
        ]
        self.rhs_rows = y0 + self.perm_r

        backward = _levels(_rows_of(ui, uj, dim), range(dim - 1, -1, -1))
        self.backward = _by_level(ui, uj, backward, pos)
        self.backward_first = np.flatnonzero(backward == 0)

    def solve(self, data: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(S, dim) solutions for the (S, nnz) CSC values ``data`` and (S, dim) ``rhs``.

        Also returns which rows met a zero or non-finite pivot or gave a
        non-finite solution; their rows of the result mean nothing.
        """
        work = np.zeros((self.nnz + self.dim, len(data)))  # LU entries, then y and x
        work[self.scatter] = data.T
        work[self.rhs_rows] = rhs.T
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for column, pivot, rounds in self.factor_levels:
                work[column] /= work[pivot]
                for target, l_k, u_k in rounds:
                    work[target] -= work[l_k] * work[u_k]
            pivots = work[self.diag]
            x = work[self.nnz :]
            first = self.backward_first
            x[first] /= pivots[first]
            for rows, terms, cols, starts in self.backward:
                x[rows] = (x[rows] - np.add.reduceat(work[terms] * x[cols], starts)) / pivots[rows]
        x = x[self.perm_c].T
        ok = (np.isfinite(pivots) & (pivots != 0.0)).all(axis=0) & np.isfinite(x).all(axis=1)
        return x, ~ok


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
    Jacobian. From a flat start each Jacobian is factored on its own; from
    a solved start all of them are factored at once along one replayed
    pivot sequence (:class:`_ReplayLU`), taken from that start alone.
    Either way a sample's iterates do not depend on the rows it is solved
    with. :meth:`solve_blocks` runs the same lockstep over a stream of
    blocks: each row counts its own iterations, and before an iteration in
    which fewer rows would step than the last admitted block held, the
    next block joins them, so a slow or failing row steps alongside fresh
    ones instead of alone. :meth:`chord_solve` and :meth:`solve_transposed`
    instead reuse one factorization at an already solved state.
    """

    def __init__(self, case: GridCase):
        self.case = case
        self.n = n = len(case.buses)
        self.bus_ids = tuple(b.id for b in case.buses)
        self.y = build_admittance(case)
        kinds = [b.kind for b in case.buses]
        self.slack = case.buses.index(case.slack)
        self.pv = np.array([i for i, k in enumerate(kinds) if k is BusKind.PV], dtype=int)
        self.pv_ids = tuple(self.bus_ids[i] for i in self.pv)
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
        # J^T's CSC arrays are J's CSR ones: J's entries taken row by row.
        rows_of, cols_of = self._indices, pattern // self.dim
        self._t_gather = np.argsort(rows_of * self.dim + cols_of)
        self._t_indices = cols_of[self._t_gather].astype(np.intc)
        self._t_indptr = np.searchsorted(
            rows_of[self._t_gather], np.arange(self.dim + 1)
        ).astype(np.intc)
        self._template = np.full(len(pattern), -0.0)
        self._template[slot[: len(const_vals)]] = const_vals
        self._var_slots = slot[len(const_vals) :]
        self._replay: tuple[PowerFlowSolution, _ReplayLU] | None = None  # the last start's

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

    def _factorize(self, data: np.ndarray, transposed: bool = False):
        """Sparse LU of the Jacobian with CSC values ``data``, or of its transpose.

        Either way, a bus that no equation couples is named in the error.
        """
        if transposed:
            jac = sparse.csc_matrix(
                (data[self._t_gather], self._t_indices, self._t_indptr), shape=(self.dim, self.dim)
            )
        else:
            jac = self._jacobian(data)
        try:
            return splu(jac)
        except RuntimeError as exc:
            row_mass = np.bincount(self._indices, weights=np.abs(data), minlength=self.dim)
            if np.any(row_mass == 0.0):
                row = int(np.flatnonzero(row_mass == 0.0)[0])
                bus = self.case.buses[row // 2 if row < 2 * self.n else self.pv[row - 2 * self.n]]
                raise JacobianSingular(
                    f"singular Jacobian: no equations couple bus {bus.id}"
                ) from exc
            raise JacobianSingular(f"factorization failed: {exc}") from exc

    def _replay_at(self, start: PowerFlowSolution) -> _ReplayLU:
        """The replayed LU for Newton from ``start``, built once per solved state.

        Its pivots come from the Jacobian at ``start``'s state under the
        injections that state balances, so they depend on ``start`` alone.
        """
        if self._replay is None or self._replay[0] is not start:
            s = start.v * np.conj(self.y @ start.v)
            data = self._jacobian_data_at(start, s.real, s.imag)
            self._replay = (start, _ReplayLU(self._indices, self._indptr, data))
        return self._replay[1]

    def _steps(
        self, data: np.ndarray, rhs: np.ndarray, replay: _ReplayLU | None = None
    ) -> np.ndarray:
        """Each row's Newton step J_r^-1 rhs_r.

        Without ``replay`` (the flat start) every row is factored on its own,
        and a singular row raises its :class:`JacobianSingular`. With it, all
        rows are factored at once along the replay's pivot sequence; a row
        whose replay meets a zero or non-finite pivot, or gives a non-finite
        step, is factored on its own instead, and if singular there too gets
        a NaN step, which stops it alone as a failed row.
        """
        if replay is None:
            return np.array([self._factorize(d).solve(b) for d, b in zip(data, rhs)])
        step, bad = replay.solve(data, rhs)
        for r in np.flatnonzero(bad):
            try:
                step[r] = self._factorize(data[r]).solve(rhs[r])
            except JacobianSingular:
                step[r] = np.nan
        return step

    def _jacobian_data_at(
        self, start: PowerFlowSolution, p: np.ndarray, q: np.ndarray
    ) -> np.ndarray:
        """CSC data of the Jacobian at ``start``'s state under one row of injections."""
        p, q = np.atleast_2d(p), np.atleast_2d(q)
        e, f, q_eff, _, _ = self._terms(self._initial_states(q, start), q)
        return self._jacobian_data(e, f, q_eff, p)[0]

    def solve_transposed(
        self, start: PowerFlowSolution, p: np.ndarray, q: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        """J^-T rhs for the Jacobian J at ``start``'s state under one row of injections.

        J^T itself is factored, so every column of the (dim, k) ``rhs`` goes
        through one non-transposed multi-right-hand-side solve; SuperLU
        solves ``trans="T"`` one column at a time. A singular J raises the
        :class:`JacobianSingular` that factoring J would.
        """
        return self._factorize(self._jacobian_data_at(start, p, q), transposed=True).solve(rhs)

    def chord_solve(
        self,
        p: np.ndarray,
        q: np.ndarray,
        start: PowerFlowSolution,
        base: tuple[np.ndarray, np.ndarray],
        options: NewtonOptions | None = None,
    ) -> BatchSolution:
        """Each row of the (S, n) injections solved from ``start`` by chord steps.

        Every chord step reuses one LU: the Jacobian at ``start``'s state
        under the ``base`` injections (p, q), the ones ``start`` solves. All
        rows step in lockstep, with one multi-right-hand-side solve per
        step. A row that meets the tolerance within ``CHORD_STEPS`` steps has
        converged; every other row is handed to :meth:`solve` from ``start``,
        so it converges or fails, and reports it, as full Newton would.
        """
        opts = options or NewtonOptions()
        p, q = np.atleast_2d(p), np.atleast_2d(q)
        lu = self._factorize(self._jacobian_data_at(start, *base))
        result = self._gather(
            self._lockstep(
                [(self._initial_states(q, start), p, q)],
                lambda e, f, q_eff, p, rhs: lu.solve(rhs.T).T, CHORD_STEPS, opts,
            ),
            len(p), opts,
        )
        unsettled = np.flatnonzero(~result.converged)
        if len(unsettled):
            newton = self.solve(p[unsettled], q[unsettled], start, opts)
            for name in ("v", "q_pv", "converged", "iterations", "history"):
                getattr(result, name)[unsettled] = getattr(newton, name)
        return result

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
        non-finite, or it reaches ``max_iter``; the others iterate on. From
        a solved ``start`` the steps come from :meth:`_replay_at`'s LU and a
        singular row fails alone; from the flat start a singular row raises.
        """
        opts = options or NewtonOptions()
        p, q = np.atleast_2d(p), np.atleast_2d(q)
        return self._gather(self._newton([(p, q)], start, opts), len(p), opts)

    def solve_blocks(self, blocks, start: PowerFlowSolution):
        """:meth:`solve` from ``start`` on a stream of (p, q) blocks, admitted as rows stop.

        The first block is admitted at once. Before each later iteration,
        if fewer rows still iterate than the last admitted block held, the
        next block (drawn from ``blocks`` only then) joins them at its
        starting states. Yields (rows, :class:`BatchSolution`) for the rows
        that stop, ``rows`` being their positions in the stream. A row's
        results are those :meth:`solve` gives it alone.
        """
        for rows, *stopped in self._newton(blocks, start, NewtonOptions()):
            yield rows, self._batch(*stopped)

    def _newton(self, blocks, start: PowerFlowSolution | None, opts: NewtonOptions):
        """:meth:`_lockstep` with full Newton steps on (p, q) blocks from ``start``."""
        replay = None if start is None else self._replay_at(start)
        return self._lockstep(
            ((self._initial_states(q, start), p, q) for p, q in blocks),
            lambda e, f, q_eff, p, rhs: self._steps(
                self._jacobian_data(e, f, q_eff, p), rhs, replay
            ),
            opts.max_iter, opts,
        )

    def _lockstep(self, blocks, step, cap: int, opts: NewtonOptions):
        """The lockstep iteration of :meth:`solve_blocks` and :meth:`chord_solve`.

        ``blocks`` yields (x, p, q): (S, dim) starting states and their
        injections, admitted by :meth:`solve_blocks`' rule. Each row counts
        its own steps. ``step(e, f, q_eff, p, rhs)`` returns the iterating
        rows' state updates for the right-hand sides -residual; the stop
        rules are :meth:`solve`'s, with ``cap`` steps in place of
        ``max_iter``. Yields (rows, states, converged, iterations, histories)
        as rows stop, ``rows`` being their positions in admission order.
        """
        # max_iter + 2 wide whatever the cap, so a chord row can take a Newton row's history
        width = opts.max_iter + 2
        pending, refill, admitted = iter(blocks), 1, 0
        # The rows iterating: positions, steps taken, states, injections and histories.
        live = (
            np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros((0, self.dim)),
            np.zeros((0, self.n)), np.zeros((0, self.n)), np.zeros((0, width)),
        )
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while True:
                block = next(pending, None) if len(live[0]) < refill else None
                if block is not None:
                    x, p, q = block
                    refill = len(x)
                    fresh = (
                        admitted + np.arange(refill), np.zeros(refill, dtype=int), x, p, q,
                        np.full((refill, width), np.nan),
                    )
                    if len(live[0]):
                        fresh = [np.concatenate(pair) for pair in zip(live, fresh)]
                    live = fresh
                    admitted += refill
                rows, its, xa, pa, qa, history = live
                if not len(rows):
                    return
                e, f, q_eff, v, i_net = self._terms(xa, qa)
                mismatch = self._mismatch(v, i_net, pa, qa)
                history[np.arange(len(rows)), its] = mismatch
                ok = mismatch <= opts.tolerance
                stop = ok | ~np.isfinite(mismatch) | (mismatch > _DIVERGENCE_LIMIT) | (its == cap)
                if stop.any():
                    yield rows[stop], xa[stop], ok[stop], its[stop], history[stop]
                    keep = ~stop
                    live = [a[keep] for a in live]
                    if not len(live[0]):
                        continue  # admit the next block, or end
                    rows, its, xa, pa, qa, history = live
                    e, f, q_eff, i_net = e[keep], f[keep], q_eff[keep], i_net[keep]
                rhs = -self._residual(e, f, q_eff, i_net, pa)
                xa = self._pin_slack(xa + step(e, f, q_eff, pa, rhs))
                its = its + 1
                live = (rows, its, xa, pa, qa, history)
                blown = ~np.isfinite(xa).all(axis=1)
                if blown.any():
                    history[blown, its[blown]] = np.inf
                    failed = np.zeros(int(blown.sum()), dtype=bool)
                    yield rows[blown], xa[blown], failed, its[blown], history[blown]
                    live = [a[~blown] for a in live]

    def _batch(self, x, converged, iterations, history) -> BatchSolution:
        """The :class:`BatchSolution` of (S, dim) states and their outcomes."""
        return BatchSolution(
            v=x[:, 0 : 2 * self.n : 2] + 1j * x[:, 1 : 2 * self.n : 2],
            q_pv=x[:, 2 * self.n :],
            bus_ids=self.bus_ids,
            pv_ids=self.pv_ids,
            converged=converged,
            iterations=iterations,
            history=history,
        )

    def _gather(self, stopped, count: int, opts: NewtonOptions) -> BatchSolution:
        """One :class:`BatchSolution` of ``count`` rows from :meth:`_lockstep`'s stopped rows."""
        # each row stops exactly once, so every entry is written
        outcome = (
            np.empty((count, self.dim)),
            np.empty(count, dtype=bool),
            np.empty(count, dtype=int),
            np.empty((count, opts.max_iter + 2)),
        )
        for rows, *parts in stopped:
            for whole, part in zip(outcome, parts):
                whole[rows] = part
        return self._batch(*outcome)


@dataclass(eq=False)
class BatchSolution:
    """Per-row results of a :meth:`PowerFlowEngine.solve` or ``chord_solve`` call.

    :meth:`PowerFlowEngine.solve_blocks` yields one for each set of rows that stop.
    """

    v: np.ndarray  # (S, n) complex bus voltages, case bus order
    q_pv: np.ndarray  # (S, n_pv) solved net Q at PV buses
    bus_ids: tuple[int, ...]
    pv_ids: tuple[int, ...]
    converged: np.ndarray  # (S,) bool
    iterations: np.ndarray  # (S,) Newton or chord steps each row took
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

# Chord steps a row of :meth:`PowerFlowEngine.chord_solve` may take before
# full Newton solves it instead. A finite-difference probe row settles in one or two.
CHORD_STEPS = 4


def engine_for(case: GridCase | PowerFlowEngine) -> PowerFlowEngine:
    """The engine for ``case``: ``case`` itself when it already is one, else built here."""
    return case if isinstance(case, PowerFlowEngine) else PowerFlowEngine(case)


def solve_power_flow(
    case: GridCase | PowerFlowEngine,
    injections: tuple[np.ndarray, np.ndarray] | None = None,
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
    return engine.solve(p, q).solution(0)


@dataclass(frozen=True)
class MetricSpec:
    """Ordered list of critical performance metrics to track: bus voltage magnitudes."""

    buses: tuple[int, ...]

    @classmethod
    def voltages_at(cls, bus_ids) -> "MetricSpec":
        return cls(tuple(int(b) for b in bus_ids))

    def __len__(self) -> int:
        return len(self.buses)


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
    missing = [b for b in spec.buses if b not in pos]
    if missing:
        raise UnknownBus(f"metric references unknown bus {missing[0]}")
    return np.array([pos[b] for b in spec.buses], dtype=int)


def evaluate_metrics(sol: PowerFlowSolution, spec: MetricSpec) -> np.ndarray:
    """Metric values in spec order; requires a converged solution."""
    if not sol.converged:
        raise NotConverged("metrics requested on a non-converged power flow")
    return np.abs(sol.v[metric_positions(sol.bus_ids, spec)])
