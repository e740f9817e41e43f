"""Immutable in-memory network model with stochastic-resource annotations.

All power quantities are stored in per-unit on the system MVA base; loads
are stored as negative injections so that one parameter vector covers
essential generators and essential loads uniformly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

import numpy as np

from .exceptions import EmptySelection, TopologyError


class BusKind(Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


@dataclass(frozen=True)
class Bus:
    id: int
    kind: BusKind
    v_setpoint: float | None = None  # pu, slack/PV only
    angle_setpoint: float | None = None  # rad, slack only
    v_max: float | None = None
    v_min: float | None = None


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_shunt: float = 0.0  # total line charging, split half per end
    tap: float = 1.0
    phase_shift: float = 0.0  # rad
    status: bool = True


@dataclass(frozen=True)
class Generator:
    id: str
    bus: int
    p: float  # pu injection
    q: float
    essential: bool = False
    fuel_tag: str = ""


@dataclass(frozen=True)
class Load:
    id: str
    bus: int
    p: float  # pu injection, negative for consumption
    q: float
    essential: bool = False
    fuel_tag: str = ""


@dataclass(frozen=True)
class GridCase:
    """Validated network description; safe to share across workers."""

    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    loads: tuple[Load, ...]
    name: str = ""

    def bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    def bus(self, bus_id: int) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise TopologyError(f"no bus with id {bus_id}")

    @property
    def slack(self) -> Bus:
        slacks = [b for b in self.buses if b.kind is BusKind.SLACK]
        if len(slacks) != 1:
            raise TopologyError(f"expected one slack bus, found {len(slacks)}")
        return slacks[0]

    def components(self) -> tuple[Generator | Load, ...]:
        return self.generators + self.loads

    def component(self, comp_id: str) -> Generator | Load:
        return self.component_map()[comp_id]

    def component_map(self) -> dict[str, Generator | Load]:
        """Component id -> component (the first one listed, should ids repeat)."""
        return {c.id: c for c in reversed(self.components())}

    def essential_components(self) -> tuple[Generator | Load, ...]:
        return tuple(c for c in self.components() if c.essential)

    def injections(self) -> tuple[np.ndarray, np.ndarray]:
        """Net (p, q) injection per bus in case bus order, pu."""
        idx = self.bus_index()
        p = np.zeros(len(self.buses))
        q = np.zeros(len(self.buses))
        for c in self.components():
            p[idx[c.bus]] += c.p
            q[idx[c.bus]] += c.q
        return p, q


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    component: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.entries

    def __str__(self) -> str:
        if self.ok:
            return "case is well-formed"
        return "\n".join(f"[{e.severity}] {e.component}: {e.message}" for e in self.entries)


_FUEL_SELECTORS = {
    "all-solar": {"solar"},
    "all-wind": {"wind"},
    "all-renewable": {"solar", "wind"},
}


def tag_essential(case: GridCase, selector: str | Iterable[str]) -> GridCase:
    """Return a copy of ``case`` with essential flags set exactly per selector.

    ``selector`` is one of the fuel selectors (``all-solar``, ``all-wind``,
    ``all-renewable``), ``all`` (every component off the slack bus), or an
    explicit iterable of component ids. PV buses hosting a newly essential
    component are re-modeled as PQ injections at their dispatch point so
    the sensitivity engine can differentiate with respect to them.
    """
    if isinstance(selector, str):
        if selector == "all":
            slack_id = case.slack.id
            matched = {c.id for c in case.components() if c.bus != slack_id}
        elif selector in _FUEL_SELECTORS:
            fuels = _FUEL_SELECTORS[selector]
            matched = {c.id for c in case.components() if c.fuel_tag in fuels}
        else:
            raise EmptySelection(f"unknown selector {selector!r}")
    else:
        wanted = set(selector)
        known = {c.id for c in case.components()}
        unknown = wanted - known
        if unknown:
            raise EmptySelection(f"unknown component ids: {sorted(unknown)}")
        matched = wanted
    if not matched:
        raise EmptySelection(f"selector {selector!r} matched no component")

    gens = tuple(replace(g, essential=g.id in matched) for g in case.generators)
    loads = tuple(replace(l, essential=l.id in matched) for l in case.loads)

    essential_buses = {c.bus for c in gens + loads if c.essential}
    buses = []
    for b in case.buses:
        if b.kind is BusKind.PV and b.id in essential_buses:
            buses.append(replace(b, kind=BusKind.PQ, v_setpoint=None, angle_setpoint=None))
        else:
            buses.append(b)
    return replace(case, buses=tuple(buses), generators=gens, loads=loads)


def validate_case(case: GridCase) -> ValidationReport:
    """Report every invariant breach; an empty report means well-formed."""
    entries: list[ValidationIssue] = []

    seen: set[int] = set()
    for b in case.buses:
        if b.id in seen:
            entries.append(ValidationIssue("error", f"bus {b.id}", "duplicate bus id"))
        seen.add(b.id)
    ids = {b.id for b in case.buses}

    slacks = [b.id for b in case.buses if b.kind is BusKind.SLACK]
    if len(slacks) == 0:
        entries.append(ValidationIssue("error", "case", "no slack bus"))
    elif len(slacks) > 1:
        entries.append(
            ValidationIssue("error", "case", f"multiple slack buses: {slacks}")
        )

    if case.base_mva <= 0:
        entries.append(ValidationIssue("error", "case", f"base_mva {case.base_mva} <= 0"))

    for b in case.buses:
        if b.v_max is not None and b.v_min is not None and not b.v_min < b.v_max:
            entries.append(
                ValidationIssue("error", f"bus {b.id}", f"v_min {b.v_min} >= v_max {b.v_max}")
            )
        if b.kind in (BusKind.SLACK, BusKind.PV):
            if b.v_setpoint is None:
                entries.append(ValidationIssue("error", f"bus {b.id}", "missing voltage setpoint"))
            elif not 0.5 <= b.v_setpoint <= 1.5:
                entries.append(
                    ValidationIssue(
                        "error", f"bus {b.id}", f"v_setpoint {b.v_setpoint} outside [0.5, 1.5]"
                    )
                )

    connected: set[int] = set()
    for i, br in enumerate(case.branches):
        label = f"branch {br.from_bus}-{br.to_bus} (#{i})"
        if br.from_bus not in ids or br.to_bus not in ids:
            entries.append(ValidationIssue("error", label, "references a missing bus"))
        if br.r == 0.0 and br.x == 0.0:
            entries.append(ValidationIssue("error", label, "zero series impedance"))
        if br.tap <= 0:
            entries.append(ValidationIssue("error", label, f"tap {br.tap} <= 0"))
        if br.status:
            connected.add(br.from_bus)
            connected.add(br.to_bus)

    for b in case.buses:
        if b.id not in connected and len(case.branches) > 0:
            entries.append(ValidationIssue("warning", f"bus {b.id}", "no in-service branch attached"))

    kind_of = {b.id: b.kind for b in case.buses}
    for c in case.components():
        if c.bus not in ids:
            entries.append(ValidationIssue("error", c.id, f"references missing bus {c.bus}"))
            continue
        if c.essential:
            if kind_of[c.bus] is BusKind.SLACK:
                entries.append(
                    ValidationIssue("error", c.id, "essential component on the slack bus")
                )
            elif kind_of[c.bus] is BusKind.PV:
                entries.append(
                    ValidationIssue(
                        "warning",
                        c.id,
                        f"essential component on PV bus {c.bus}; "
                        "re-model the bus as a PQ injection at its dispatch point",
                    )
                )

    return ValidationReport(tuple(entries))


def case_fields_equal(a: GridCase, b: GridCase) -> bool:
    """Field-wise equality, ignoring the cosmetic case name."""
    return dataclasses.astuple(replace(a, name="")) == dataclasses.astuple(replace(b, name=""))
