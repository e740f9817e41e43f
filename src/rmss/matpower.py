"""MATPOWER-style ``.m`` case ingest and export.

Only the columns this package consumes are interpreted, and each must
hold a finite number; anything else in the file is ignored.
Out-of-service branches and generators are dropped at parse time. Loads
become negative injections, one per bus carrying demand. Bus shunts
(``Gs``, ``Bs``, MW and MVAr at 1 pu voltage) become per-unit
admittances. Generator fuel tags come from the optional ``mpc.genfuel``
cell array.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from .exceptions import ParseError, SchemaError, TopologyError
from .model import Branch, Bus, BusKind, Generator, GridCase, Load

# 0-based indices of the columns we read.
_BUS_COLS = {
    "id": 0, "type": 1, "Pd": 2, "Qd": 3, "Gs": 4, "Bs": 5, "Vm": 7, "Va": 8, "Vmax": 11,
    "Vmin": 12,
}
_GEN_COLS = {"bus": 0, "Pg": 1, "Qg": 2, "status": 7}
_BRANCH_COLS = {
    "fbus": 0, "tbus": 1, "r": 2, "x": 3, "b": 4, "ratio": 8, "angle": 9, "status": 10,
}

_BUS_KINDS = {1: BusKind.PQ, 2: BusKind.PV, 3: BusKind.SLACK}


def _strip_comment(line: str) -> str:
    """Drop a trailing %-comment, respecting single-quoted strings."""
    in_quote = False
    for i, ch in enumerate(line):
        if ch == "'":
            in_quote = not in_quote
        elif ch == "%" and not in_quote:
            return line[:i]
    return line


def _find_block(text: str, name: str, open_ch: str, close_ch: str) -> tuple[str, int] | None:
    """Return (block body, 1-based line of the opening bracket) or None."""
    m = re.search(rf"mpc\.{name}\s*=\s*{re.escape(open_ch)}", text)
    if m is None:
        return None
    start = m.end()
    end = text.find(close_ch, start)
    if end < 0:
        raise ParseError(f"unterminated mpc.{name} block", line=text.count("\n", 0, start) + 1)
    return text[start:end], text.count("\n", 0, start) + 1


def _parse_matrix(text: str, name: str) -> list[tuple[int, list[float]]]:
    """Parse ``mpc.<name> = [...]`` into (line_no, row floats) pairs."""
    block = _find_block(text, name, "[", "]")
    if block is None:
        raise SchemaError(f"missing required table mpc.{name}")
    body, line0 = block
    rows: list[tuple[int, list[float]]] = []
    for offset, raw in enumerate(body.split("\n")):
        for chunk in raw.split(";"):
            tokens = chunk.replace(",", " ").split()
            if not tokens:
                continue
            try:
                rows.append((line0 + offset, [float(t) for t in tokens]))
            except ValueError as exc:
                raise ParseError(f"bad numeric token in mpc.{name}: {exc}", line=line0 + offset)
    return rows


def _parse_genfuel(text: str) -> list[str]:
    block = _find_block(text, "genfuel", "{", "}")
    if block is None:
        return []
    body, line0 = block
    fuels = []
    for offset, raw in enumerate(body.split("\n")):
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            m = re.fullmatch(r"'([^']*)'", chunk)
            if m is None:
                raise ParseError(f"bad genfuel entry {chunk!r}", line=line0 + offset)
            fuels.append(m.group(1))
    return fuels


def _require_cols(rows: list[tuple[int, list[float]]], cols: dict[str, int], table: str) -> None:
    width = max(cols.values()) + 1
    for line, row in rows:
        if len(row) < width:
            missing = [c for c, i in cols.items() if i >= len(row)]
            raise SchemaError(
                f"mpc.{table} row at line {line} has {len(row)} columns; "
                f"missing required column(s) {missing}"
            )
        bad = [c for c, i in cols.items() if not math.isfinite(row[i])]
        if bad:
            raise ParseError(f"mpc.{table} column(s) {bad} not a finite number", line=line)


def parse_case(path: str | Path) -> GridCase:
    """Parse a MATPOWER .m case file into a :class:`GridCase`, converting MW/MVAr to per-unit."""
    path = Path(path)
    raw = path.read_text()
    text = "\n".join(_strip_comment(l) for l in raw.split("\n"))

    m = re.search(r"mpc\.baseMVA\s*=\s*([^;]+);", text)
    if m is None:
        raise SchemaError("missing required scalar mpc.baseMVA")
    try:
        base_mva = float(m.group(1))
    except ValueError:
        raise ParseError(
            f"bad baseMVA value {m.group(1)!r}", line=text.count("\n", 0, m.start()) + 1
        )
    if not 0 < base_mva < math.inf:
        raise SchemaError(f"baseMVA must be positive and finite, got {base_mva}")

    bus_rows = _parse_matrix(text, "bus")
    gen_rows = _parse_matrix(text, "gen")
    branch_rows = _parse_matrix(text, "branch")
    _require_cols(bus_rows, _BUS_COLS, "bus")
    _require_cols(gen_rows, _GEN_COLS, "gen")
    _require_cols(branch_rows, _BRANCH_COLS, "branch")
    fuels = _parse_genfuel(text)

    buses: list[Bus] = []
    loads: list[Load] = []
    seen_ids: set[int] = set()
    n_load = 0
    for line, row in bus_rows:
        bus_id = int(row[_BUS_COLS["id"]])
        if bus_id in seen_ids:
            raise TopologyError(f"duplicate bus id {bus_id} (line {line})")
        seen_ids.add(bus_id)
        kind_code = int(row[_BUS_COLS["type"]])
        if kind_code not in _BUS_KINDS:
            raise ParseError(f"unsupported bus type {kind_code} at bus {bus_id}", line=line)
        kind = _BUS_KINDS[kind_code]
        vm = row[_BUS_COLS["Vm"]]
        va = math.radians(row[_BUS_COLS["Va"]])
        buses.append(
            Bus(
                id=bus_id,
                kind=kind,
                v_setpoint=vm if kind in (BusKind.SLACK, BusKind.PV) else None,
                angle_setpoint=va if kind is BusKind.SLACK else None,
                v_max=row[_BUS_COLS["Vmax"]],
                v_min=row[_BUS_COLS["Vmin"]],
                gs=row[_BUS_COLS["Gs"]] / base_mva,
                bs=row[_BUS_COLS["Bs"]] / base_mva,
            )
        )
        pd, qd = row[_BUS_COLS["Pd"]], row[_BUS_COLS["Qd"]]
        if pd != 0.0 or qd != 0.0:
            n_load += 1
            loads.append(
                Load(id=f"l{n_load}", bus=bus_id, p=-pd / base_mva, q=-qd / base_mva)
            )

    gens: list[Generator] = []
    for row_no, (line, row) in enumerate(gen_rows):
        if row[_GEN_COLS["status"]] <= 0:
            continue
        bus_id = int(row[_GEN_COLS["bus"]])
        if bus_id not in seen_ids:
            raise TopologyError(
                f"generator row {row_no + 1} references missing bus {bus_id} (line {line})"
            )
        gens.append(
            Generator(
                id=f"g{len(gens) + 1}",
                bus=bus_id,
                p=row[_GEN_COLS["Pg"]] / base_mva,
                q=row[_GEN_COLS["Qg"]] / base_mva,
                fuel_tag=fuels[row_no] if row_no < len(fuels) else "",
            )
        )

    branches: list[Branch] = []
    for line, row in branch_rows:
        if row[_BRANCH_COLS["status"]] <= 0:
            continue  # out-of-service branches are dropped
        f, t = int(row[_BRANCH_COLS["fbus"]]), int(row[_BRANCH_COLS["tbus"]])
        if f not in seen_ids or t not in seen_ids:
            missing = f if f not in seen_ids else t
            raise TopologyError(f"branch {f}-{t} references missing bus {missing} (line {line})")
        ratio = row[_BRANCH_COLS["ratio"]]
        branches.append(
            Branch(
                from_bus=f,
                to_bus=t,
                r=row[_BRANCH_COLS["r"]],
                x=row[_BRANCH_COLS["x"]],
                b_shunt=row[_BRANCH_COLS["b"]],
                tap=ratio if ratio > 0 else 1.0,
                phase_shift=math.radians(row[_BRANCH_COLS["angle"]]),
            )
        )

    n_slack = sum(1 for b in buses if b.kind is BusKind.SLACK)
    if n_slack != 1:
        raise TopologyError(f"case must have exactly one slack bus, found {n_slack}")

    return GridCase(
        base_mva=base_mva,
        buses=tuple(buses),
        branches=tuple(branches),
        generators=tuple(gens),
        loads=tuple(loads),
        name=path.stem,
    )


def write_case(case: GridCase, path: str | Path) -> None:
    """Serialize a case back to MATPOWER ``.m`` form.

    Demand is folded back into the bus table (one row per bus), so a case
    holding several loads on one bus comes back as a single merged load,
    and a load with p = q = 0 does not come back: its bus row reads as no
    load. Runtime essential flags are not part of the format and do not
    survive.
    """
    path = Path(path)
    idx = case.bus_index()
    pd = [0.0] * len(case.buses)
    qd = [0.0] * len(case.buses)
    for l in case.loads:
        pd[idx[l.bus]] += -l.p * case.base_mva
        qd[idx[l.bus]] += -l.q * case.base_mva

    kind_code = {BusKind.PQ: 1, BusKind.PV: 2, BusKind.SLACK: 3}
    lines = [
        f"function mpc = {case.name or 'case_export'}",
        "mpc.version = '2';",
        f"mpc.baseMVA = {case.base_mva!r};",
        "",
        "%% bus data",
        "% id type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin",
        "mpc.bus = [",
    ]
    for i, b in enumerate(case.buses):
        vm = b.v_setpoint if b.v_setpoint is not None else 1.0
        va = math.degrees(b.angle_setpoint) if b.angle_setpoint is not None else 0.0
        vmax = b.v_max if b.v_max is not None else 1.1
        vmin = b.v_min if b.v_min is not None else 0.9
        lines.append(
            f"  {b.id} {kind_code[b.kind]} {pd[i]!r} {qd[i]!r} "
            f"{b.gs * case.base_mva!r} {b.bs * case.base_mva!r} 1 "
            f"{vm!r} {va!r} 100 1 {vmax!r} {vmin!r};"
        )
    lines.append("];")

    lines += ["", "%% generator data", "% bus Pg Qg Qmax Qmin Vg mBase status Pmax Pmin",
              "mpc.gen = ["]
    setpoint = {b.id: b.v_setpoint for b in case.buses}
    for g in case.generators:
        vg = setpoint.get(g.bus) or 1.0
        lines.append(
            f"  {g.bus} {g.p * case.base_mva!r} {g.q * case.base_mva!r} "
            f"999 -999 {vg!r} {case.base_mva!r} 1 999 -999;"
        )
    lines.append("];")

    lines += ["", "%% branch data", "% fbus tbus r x b rateA rateB rateC ratio angle status",
              "mpc.branch = ["]
    for br in case.branches:
        lines.append(
            f"  {br.from_bus} {br.to_bus} {br.r!r} {br.x!r} {br.b_shunt!r} "
            f"0 0 0 {br.tap!r} {math.degrees(br.phase_shift)!r} 1;"
        )
    lines.append("];")

    if any(g.fuel_tag for g in case.generators):
        lines += ["", "mpc.genfuel = {"]
        for g in case.generators:
            lines.append(f"  '{g.fuel_tag}';")
        lines.append("};")

    path.write_text("\n".join(lines) + "\n")
