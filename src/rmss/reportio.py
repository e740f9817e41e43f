"""Atomic JSON/CSV report writers and the reproducibility manifest."""

from __future__ import annotations

import json
import os
import platform
import tempfile
from pathlib import Path

from .worstcase import RmssReport


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place.

    The file gets the mode a plain ``open`` would give it (0o666 less the
    umask), not the owner-only mode of the temp file.
    """
    path = Path(path)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, obj: dict) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def write_manifest(path: str | Path, command: str, config: dict, seed: int) -> None:
    import numpy
    import scipy

    from . import __version__

    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "versions": {
            "rmss": __version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    write_json(path, manifest)


def write_violations_csv(path: str | Path, report: RmssReport) -> None:
    """Histogram-ready violation counts per swept sigma value."""
    lines = ["sigma,ub_violations,lb_violations,total"]
    for point in report.violations.points:
        label = point.sigma_label if isinstance(point.sigma_label, str) else repr(point.sigma_label)
        lines.append(f"{label},{point.ub_total},{point.lb_total},{point.ub_total + point.lb_total}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_worst_violator_csv(path: str | Path, report: RmssReport) -> None:
    """Voltage bounds of the most-violating bus at every swept sigma value."""
    bus = report.violations.worst_violator
    lines = ["sigma,bus,c_nom,c_wc_ub,c_wc_lb"]
    rows = [i for i, b in enumerate(report.metric_buses) if b == bus]
    for point in report.points:
        label = point.label if isinstance(point.label, str) else repr(point.label)
        for i in rows:
            values = (report.c_nom[i], *point.results[i])
            lines.append(f"{label},{bus}," + ",".join(repr(float(v)) for v in values))
    atomic_write_text(path, "\n".join(lines) + "\n")
