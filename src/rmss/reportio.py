"""Atomic JSON/CSV report writers and the reproducibility manifest."""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

from .worstcase import RmssReport


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place.

    The temp file is created with mode 0o666 under a fresh random name, so
    the kernel applies the umask as for a plain ``open``; reading the umask
    would mean setting it, which races with files other threads create.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, obj: dict) -> None:
    """Compact JSON on one line; ``python -m json.tool`` prints it indented.

    Without ``indent`` the json module encodes in C, about twice as fast as
    its pure-Python indenting encoder on a case118 sweep report.
    """
    atomic_write_text(path, json.dumps(obj, separators=(",", ":")) + "\n")


def write_manifest(path: str | Path, command: str, config: dict) -> None:
    import numpy
    import scipy

    from . import __version__

    manifest = {
        "command": command,
        "config": config,
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
