"""Atomic, deterministic CSV writing (temp file + rename)."""
from __future__ import annotations

import dataclasses
import os
import tempfile


def format_cell(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(float(v))  # shortest round-trip form, also for numpy floats
    return str(v)


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_rows(path, cls, rows) -> None:
    """A CSV of dataclass instances, one column per field of ``cls``."""
    names = [f.name for f in dataclasses.fields(cls)]
    write_csv(path, names, [[getattr(r, name) for name in names] for r in rows])
