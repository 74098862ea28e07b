"""File I/O: key = value files and CSV tables with one float format.

Every float written by the library goes through ``format_value``: 12
significant digits, which round-trip within reader tolerance and keep
reruns byte-identical.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "format_value", "read_kv_file", "write_kv_file", "format_kv", "write_csv", "write_columns",
]

_FLOAT_FORMAT = "%.12g"


def format_value(value: object) -> str:
    """Text of one written value: floats with 12 significant digits,
    booleans as true/false, anything else as ``str``."""
    if isinstance(value, float):  # numpy float64 included
        return _FLOAT_FORMAT % value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def read_kv_file(path: "str | Path") -> dict[str, str]:
    """Parse 'key = value' lines; blank lines and # comments are ignored."""
    entries: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: malformed line {raw!r}, expected 'key = value'")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def format_kv(entries: dict[str, object]) -> str:
    return "".join(f"{k} = {format_value(v)}\n" for k, v in entries.items())


def write_kv_file(entries: dict[str, object], path: "str | Path") -> None:
    Path(path).write_text(format_kv(entries), encoding="utf-8")


def write_csv(path: "str | Path", header: Iterable[str], rows: Iterable[Iterable[object]]) -> None:
    """Write a header row and data rows as UTF-8 CSV, cells via ``format_value``."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format_value(v) for v in row] for row in rows)


def write_columns(path: "str | Path", header: Iterable[str], columns: Iterable[np.ndarray]) -> None:
    """Write a header row and equal-length integer or float columns as UTF-8 CSV.

    The same bytes as ``write_csv`` on the rows: the header goes through
    ``csv.writer``, and each data row is one ``%`` template, ``%s`` for an
    integer column and the float format for a float one, ending in
    ``csv.writer``'s ``\\r\\n``. A number never needs quoting.
    """
    columns = [np.asarray(col) for col in columns]
    for col in columns:
        if col.dtype.kind not in "iuf":
            raise TypeError(f"write_columns takes integer and float columns, not {col.dtype}")
    template = ",".join(_FLOAT_FORMAT if col.dtype.kind == "f" else "%s" for col in columns)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(map((template + "\r\n").__mod__, zip(*(col.tolist() for col in columns))))
