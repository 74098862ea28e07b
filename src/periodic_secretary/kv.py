"""File I/O: key = value files, float lists and CSV tables with one float format.

This is the one module that knows the CSV dialect: every table the
library reads goes through ``read_columns`` and every table it writes
through ``write_columns``. Every float written goes through
``format_value``'s format: 12 significant digits, which round-trip within
reader tolerance and keep reruns byte-identical.
"""

from __future__ import annotations

import csv
import io
import re
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "format_value", "read_kv_file", "write_kv_file", "format_kv", "parse_float_list",
    "read_columns", "write_columns",
]

_FLOAT_FORMAT = "%.12g"
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


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


def write_kv_file(
    entries: dict[str, object], path: "str | Path", comments: Iterable[str] = ()
) -> None:
    """Write ``entries`` as 'key = value' lines after one '# ' line per comment,
    which ``read_kv_file`` skips."""
    text = "".join(f"# {c}\n" for c in comments) + format_kv(entries)
    Path(path).write_text(text, encoding="utf-8")


def parse_float_list(text: str) -> list[float]:
    """The floats in ``text``, split at commas and whitespace; empty pieces are dropped."""
    return [float(v) for v in text.replace(",", " ").split()]


def _cell(path: Path, lineno: int, col: str, raw: str | None) -> float:
    """One CSV cell as a float; a missing, blank or non-numeric cell is an error."""
    if raw is None or raw.strip() == "":
        raise ValueError(f"{path}: line {lineno}: empty cell in column '{col}'")
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"{path}: line {lineno}: non-numeric value {raw!r} in column '{col}'"
        ) from None


def read_columns(path: "str | Path", names: Iterable[str]) -> np.ndarray:
    """The ``names`` columns of a CSV table, rows in file order, as one float array.

    Blank lines are skipped. A missing column, an empty file, no data rows
    and a bad cell are refused; a cell by its column and its line in the
    file (the header is line 1; blank lines count). The header is read with
    ``csv.reader``, and quote-free rows with numpy's C reader: ``csv.reader``
    would then only split at commas and line ends, and every cell the C
    reader accepts, ``float`` reads as the same number. Rows the C reader
    refuses (a quote, a cell such as ``1_0``, a bad cell) are read again
    with ``csv.reader``, which gives the table or names the bad cell.
    """
    path = Path(path)
    cols = list(names)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        missing = [c for c in cols if c not in header]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}; header has {header}")
        where = {name: j for j, name in enumerate(header)}  # a repeated name means its last column
        positions = [where[c] for c in cols]
        header_lines = reader.line_num
        body = fh.read()
    table = None
    if '"' not in body and body.strip("\r\n"):  # no rows at all would make loadtxt warn
        try:
            table = np.loadtxt(
                io.StringIO(body, newline=""), delimiter=",", usecols=positions,
                comments=None, ndmin=2,
            )
        except ValueError:
            pass
    if table is None:
        rows = csv.reader(io.StringIO(body, newline=""))

        def values():
            for row in filter(None, rows):
                line = header_lines + rows.line_num
                yield [_cell(path, line, col, row[j] if j < len(row) else None)
                       for col, j in zip(cols, positions)]

        table = np.fromiter(chain.from_iterable(values()), dtype=float).reshape(-1, len(cols))
    if not len(table):
        raise ValueError(f"{path}: no data rows")
    return table


def write_columns(path: "str | Path", header: Iterable[str], columns: Iterable[object]) -> None:
    """Write a header row and equal-length str, integer or float columns as
    UTF-8 CSV: the bytes ``csv.writer`` gives on ``format_value``'s cells.

    Each data row is one ``%`` template (``%s``, or the float format for a
    float column) ending in ``\\r\\n``. A number never needs quoting; a str
    cell that would (holding ``,`` ``"`` ``\\r`` or ``\\n``, or empty and
    alone in its row) is refused, and so are a header with a name count
    other than the column count and columns of unequal lengths.
    """
    header = list(header)
    columns = [np.asarray(col) for col in columns]
    if len(header) != len(columns):
        raise ValueError(f"write_columns got {len(header)} names for {len(columns)} columns")
    if len({len(col) for col in columns}) > 1:
        raise ValueError(f"write_columns takes equal-length columns, got lengths {[len(c) for c in columns]}")
    cells = [col.tolist() for col in columns]
    for col, values in zip(columns, cells):
        if col.dtype.kind not in "iufU":
            raise TypeError(f"write_columns takes str, integer and float columns, not {col.dtype}")
        if col.dtype.kind == "U":
            bad = [v for v in values if _NEEDS_QUOTES(v) or not v and len(columns) == 1]
            if bad:
                raise ValueError(f"write_columns writes no str cell that needs quoting, got {bad[0]!r}")
    template = ",".join(_FLOAT_FORMAT if col.dtype.kind == "f" else "%s" for col in columns)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(map((template + "\r\n").__mod__, zip(*cells)))
