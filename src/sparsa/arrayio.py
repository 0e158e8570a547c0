"""File formats: PGM image reading, CSV records and JSON (arrays go through ``np.save``)."""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import solver  # a module import: solver imports this module too


def read_pgm(path) -> np.ndarray:
    """Read a P2 (ASCII) or P5 (binary) PGM image into floats in [0, 1].

    A first header token other than ``P2`` or ``P5`` (checked before the
    sizes are parsed), a header that ends before maxval, a width, height or
    maxval that is not an integer, a width or height below 1, a short
    raster and a sample outside ``[0, maxval]`` raise ``ValueError``.
    """
    data = Path(path).read_bytes()
    tokens, pos = [], 0
    # header: magic, width, height, maxval; '#' starts a comment line
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    magic = tokens[0]
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"not a PGM file (magic {magic!r})")
    if not tokens[3]:  # the data ended before maxval
        raise ValueError("PGM header truncated")
    width = _header_integer("PGM width", tokens[1], minimum=1)
    height = _header_integer("PGM height", tokens[2], minimum=1)
    maxval = _header_integer("PGM maxval", tokens[3])
    if maxval <= 0 or maxval > 255:
        raise ValueError(f"unsupported PGM maxval {maxval}")
    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        raster = np.frombuffer(data[pos : pos + width * height], dtype=np.uint8)
    else:
        try:
            raster = np.array(data[pos:].split()[: width * height], dtype=np.int64)
        except OverflowError:
            raise ValueError(f"PGM samples must lie in [0, {maxval}]") from None
    if raster.size != width * height:
        raise ValueError("PGM raster truncated")
    if np.any(raster > maxval) or np.any(raster < 0):
        raise ValueError(f"PGM samples must lie in [0, {maxval}]")
    return raster.reshape(height, width).astype(float) / maxval


def _header_integer(name: str, token: bytes, minimum: int | None = None) -> int:
    """A PGM header field as an int, checked by :func:`sparsa.solver.check_integer`."""
    try:
        value = int(token)
    except ValueError:
        value = token  # not an integer: check_integer rejects it by name
    return solver.check_integer(name, value, minimum)


def write_records_csv(path, record_type, records):
    """Write dataclass records as CSV, one column per field of ``record_type``.

    Every CSV the package writes goes through here: lines end with ``\n``,
    a value holding a comma is quoted, and floats get 17 significant digits
    unless a field's ``csv_format`` metadata names another format.
    """
    columns = [
        (f.name, f.metadata.get("csv_format", ".17g" if f.type == "float" else ""))
        for f in fields(record_type)
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([name for name, _ in columns])
        for record in records:
            writer.writerow([format(getattr(record, name), spec) for name, spec in columns])


def read_records_csv(path, record_type) -> list:
    """Read a CSV of :func:`write_records_csv` back into ``record_type`` records.

    An ``int`` field is parsed as an int and every other field as a float.
    A missing column raises ``KeyError``, an unparsable value ``ValueError``.
    """
    parsers = {f.name: int if f.type == "int" else float for f in fields(record_type)}
    with open(path, newline="") as fh:
        return [
            record_type(**{name: parse(row[name]) for name, parse in parsers.items()})
            for row in csv.DictReader(fh)
        ]


def write_json(path, payload):
    """Write ``payload`` as JSON indented by 2, ending with a newline."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
