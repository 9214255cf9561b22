"""The one place where the formats of the JSON and CSV artifacts are decided.

JSON documents are written with indent 2 and sorted keys.  In a CSV table
every float is written with ``.17g``, which round-trips a double exactly;
other cells are written as they are.  A report record is derived from its
dataclass's fields, so a field added to the class reaches its artifact with
no other edit.  Identical values therefore give identical artifact bytes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields

import numpy as np


def record(obj, exclude=()) -> dict:
    """A dataclass instance's fields as a dict, in declaration order.

    ndarrays become lists and tuples serialize as JSON lists.  Nothing is
    copied: ``dataclasses.asdict`` deep-copies every value, which an
    immutable SpectralField (a stored maximizer) refuses.
    """
    out = {}
    for f in fields(obj):
        if f.name not in exclude:
            value = getattr(obj, f.name)
            out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def write_csv(path, header, rows) -> None:
    """A header line, then one line per row, each float as ``.17g``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
