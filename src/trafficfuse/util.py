"""Seeding, config-reading and artifact-writing helpers shared across the pipeline."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import zlib
from dataclasses import fields

import numpy as np

__all__ = ["substream", "config_kwargs", "atomic_write", "write_json", "write_csv", "write_npz"]


def substream(seed: int, label: str) -> np.random.Generator:
    """Named random substream: one global seed, independent per-stage streams.

    The label is folded in through crc32 so streams are stable across runs
    and platforms and adding a stage never shifts the others.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(label.encode())]))


# the JSON values each field annotation takes; any other annotation names a
# nested config, which takes an object
_KINDS = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
          "str": ((str,), "a string"), "tuple": ((list, tuple), "a list of integers")}


def _is(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def config_kwargs(d: dict, cls, where: str) -> dict:
    """A copy of d, once d is an object and each key names a field of dataclass cls.

    Any other key is a typo or a stale option, so it raises ValueError.
    So does a value of the wrong JSON type, such as 900.0 or true for an
    int, and a NaN or infinite number, which Python's json reads.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{where} config must be a JSON object, not {type(d).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} config keys: {', '.join(unknown)}")
    for k, v in d.items():
        kind, _, optional = known[k].type.partition(" | ")
        types, wanted = _KINDS.get(kind, ((dict,), "an object"))
        ok = v is None and optional == "None" or _is(v, types) and (kind != "tuple" or all(_is(i, int) for i in v))
        if not ok:
            raise ValueError(f"{where} config key {k} must be {wanted}{' or null' * (optional == 'None')}, not {v!r}")
        if kind == "float" and not math.isfinite(v):
            raise ValueError(f"{where} config key {k} must be finite, not {v!r}")
    return dict(d)


def atomic_write(path: str, data: bytes) -> None:
    """Write data via temp file + rename so readers never see a partial file.

    A failed write leaves the previous file and no temp file. The file gets
    the mode a plain open gives it, 0o666 less the umask.
    """
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".tmp-{os.urandom(6).hex()}-{os.path.basename(path)}")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    atomic_write(path, (json.dumps(obj, sort_keys=True, indent=1, separators=(",", ": ")) + "\n").encode())


def write_csv(path: str, header, rows) -> None:
    """A header row, then rows, in the csv module's default dialect."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    atomic_write(path, buf.getvalue().encode())


def write_npz(path: str, arrays: dict) -> None:
    """np.savez's archive of the named arrays."""
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    atomic_write(path, buf.getvalue())
