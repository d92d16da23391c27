"""Seeding, config-reading and artifact-writing helpers shared across the pipeline."""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import fields

import numpy as np

__all__ = ["substream", "config_kwargs", "atomic_write_text", "canonical_json"]


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
    """A copy of d, once each key names a field of dataclass cls.

    Any other key is a typo or a stale option, so it raises ValueError.
    So does a value of the wrong JSON type, such as 900.0 or true for an int.
    """
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
    return dict(d)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via temp file + rename so readers never see a partial file."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

