"""Directed road network containers, network-file I/O and the count writer.

A network is a set of road segments (the graph nodes) joined by directed
connectivity edges; traffic flows along edges. Segment ids are dense
0-based integers assigned in file order at load time, and the original
external ids are kept on the network for export. All containers here are
treated as immutable after construction and are safe to share across
threads.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Segment",
    "RoadNetwork",
    "CountMatrix",
    "SchemaError",
    "load_network",
    "save_network",
    "save_counts",
    "boundary_segments",
    "max_storage",
]

# Advisory bounds; violations are diagnostics, not errors.
LENGTH_RANGE_M = (50.0, 2000.0)


class SchemaError(ValueError):
    """Raised when a network file or a count matrix violates its schema."""


@dataclass(frozen=True)
class Segment:
    """One directed road segment.

    Attributes:
        id: dense 0-based integer id, assigned at load.
        length_m: segment length in metres.
        lanes: lane count.
        capacity_vph: capacity C in vehicles per hour.
        free_flow_mps: free-flow speed v_free in metres per second.
        is_boundary: explicit boundary flag (overrides the degree rule).
    """

    id: int
    length_m: float
    lanes: int
    capacity_vph: float
    free_flow_mps: float
    is_boundary: bool = False

    def __post_init__(self):
        for name in ("length_m", "capacity_vph", "free_flow_mps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise SchemaError(f"segment {self.id}: {name} must be finite and > 0, got {value!r}")
        if self.lanes < 1:
            raise SchemaError(f"segment {self.id}: lanes must be >= 1")
        if not (LENGTH_RANGE_M[0] <= self.length_m <= LENGTH_RANGE_M[1]):
            warnings.warn(
                f"segment {self.id}: length {self.length_m} m outside advisory "
                f"range {LENGTH_RANGE_M}",
                stacklevel=2,
            )


@dataclass(frozen=True)
class RoadNetwork:
    """Immutable directed road network.

    edges are (from_id, to_id) pairs over dense ids. edge_from/edge_to (per
    edge) and in_degree/out_degree (per segment) are read-only int arrays
    derived once at construction and left out of equality.
    external_ids maps dense id -> id string from the source file.
    """

    segments: tuple[Segment, ...]
    edges: tuple[tuple[int, int], ...]
    external_ids: tuple[str, ...]
    edge_from: np.ndarray = field(init=False, repr=False, compare=False)
    edge_to: np.ndarray = field(init=False, repr=False, compare=False)
    in_degree: np.ndarray = field(init=False, repr=False, compare=False)
    out_degree: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.segments)
        src, dst = np.array(self.edges, dtype=int).reshape(len(self.edges), 2).T.copy()
        bad = np.flatnonzero((src < 0) | (src >= n) | (dst < 0) | (dst >= n))
        if bad.size:
            k = bad[0]
            raise SchemaError(f"edge {k}: ({src[k]}, {dst[k]}) references unknown segment")
        loops = np.flatnonzero(src == dst)
        if loops.size:
            raise SchemaError(f"edge {loops[0]}: self-loop on segment {src[loops[0]]}")
        first = np.zeros(len(src), dtype=bool)
        first[np.unique(src * n + dst, return_index=True)[1]] = True
        if not first.all():
            k = np.argmin(first)
            raise SchemaError(f"edge {k}: duplicate edge ({src[k]}, {dst[k]})")
        degrees = (("in_degree", np.bincount(dst, minlength=n)), ("out_degree", np.bincount(src, minlength=n)))
        for name, arr in (("edge_from", src), ("edge_to", dst), *degrees):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def free_flow(self) -> np.ndarray:
        return np.array([s.free_flow_mps for s in self.segments])

    def lengths(self) -> np.ndarray:
        return np.array([s.length_m for s in self.segments])


@dataclass
class CountMatrix:
    """Per-segment, per-bin vehicle counts; NaN marks missing bins.

    values has shape (n_segments, n_bins). start_time anchors bin 0 and
    bin_seconds is the uniform bin width, from which hour-of-day and
    day-of-week (Monday = 0) sequences are derived.
    """

    values: np.ndarray
    bin_seconds: int
    start_time: _dt.datetime

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise SchemaError("count values must be 2-D (segments x bins)")
        if self.bin_seconds <= 0:
            raise SchemaError("bin_seconds must be > 0")
        # NaN marks a missing count; every other value must be a finite,
        # nonnegative count
        bad = np.argwhere(np.isinf(self.values) | (self.values < 0))
        if bad.size:
            i, t = bad[0]
            raise SchemaError(
                f"segment row {i}, bin {t}: count {self.values[i, t]} must be finite and nonnegative"
            )

    @property
    def n_bins(self) -> int:
        return self.values.shape[1]

    def bin_start(self, t: int) -> _dt.datetime:
        return self.start_time + _dt.timedelta(seconds=t * self.bin_seconds)

    def _seconds(self) -> np.ndarray:
        """Whole seconds from the midnight before start_time to each bin start."""
        s = self.start_time
        return s.hour * 3600 + s.minute * 60 + s.second + np.arange(self.n_bins) * self.bin_seconds

    def hours(self) -> np.ndarray:
        """Hour of day of each bin start, shape (n_bins,)."""
        return self._seconds() // 3600 % 24

    def minutes(self) -> np.ndarray:
        """Minute of hour of each bin start, shape (n_bins,)."""
        return self._seconds() // 60 % 60

    def days(self) -> np.ndarray:
        """Day of week of each bin start, Monday = 0."""
        return (self.start_time.weekday() + self._seconds() // 86400) % 7


def _parse_bool(raw: str) -> bool:
    v = raw.strip().lower()
    if v in ("1", "true", "yes"):
        return True
    if v in ("0", "false", "no", ""):
        return False
    raise SchemaError(f"bad boolean {raw!r}")


def _csv_rows(path: str, fields: list):
    """(line number, cells) of each non-blank row after a header that
    matches fields up to surrounding spaces; every row must have as many
    cells as the header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [f.strip() for f in header] != fields:
            raise SchemaError(f"{path}: header must be {','.join(fields)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(fields):
                raise SchemaError(f"{path} line {lineno}: expected {len(fields)} cells, got {len(row)}")
            yield lineno, row


_SEGMENT_FIELDS = ["id", "length_m", "lanes", "capacity_vph", "free_flow_mps", "is_boundary"]
_EDGE_FIELDS = ["from_id", "to_id"]


def load_network(path) -> RoadNetwork:
    """Load a network from a directory holding segments.csv and edges.csv.

    Segment records get dense ids in file order; edge files reference the
    external ids. Schema violations raise SchemaError with the offending
    file and line number.
    """
    import os

    seg_path = os.path.join(path, "segments.csv")
    edge_path = os.path.join(path, "edges.csv")
    segments: list[Segment] = []
    externals: list[str] = []
    index: dict[str, int] = {}
    for lineno, (ext, length, lanes, capacity, free_flow, flag) in _csv_rows(seg_path, _SEGMENT_FIELDS):
        where = f"{seg_path} line {lineno}"
        ext = ext.strip()
        if not ext:
            raise SchemaError(f"{where}: empty id")
        if ext in index:
            raise SchemaError(f"{where}: duplicate id {ext!r}")
        try:
            seg = Segment(
                id=len(segments),
                length_m=float(length),
                lanes=int(lanes),
                capacity_vph=float(capacity),
                free_flow_mps=float(free_flow),
                is_boundary=_parse_bool(flag),
            )
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        index[ext] = seg.id
        segments.append(seg)
        externals.append(ext)
    if not segments:
        raise SchemaError(f"{seg_path}: no segments")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, (u, v) in _csv_rows(edge_path, _EDGE_FIELDS):
        where = f"{edge_path} line {lineno}"
        u, v = u.strip(), v.strip()
        if u not in index or v not in index:
            raise SchemaError(f"{where}: unknown segment id in ({u!r}, {v!r})")
        if u == v:
            raise SchemaError(f"{where}: self-loop on segment {u!r}")
        if (index[u], index[v]) in seen:
            raise SchemaError(f"{where}: duplicate edge ({u!r}, {v!r})")
        seen.add((index[u], index[v]))
        edges.append((index[u], index[v]))
    return RoadNetwork(tuple(segments), tuple(edges), tuple(externals))


def save_network(net: RoadNetwork, path) -> None:
    """Write segments.csv and edges.csv under path (canonical order)."""
    import os

    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "segments.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SEGMENT_FIELDS)
        for seg, ext in zip(net.segments, net.external_ids):
            w.writerow(
                [
                    ext,
                    _fmt(seg.length_m),
                    seg.lanes,
                    _fmt(seg.capacity_vph),
                    _fmt(seg.free_flow_mps),
                    int(seg.is_boundary),
                ]
            )
    with open(os.path.join(path, "edges.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_EDGE_FIELDS)
        for i, j in net.edges:
            w.writerow([net.external_ids[i], net.external_ids[j]])


def _fmt(x: float) -> str:
    # repr round-trips; integral values written without the trailing .0
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def save_counts(cm: CountMatrix, path, segment_ids) -> None:
    """Write a CountMatrix as CSV, row i labelled segment_ids[i].

    The header is segment_id and each bin's ISO-8601 start; a NaN count is
    an empty cell.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["segment_id"] + [cm.bin_start(t).isoformat() for t in range(cm.n_bins)])
        for ext, row in zip(segment_ids, cm.values, strict=True):
            w.writerow([ext] + ["" if not np.isfinite(v) else _fmt(v) for v in row])


def boundary_segments(net: RoadNetwork) -> list[int]:
    """Segments where traffic may enter or leave the network.

    If any segment carries an explicit is_boundary flag the flagged set is
    returned verbatim; otherwise the degree rule applies: segments with no
    incoming or no outgoing edge. A closed ring with no flags therefore has
    no boundary.
    """
    flagged = [s.id for s in net.segments if s.is_boundary]
    if flagged:
        return flagged
    return np.flatnonzero((net.in_degree == 0) | (net.out_degree == 0)).tolist()


def max_storage(seg: Segment, bin_seconds: float) -> float:
    """Capacity of one segment over one bin, Q_max = C * dt, in vehicles."""
    if bin_seconds <= 0:
        raise ValueError("bin_seconds must be > 0")
    return seg.capacity_vph / 3600.0 * bin_seconds
