"""Network container, schema validation, network files and the count writer."""

import datetime as dt

import numpy as np
import pytest

from trafficfuse.network import (
    CountMatrix,
    RoadNetwork,
    SchemaError,
    Segment,
    boundary_segments,
    load_network,
    max_storage,
    save_counts,
    save_network,
)

from conftest import make_chain, make_network, make_ring

T0 = dt.datetime(2024, 1, 1)  # a Monday


def seg(i=0, **kw):
    base = dict(length_m=500.0, lanes=2, capacity_vph=1800.0, free_flow_mps=10.0)
    base.update(kw)
    return Segment(id=i, **base)


def test_segment_field_validation():
    with pytest.raises(SchemaError):
        seg(length_m=0.0)
    with pytest.raises(SchemaError):
        seg(lanes=0)
    with pytest.raises(SchemaError):
        seg(capacity_vph=-1.0)
    with pytest.raises(SchemaError):
        seg(free_flow_mps=0.0)


def test_segment_length_advisory_warns_but_accepts():
    with pytest.warns(UserWarning, match="advisory"):
        s = seg(length_m=10.0)
    assert s.length_m == 10.0
    with pytest.warns(UserWarning, match="advisory"):
        seg(length_m=5000.0)


def test_self_loop_rejected():
    with pytest.raises(SchemaError, match="self-loop"):
        make_network([(0, 0)], n=1)


def test_duplicate_edge_rejected():
    with pytest.raises(SchemaError, match="duplicate"):
        make_network([(0, 1), (0, 1)])


def test_edge_to_unknown_segment_rejected():
    with pytest.raises(SchemaError, match="unknown"):
        RoadNetwork((seg(0),), ((0, 3),), ("a",))


def test_edge_arrays_and_degrees():
    net = make_network([(0, 1), (0, 2), (2, 1)])
    assert net.edge_from.tolist() == [0, 0, 2]
    assert net.edge_to.tolist() == [1, 2, 1]
    assert net.out_degree.tolist() == [2, 0, 1]
    assert net.in_degree.tolist() == [0, 2, 1]
    for arr in (net.edge_from, net.edge_to, net.in_degree, net.out_degree):
        assert arr.dtype.kind == "i"
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 5
    # the derived arrays take no part in equality or hashing
    twin = make_network([(0, 1), (0, 2), (2, 1)])
    assert net == twin and hash(net) == hash(twin)
    assert net != make_network([(0, 1), (0, 2)], n=3)


def test_edgeless_network_has_zero_degrees():
    net = make_network([], n=3)
    assert net.edge_from.shape == net.edge_to.shape == (0,)
    assert net.out_degree.tolist() == net.in_degree.tolist() == [0, 0, 0]


@pytest.mark.parametrize(
    "edges,match",
    [
        ([(0, 1), (1, 2), (2, 5)], r"edge 2: \(2, 5\) references unknown segment"),
        ([(0, 1), (1, -1)], r"edge 1: \(1, -1\) references unknown segment"),
        ([(0, 1), (1, 2), (2, 2)], "edge 2: self-loop on segment 2"),
        ([(0, 1), (1, 2), (2, 0), (1, 2), (0, 1)], r"edge 3: duplicate edge \(1, 2\)"),
    ],
)
def test_edge_errors_name_the_first_bad_edge(edges, match):
    with pytest.raises(SchemaError, match=match):
        RoadNetwork(tuple(seg(i) for i in range(3)), tuple(edges), ("a", "b", "c"))


def test_boundary_flags_returned_verbatim():
    net = make_network([(0, 1), (1, 2)], boundary=(1,))
    assert boundary_segments(net) == [1]


def test_boundary_degree_rule_without_flags():
    net = make_chain(3)
    assert boundary_segments(net) == [0, 2]


def test_closed_ring_has_no_boundary():
    assert boundary_segments(make_ring(4)) == []


def test_fully_flagged_network():
    net = make_network([(0, 1)], boundary=(0, 1))
    assert boundary_segments(net) == [0, 1]


def test_max_storage_quarter_hour():
    # 1800 veh/hr over a 900 s bin: 1800 / 3600 * 900 = 450 vehicles
    assert max_storage(seg(capacity_vph=1800.0), 900.0) == 450.0
    with pytest.raises(ValueError):
        max_storage(seg(), 0.0)


def test_network_roundtrip_byte_identical(tmp_path):
    net = make_network([(0, 1), (1, 2), (2, 0)], boundary=(0,))
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    save_network(net, d1)
    net2 = load_network(d1)
    save_network(net2, d2)
    assert (d1 / "segments.csv").read_bytes() == (d2 / "segments.csv").read_bytes()
    assert (d1 / "edges.csv").read_bytes() == (d2 / "edges.csv").read_bytes()
    assert net2.edges == net.edges
    assert net2.external_ids == net.external_ids


def test_load_network_reports_line_locus(tmp_path):
    (tmp_path / "segments.csv").write_text(
        "id,length_m,lanes,capacity_vph,free_flow_mps,is_boundary\n"
        "a,500,2,1800,10,0\n"
        "b,oops,2,1800,10,0\n"
    )
    (tmp_path / "edges.csv").write_text("from_id,to_id\n")
    with pytest.raises(SchemaError, match="line 3"):
        load_network(tmp_path)


@pytest.mark.parametrize("row,field", [("a,nan,2,1800,10,0", "length_m"), ("a,500,2,inf,10,0", "capacity_vph")])
def test_load_network_rejects_non_finite_fields(tmp_path, row, field):
    (tmp_path / "segments.csv").write_text(f"id,length_m,lanes,capacity_vph,free_flow_mps,is_boundary\n{row}\n")
    (tmp_path / "edges.csv").write_text("from_id,to_id\n")
    with pytest.raises(SchemaError, match=f"segment 0: {field} must be finite"):
        load_network(tmp_path)


def test_load_network_rejects_no_segments(tmp_path):
    (tmp_path / "segments.csv").write_text("id,length_m,lanes,capacity_vph,free_flow_mps,is_boundary\n")
    (tmp_path / "edges.csv").write_text("from_id,to_id\n")
    with pytest.raises(SchemaError, match="segments.csv: no segments"):
        load_network(tmp_path)


def test_load_network_bad_header(tmp_path):
    (tmp_path / "segments.csv").write_text("id,length_m\n")
    (tmp_path / "edges.csv").write_text("from_id,to_id\n")
    with pytest.raises(SchemaError, match="header"):
        load_network(tmp_path)


def test_load_network_unknown_edge_id(tmp_path):
    (tmp_path / "segments.csv").write_text(
        "id,length_m,lanes,capacity_vph,free_flow_mps,is_boundary\na,500,2,1800,10,0\n"
    )
    (tmp_path / "edges.csv").write_text("from_id,to_id\na,zz\n")
    with pytest.raises(SchemaError, match="line 2"):
        load_network(tmp_path)


def test_load_network_duplicate_edge_names_file_and_line(tmp_path):
    (tmp_path / "segments.csv").write_text(
        "id,length_m,lanes,capacity_vph,free_flow_mps,is_boundary\na,500,2,1800,10,0\nb,500,2,1800,10,0\n"
    )
    (tmp_path / "edges.csv").write_text("from_id,to_id\na,b\nb,a\na,b\n")
    with pytest.raises(SchemaError, match=r"edges\.csv line 4: duplicate edge \('a', 'b'\)"):
        load_network(tmp_path)


_SEGMENTS_HEADER = "id,length_m,lanes,capacity_vph,free_flow_mps,is_boundary\n"
_TWO_SEGMENTS = "a,500,2,1800,10,0\nb,500,2,1800,10,0\n"


@pytest.mark.parametrize(
    "segments, edges, message",
    [
        (_SEGMENTS_HEADER + _TWO_SEGMENTS, "from_id,to_id\na\n", r"edges\.csv line 2: expected 2 cells, got 1"),
        (_SEGMENTS_HEADER + _TWO_SEGMENTS, "from_id,to_id\na,b,c\n", r"edges\.csv line 2: expected 2 cells, got 3"),
        (_SEGMENTS_HEADER + "a,500,2,1800,10,0,9\n", "from_id,to_id\n", r"segments\.csv line 2: expected 6 cells, got 7"),
        (_SEGMENTS_HEADER + "a,nan,2,1800,10,0\n", "from_id,to_id\n", r"segments\.csv line 2: segment 0: length_m must be finite"),
        (_SEGMENTS_HEADER + "a,500,2,1800,10,0\nb,500,2,inf,10,0\n", "from_id,to_id\n",
         r"segments\.csv line 3: segment 1: capacity_vph must be finite"),
        (_SEGMENTS_HEADER + "a,500,0,1800,10,0\n", "from_id,to_id\n", r"segments\.csv line 2: segment 0: lanes must be >= 1"),
        (_SEGMENTS_HEADER + "a,500,2,1800,10,maybe\n", "from_id,to_id\n", r"segments\.csv line 2: bad boolean 'maybe'"),
        (_SEGMENTS_HEADER + _TWO_SEGMENTS, "from_id,to_id\na,b\nb,b\n", r"edges\.csv line 3: self-loop on segment 'b'"),
        # spaces after the header's commas are accepted, and the rows are read by position
        (_SEGMENTS_HEADER + _TWO_SEGMENTS, "from_id, to_id\na,b\n", None),
        (_SEGMENTS_HEADER.replace(",", ", ") + _TWO_SEGMENTS, "from_id,to_id\na,b\n", None),
    ],
    ids=["edge_one_cell", "edge_extra_cell", "segment_extra_cell", "nan_length", "inf_capacity",
         "zero_lanes", "bad_boolean", "self_loop", "spaced_edge_header", "spaced_segment_header"],
)
def test_malformed_network_files_name_file_and_line(tmp_path, segments, edges, message):
    (tmp_path / "segments.csv").write_text(segments)
    (tmp_path / "edges.csv").write_text(edges)
    if message is None:
        assert load_network(tmp_path) == RoadNetwork(make_network([(0, 1)]).segments, ((0, 1),), ("a", "b"))
    else:
        with pytest.raises(SchemaError, match=message):
            load_network(tmp_path)


def test_count_matrix_validation():
    with pytest.raises(SchemaError):
        CountMatrix(np.ones(5), 900, T0)  # not 2-D
    with pytest.raises(SchemaError):
        CountMatrix(np.ones((2, 3)), 0, T0)
    with pytest.raises(SchemaError, match="segment row 0, bin 0: count -1.0 must be finite and nonnegative"):
        CountMatrix(-np.ones((2, 3)), 900, T0)
    for bad in (np.inf, -np.inf):
        with pytest.raises(SchemaError, match=f"segment row 1, bin 1: count {bad} must be finite"):
            CountMatrix(np.array([[0.0, 1.0, 3.0], [1.0, bad, np.nan]]), 900, T0)
    # NaN marks missing and is allowed
    cm = CountMatrix(np.array([[1.0, np.nan]]), 900, T0)
    assert np.isnan(cm.values[0, 1])


@pytest.mark.parametrize("cell", ["inf", "-inf"])
def test_load_counts_rejects_infinite_counts(cell):
    # the rows a loaded count table fills: a missing cell passes, the infinite one after it is named
    with pytest.raises(SchemaError, match=f"segment row 1, bin 1: count {cell} must be finite"):
        CountMatrix(np.array([[1.0, 3.0], [np.nan, float(cell)]]), 900, T0)


def test_count_matrix_time_derivation():
    cm = CountMatrix(np.zeros((1, 8)), 3600, T0.replace(hour=22))
    assert list(cm.hours()) == [22, 23, 0, 1, 2, 3, 4, 5]
    # Monday start, crossing midnight into Tuesday
    assert list(cm.days()[:2]) == [0, 0] and list(cm.days()[2:4]) == [1, 1]


def test_count_matrix_time_matches_datetime_arithmetic():
    # a Saturday 21:47:13 start and 700 s bins that do not divide an hour,
    # over 8.1 days, so the span crosses a week boundary
    cm = CountMatrix(np.zeros((1, 1000)), 700, dt.datetime(2024, 3, 9, 21, 47, 13))
    starts = [cm.bin_start(t) for t in range(cm.n_bins)]
    assert np.array_equal(cm.hours(), np.array([s.hour for s in starts]))
    assert np.array_equal(cm.days(), np.array([s.weekday() for s in starts]))
    assert np.array_equal(cm.minutes(), np.array([s.minute for s in starts]))
    assert cm.hours().dtype == cm.days().dtype == cm.minutes().dtype == np.array([1]).dtype
    assert starts[-1] - starts[0] > dt.timedelta(days=7)


def test_counts_roundtrip_with_missing(tmp_path):
    vals = np.array([[1.0, np.nan, 3.5], [0.0, 2.0, np.nan]])
    cm = CountMatrix(vals, 900, T0)
    p = tmp_path / "counts.csv"
    save_counts(cm, p, ("north", "south"))
    # ids label the rows, the header holds each bin's ISO-8601 start, NaN is an empty cell
    assert p.read_text().splitlines() == [
        "segment_id,2024-01-01T00:00:00,2024-01-01T00:15:00,2024-01-01T00:30:00",
        "north,1,,3.5",
        "south,0,2,",
    ]
    with pytest.raises(ValueError, match="longer"):
        save_counts(cm, tmp_path / "short.csv", ("north",))
