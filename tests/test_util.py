import os

import pytest

from trafficfuse import util


@pytest.mark.parametrize("fault", ["write", "rename"])
def test_failed_atomic_write_keeps_the_previous_file(tmp_path, monkeypatch, fault):
    p = tmp_path / "a.json"
    util.atomic_write(str(p), b"old\n")
    data = b"new\n"
    if fault == "write":
        data = "new\n"  # text where bytes are due: the temp file's write raises
    else:
        def fails(src, dst):
            raise OSError("injected")

        monkeypatch.setattr(os, "replace", fails)
    with pytest.raises((TypeError, OSError)):
        util.atomic_write(str(p), data)
    assert p.read_bytes() == b"old\n"
    assert [q.name for q in tmp_path.iterdir()] == ["a.json"]


def test_write_csv_uses_the_csv_module_dialect(tmp_path):
    p = tmp_path / "t.csv"
    util.write_csv(str(p), ["a", "b"], iter([[1, "x,y"], [2.5, ""]]))
    assert p.read_bytes() == b'a,b\r\n1,"x,y"\r\n2.5,\r\n'
