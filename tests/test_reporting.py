import os

import pytest

from gwcommute.reporting import write_atomic


def test_write_atomic_replaces_whole_file(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    write_atomic(target, "a,b\n1,2\n")
    assert target.read_text() == "a,b\n1,2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def _fail_replace(src, dst):
    raise OSError("rename refused")


@pytest.mark.parametrize("failure", ["write", "rename"])
def test_write_atomic_removes_temp_file_on_failure(tmp_path, monkeypatch, failure):
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    if failure == "rename":
        monkeypatch.setattr(os, "replace", _fail_replace)
        text, error = "new\n", OSError
    else:
        # a lone surrogate cannot be encoded, so the write itself fails
        text, error = "new\udc80\n", UnicodeEncodeError
    with pytest.raises(error):
        write_atomic(target, text)
    assert list(tmp_path.glob("*.tmp-*")) == []
    assert target.read_text() == "old\n"
