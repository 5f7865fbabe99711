import json
import os
import re

import numpy as np
import pytest

from momentloc.autodiff import load_checkpoint, save_checkpoint
from momentloc.cli import main
from momentloc.configio import (
    atomic_open,
    load_config_file,
    parse_flat_config,
    read_json,
    write_json,
)


def test_parse_flat_config_rejects_include_lines():
    assert parse_flat_config("a = 1  # note\n\nb=x y\n") == {"a": "1", "b": "x y"}
    with pytest.raises(ValueError, match=r"<text>:2: expected 'key = value'"):
        parse_flat_config("a = 1\ninclude other.cfg\n", "<text>")


def test_include_later_assignments_override(tmp_path):
    (tmp_path / "base.cfg").write_text("a = 1\nb = 2\nc = 3\n", encoding="utf-8")
    (tmp_path / "top.cfg").write_text("a = 0\ninclude base.cfg\nb = 20\n", encoding="utf-8")
    assert load_config_file(str(tmp_path / "top.cfg")) == {"a": "1", "b": "20", "c": "3"}


def test_include_path_is_relative_to_including_file(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    (sub / "deeper").mkdir(parents=True)
    (sub / "deeper" / "leaf.cfg").write_text("leaf = yes\n", encoding="utf-8")
    (sub / "mid.cfg").write_text("include deeper/leaf.cfg\nmid = yes\n", encoding="utf-8")
    (tmp_path / "top.cfg").write_text("include sub/mid.cfg\n", encoding="utf-8")
    monkeypatch.chdir(sub / "deeper")
    assert load_config_file(str(tmp_path / "top.cfg")) == {"leaf": "yes", "mid": "yes"}


def test_include_cycle_names_file_line_and_cycle(tmp_path, capsys):
    a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    a.write_text("x = 1\ninclude b.cfg\n", encoding="utf-8")
    b.write_text("# back to a\n\ninclude a.cfg\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_config_file(str(a))
    msg = str(err.value)
    assert msg.startswith(f"{b}:3: include cycle: ")
    assert msg.endswith(f"{a} -> {b} -> {a}")
    a.write_text("include a.cfg\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{a}:1: include cycle: {a} -> {a}")):
        load_config_file(str(a))
    assert main(["gen", "--config", str(a), "--out", str(tmp_path / "out")]) != 0
    assert "include cycle" in capsys.readouterr().err


def test_include_of_missing_file_names_including_line(tmp_path):
    top = tmp_path / "top.cfg"
    top.write_text("a = 1\n\ninclude nowhere.cfg\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{top}:3: included file ") + r".*nowhere\.cfg does not exist"):
        load_config_file(str(top))


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with atomic_open(str(path)) as fh:
            fh.write("half of the new")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["table.txt"]
    with atomic_open(str(path)) as fh:
        fh.write("new\n")
    assert path.read_bytes() == b"new\n"
    assert os.listdir(tmp_path) == ["table.txt"]


def test_failed_checkpoint_write_keeps_previous_checkpoint(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(str(path), {"a": np.arange(3.0)})
    before = path.read_bytes()
    # the header and the first tensor are written before "b" fails to convert
    with pytest.raises(ValueError):
        save_checkpoint(str(path), {"a": np.zeros(3), "b": np.array(["x"])})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ck.bin"]
    assert np.array_equal(load_checkpoint(str(path))["a"], np.arange(3.0))


def test_write_json_bytes_and_read_json_errors(tmp_path):
    doc = {"b": [1, 2.5], "a": {"z": None, "y": "\u00e9"}}
    path = tmp_path / "doc.json"
    write_json(str(path), doc)
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=1, sort_keys=True) + "\n"
    write_json(str(path), doc, indent=0)
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=0, sort_keys=True) + "\n"
    assert read_json(str(path)) == doc
    path.write_text('{\n "a": 1,\n}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3:1: Expecting property name")):
        read_json(str(path))
