import json
import os
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentloc.autodiff import load_checkpoint, save_checkpoint
from momentloc.cli import main
from momentloc.configio import (
    atomic_open,
    dataclass_from_mapping,
    dataclass_to_text,
    load_config_file,
    parse_flat_config,
    read_json,
    write_json,
)
from momentloc.dataset import SyntheticCorpusConfig
from momentloc.model import LOSSES, SIMILARITIES, SUPERVISION_MODES, TEF_MODES, ModelConfig
from momentloc.temporal import CONTEXT_MODES
from momentloc.trainer import TrainConfig


def _instances(cls, **fields):
    """Instances of a config dataclass with every field drawn from its
    strategy, skipping the combinations its validation rejects."""
    def build(kwargs):
        try:
            return cls(**kwargs)
        except ValueError:
            return None

    return st.fixed_dictionaries(fields).map(build).filter(lambda c: c is not None)


UNIT = st.floats(0.0, 1.0)
POSITIVE = st.floats(1e-300, 1e300)

CONFIGS = st.one_of(
    _instances(
        ModelConfig,
        context_mode=st.sampled_from(CONTEXT_MODES), tef_mode=st.sampled_from(TEF_MODES),
        similarity=st.sampled_from(SIMILARITIES), loss=st.sampled_from(LOSSES),
        context_supervision=st.sampled_from(SUPERVISION_MODES),
        modalities=st.lists(st.sampled_from(("rgb", "flow", "audio")), min_size=1, max_size=2,
                            unique=True).map(tuple),
        fusion_lambda=UNIT, margin=POSITIVE, tall_alpha_c=st.floats(0.0, 1e300),
        tall_alpha_w=st.floats(0.0, 1e300),
        **{name: st.integers(1, 4096) for name in ("visual_dim", "mlp_hidden", "visual_out_dim",
                                                   "embed_dim", "lstm_hidden", "joint_dim",
                                                   "sim_hidden")},
        vocab_size=st.integers(0, 10**6),
    ),
    _instances(
        TrainConfig,
        epochs=st.integers(0, 1000), batch_size=st.integers(1, 1000), lr=POSITIVE,
        lr_decay_every=st.integers(1, 1000), lr_decay_factor=POSITIVE,
        negatives_intra=st.integers(0, 50), negatives_inter=st.integers(0, 50),
        seed=st.integers(0, 2**63),
    ),
    _instances(
        SyntheticCorpusConfig,
        n_train_videos=st.integers(1, 5000), n_test_videos=st.integers(0, 5000),
        n_segments=st.integers(2, 40), n_events=st.integers(3, 80), feature_dim=st.integers(1, 512),
        noise_sigma=st.floats(0.0, 1e6), repeat_prob=UNIT, queries_per_video=st.integers(1, 20),
        mix_simple=UNIT, mix_before=UNIT, mix_after=UNIT, mix_then=UNIT,
        ctx_alias_prob=UNIT, seed=st.integers(0, 2**63),
    ),
)


def _rebuild(cls, text):
    return dataclass_from_mapping(cls, parse_flat_config(text))


@settings(max_examples=200, deadline=None)
@given(cfg=CONFIGS, data=st.data())
def test_config_text_round_trips_whatever_the_layout(cfg, data):
    """Written as text and read back, a model, training or corpus config is
    the one written, also with blank lines, `#` comment lines, trailing
    comments and spaces around keys and `=` added anywhere."""
    text = dataclass_to_text(cfg)
    assert _rebuild(type(cfg), text) == cfg
    spaces = st.sampled_from(["", " ", "  ", "\t"])
    noise = st.sampled_from(["", "# a comment", "   ", "#x = 1", "\t# key = value"])
    lines = []
    for line in text.splitlines():
        key, value = line.split(" = ")
        lines.extend(data.draw(st.lists(noise, max_size=2)))
        pad = [data.draw(spaces) for _ in range(4)]
        comment = data.draw(st.sampled_from(["", " # why", "#"]))
        lines.append(f"{pad[0]}{key}{pad[1]}={pad[2]}{value}{pad[3]}{comment}")
    lines.extend(data.draw(st.lists(noise, max_size=2)))
    assert parse_flat_config("\n".join(lines)) == parse_flat_config(text)


@settings(max_examples=100, deadline=None)
@given(first=CONFIGS, data=st.data())
def test_later_assignments_override_earlier_ones(first, data):
    cls = type(first)
    second = data.draw(CONFIGS.filter(lambda c: type(c) is cls))
    assert _rebuild(cls, dataclass_to_text(first) + dataclass_to_text(second)) == second
    later = parse_flat_config(dataclass_to_text(second))
    keys = data.draw(st.lists(st.sampled_from(sorted(later)), unique=True))
    text = dataclass_to_text(first) + "".join(f"{k} = {later[k]}\n" for k in keys)
    assert parse_flat_config(text) == {**parse_flat_config(dataclass_to_text(first)),
                                       **{k: later[k] for k in keys}}


@settings(max_examples=100, deadline=None)
@given(cfg=CONFIGS, key=st.from_regex(r"[a-z_][a-z0-9_]{0,15}", fullmatch=True))
def test_unknown_key_is_named_in_the_error(cfg, key):
    cls = type(cfg)
    mapping = parse_flat_config(dataclass_to_text(cfg))
    assume(key not in mapping)
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        dataclass_from_mapping(cls, {**mapping, key: "1"})


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
