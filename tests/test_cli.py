import contextlib
import csv
import io
import json
import os
import shutil
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import count_rank_calls
from momentloc.autodiff import load_checkpoint, save_checkpoint
from momentloc.cli import main
from momentloc.dataset import TemporalQuery, load_corpus, save_annotations
from momentloc.encoders import SegmentFeatureTable, load_features, save_features
from momentloc.model import load_model
from momentloc.temporal import Moment

GEN_CFG = """\
n_train_videos = 6
n_test_videos = 3
n_segments = 4
n_events = 8
feature_dim = 5
noise_sigma = 0.05
repeat_prob = 0.5
queries_per_video = 2
seed = 5
"""

MODEL_CFG = """\
context_mode = latent
tef_mode = contef
similarity = normalized_mult
loss = ranking
context_supervision = strong
modalities = rgb,flow
visual_dim = 5
mlp_hidden = 4
visual_out_dim = 3
embed_dim = 3
lstm_hidden = 4
joint_dim = 4
sim_hidden = 3
"""

TRAIN_CFG = """\
epochs = 3
batch_size = 8
lr = 0.05
seed = 1
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "gen.cfg").write_text(GEN_CFG, encoding="utf-8")
    (root / "model.cfg").write_text(MODEL_CFG, encoding="utf-8")
    (root / "train.cfg").write_text(TRAIN_CFG, encoding="utf-8")
    corpus = root / "corpus"
    assert main(["gen", "--config", str(root / "gen.cfg"), "--out", str(corpus)]) == 0
    model = root / "model"
    assert main([
        "train", "--corpus", str(corpus / "corpus.manifest"),
        "--model-config", str(root / "model.cfg"),
        "--train-config", str(root / "train.cfg"),
        "--quiet", "--out", str(model),
    ]) == 0
    return {
        "root": root,
        "manifest": str(corpus / "corpus.manifest"),
        "corpus": corpus,
        "model": model,
    }


def assert_run_record(out, command):
    """`manifest.json` lists exactly the files the command wrote under `out`
    (a listed directory stands for every file in it), and `timing.json` is
    there too."""
    def files(root):
        return {p.relative_to(out).as_posix() for p in [root, *root.rglob("*")] if p.is_file()}

    doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert doc["command"] == command
    assert all((out / name).exists() for name in doc["outputs"])
    listed = set().union(*(files(out / name) for name in doc["outputs"]))
    assert listed == files(out) - {"manifest.json", "timing.json"}
    assert json.loads((out / "timing.json").read_text(encoding="utf-8"))["wall_seconds"] >= 0


def test_gen_outputs(ws):
    names = set(os.listdir(ws["corpus"]))
    assert {
        "corpus.manifest", "truth.json", "features_rgb.txt", "features_flow.txt",
        "queries_train.json", "queries_test.json", "manifest.json", "timing.json",
    } <= names
    doc = json.loads((ws["corpus"] / "manifest.json").read_text(encoding="utf-8"))
    assert doc["command"] == "gen"
    assert doc["schema"] == 1
    assert "timing.json" not in doc["outputs"]
    assert doc["outputs"] == sorted(doc["outputs"])
    assert_run_record(ws["corpus"], "gen")


def test_gen_lists_only_its_own_files(ws, tmp_path, capsys):
    out = tmp_path / "busy"
    out.mkdir()
    (out / "stray.txt").write_text("not from gen\n", encoding="utf-8")
    assert main(["gen", "--config", str(ws["root"] / "gen.cfg"), "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    fresh = json.loads((ws["corpus"] / "manifest.json").read_text(encoding="utf-8"))
    assert doc["outputs"] == fresh["outputs"]
    assert "stray.txt" not in doc["outputs"]


def test_gen_rerun_byte_identical(ws, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = str(ws["root"] / "gen.cfg")
    assert main(["gen", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["gen", "--config", cfg, "--out", str(out_b)]) == 0
    for name in sorted(os.listdir(out_a)):
        if name == "timing.json":
            continue
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_gen_seed_flag_overrides(ws, tmp_path, capsys):
    cfg = str(ws["root"] / "gen.cfg")
    assert main(["gen", "--config", cfg, "--seed", "99", "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "s" / "manifest.json").read_text(encoding="utf-8"))
    assert doc["inputs"]["seed"] == 99
    assert (tmp_path / "s" / "truth.json").read_bytes() != (
        ws["corpus"] / "truth.json"
    ).read_bytes()


def test_train_outputs(ws):
    names = set(os.listdir(ws["model"]))
    assert {
        "checkpoint.bin", "model.cfg", "vocab.json", "history.csv",
        "manifest.json", "timing.json",
    } <= names
    with open(ws["model"] / "history.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["epoch"] for r in rows] == ["0", "1", "2"]
    cfg_text = (ws["model"] / "model.cfg").read_text(encoding="utf-8")
    assert "context_mode = latent" in cfg_text
    assert "vocab_size = 0" not in cfg_text  # persisted with the real vocabulary size
    assert_run_record(ws["model"], "train")


def test_eval_command(ws, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main([
        "eval", "--corpus", ws["manifest"], "--model", str(ws["model"]),
        "--split", "test", "--baseline-prior", "--context-delta", "--fragment-eval",
        "--out", str(out),
    ])
    printed = capsys.readouterr().out
    assert code == 0
    assert "model[latent]" in printed and "frequency_prior" in printed
    doc = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert [row["label"] for row in doc["rows"]] == ["model[latent]", "frequency_prior"]
    avg = doc["rows"][0]["report"]["average"]
    assert 0.0 <= avg["r_at_1"] <= 1.0  # json keeps the raw 0..1 scale
    assert "context_conditioned_delta" in doc
    assert "context_fragment_eval" in doc
    assert (out / "metrics.txt").read_text(encoding="utf-8") == printed
    assert_run_record(out, "eval")


def test_eval_ranks_each_analysed_query_three_times(ws, tmp_path, monkeypatch, capsys):
    """The metrics rank every query once; both context analyses together add
    one full-sentence and one fragment ranking per analysed query."""
    split = load_corpus(ws["manifest"], split="test")
    analysed = [q for q in split.queries if q.temporal_word in ("before", "after")
                and q.context is not None and q.context_sentence is not None]
    assert analysed
    calls = count_rank_calls(monkeypatch)
    assert main([
        "eval", "--corpus", ws["manifest"], "--model", str(ws["model"]), "--mode", "gt_context",
        "--context-delta", "--fragment-eval", "--out", str(tmp_path / "eval"),
    ]) == 0
    capsys.readouterr()
    assert len(calls) == len(split.queries) + 2 * len(analysed)


@pytest.mark.parametrize("flags", [["--context-delta", "--fragment-eval"], ["--context-delta"],
                                   ["--fragment-eval"], []])
def test_latent_eval_ranks_each_analysed_query_twice(ws, tmp_path, monkeypatch, capsys, flags):
    """In latent mode an analysed query's metrics ranking is the analyses'
    full-sentence ranking: with either analysis it is ranked twice (sentence
    and fragment), without one once, like every other query."""
    split = load_corpus(ws["manifest"], split="test")
    analysed = [q.sentence for q in split.queries if q.temporal_word in ("before", "after")
                and q.context is not None and q.context_sentence is not None]
    assert analysed
    calls = count_rank_calls(monkeypatch)
    assert main([
        "eval", "--corpus", ws["manifest"], "--model", str(ws["model"]), *flags,
        "--out", str(tmp_path / "eval"),
    ]) == 0
    capsys.readouterr()
    assert sorted(calls) == sorted([q.sentence for q in split.queries] + (analysed if flags else []))


def test_eval_into_the_model_directory_fails(ws, tmp_path, capsys):
    """Writing eval's run record into the model directory would replace the
    train manifest that a later `train --resume` reads."""
    model = tmp_path / "m"
    assert _train(ws, tmp_path, model, 1) == 0
    assert main([
        "eval", "--corpus", ws["manifest"], "--model", str(model),
        "--out", os.path.join(tmp_path, "m", "..", "m"),
    ]) == 1
    assert "--out must differ from --model" in capsys.readouterr().err
    doc = json.loads((model / "manifest.json").read_text(encoding="utf-8"))
    assert doc["command"] == "train"
    assert not (model / "metrics.json").exists()


def test_eval_gt_context_mode(ws, tmp_path, capsys):
    out = tmp_path / "eval_gt"
    assert main([
        "eval", "--corpus", ws["manifest"], "--model", str(ws["model"]),
        "--mode", "gt_context", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    doc = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert doc["mode"] == "gt_context"
    assert doc["rows"][0]["label"] == "model[gt_context]"


def test_eval_missing_corpus_fails(ws, tmp_path, capsys):
    code = main([
        "eval", "--corpus", str(tmp_path / "nope.manifest"),
        "--model", str(ws["model"]), "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("lineno, line", [
    (2, "features rgb features_nope.txt"),
    (4, "annotations test queries_nope.json"),
])
def test_eval_names_the_manifest_line_of_a_missing_file(ws, tmp_path, capsys, lineno, line):
    corpus = tmp_path / "corpus"
    shutil.copytree(ws["corpus"], corpus)
    manifest = corpus / "corpus.manifest"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lines[lineno - 1] = line
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--corpus", str(manifest), "--model", str(ws["model"]),
                 "--out", str(tmp_path / "x")]) == 1
    kind, _, name = line.split()
    assert capsys.readouterr().err == (
        f"error: {manifest}:{lineno}: {kind} file {corpus / name} does not exist\n")


def test_an_empty_split_names_its_annotation_file(ws, tmp_path, capsys):
    """A corpus generated without test videos has an empty test split: eval
    fails naming its annotation file, and ablate fails before it trains."""
    (tmp_path / "gen.cfg").write_text(GEN_CFG.replace("n_test_videos = 3", "n_test_videos = 0"),
                                      encoding="utf-8")
    corpus = tmp_path / "corpus"
    assert main(["gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(corpus)]) == 0
    manifest = str(corpus / "corpus.manifest")
    grid = tmp_path / "grid.cfg"
    grid.write_text("cells = a\n" + MODEL_CFG, encoding="utf-8")
    capsys.readouterr()
    want = f"error: {corpus / 'queries_test.json'}: split 'test' has no queries\n"
    assert main(["eval", "--corpus", manifest, "--model", str(ws["model"]),
                 "--out", str(tmp_path / "eval")]) == 1
    assert capsys.readouterr().err == want
    assert main(["ablate", "--corpus", manifest, "--grid", str(grid),
                 "--train-config", str(ws["root"] / "train.cfg"), "--out", str(tmp_path / "abl")]) == 1
    assert capsys.readouterr().err == want
    assert not (tmp_path / "abl" / "cells").exists()


def test_inspect_command(ws, tmp_path, monkeypatch, capsys):
    before = {d: sorted(os.listdir(ws[d])) for d in ("corpus", "model")}
    monkeypatch.chdir(tmp_path)
    assert main([
        "inspect", "--corpus", ws["manifest"], "--model", str(ws["model"]),
        "--split", "test", "--query", "0", "--top", "3",
    ]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("query 0 (test):")
    assert "ground truth: segments" in printed
    body = printed.splitlines()
    assert any(set(line.split()[-1]) <= set("■▲◆·") for line in body[2:] if line)
    ranked = [line for line in body if line and line.split()[0].isdigit()]
    assert len(ranked) == 3
    assert os.listdir(tmp_path) == []  # inspect writes nothing
    assert {d: sorted(os.listdir(ws[d])) for d in ("corpus", "model")} == before


def test_inspect_before_after_model_shows_padded_context(ws, tmp_path, capsys):
    """Under before_after, the whole-video moment has a padded slot on both
    sides, so its context column reads (padded) and its timeline no ▲."""
    cfg = tmp_path / "model.cfg"
    cfg.write_text(MODEL_CFG.replace("context_mode = latent", "context_mode = before_after"),
                   encoding="utf-8")
    model = tmp_path / "model"
    assert main(["train", "--corpus", ws["manifest"], "--model-config", str(cfg), "--train-config",
                 str(ws["root"] / "train.cfg"), "--quiet", "--out", str(model)]) == 0
    assert main([
        "inspect", "--corpus", ws["manifest"], "--model", str(model),
        "--split", "test", "--query", "0", "--top", "30",
    ]) == 0
    ranked = [line.split() for line in capsys.readouterr().out.splitlines()
              if line and line.split()[0].isdigit()]
    assert len(ranked) == 10  # every moment of a 4-segment video
    assert [row[3:] for row in ranked if row[2] == "[0,3]"] == [["(padded)", "■■■■"]]


def test_inspect_gt_context_ranks_a_query_without_a_stored_context_as_latent(ws, capsys):
    """`inspect --mode gt_context` ranks a query that stores no context with
    latent contexts, as `eval --mode gt_context` does, and says so in one
    extra line; a query with a stored context prints no such line."""
    queries = load_corpus(ws["manifest"], split="test").queries
    bare = next(i for i, q in enumerate(queries) if q.context is None)
    pinned = next(i for i, q in enumerate(queries) if q.context is not None)

    def inspect(query, mode):
        assert main(["inspect", "--corpus", ws["manifest"], "--model", str(ws["model"]),
                     "--query", str(query), "--mode", mode, "--top", "30"]) == 0
        return capsys.readouterr().out.splitlines()

    capsys.readouterr()
    latent, fallback = inspect(bare, "latent"), inspect(bare, "gt_context")
    assert fallback == latent[:3] + ["no stored context: ranked with latent contexts"] + latent[3:]
    assert "no stored context" not in "\n".join(inspect(pinned, "gt_context"))


def test_inspect_bad_index(ws, capsys):
    assert main([
        "inspect", "--corpus", ws["manifest"], "--model", str(ws["model"]),
        "--query", "9999",
    ]) == 1
    assert "out of range" in capsys.readouterr().err


def test_inspect_top_must_be_positive(ws, capsys):
    """A negative --top would slice the last moments off the ranking."""
    for top in ("0", "-3"):
        assert main([
            "inspect", "--corpus", ws["manifest"], "--model", str(ws["model"]),
            "--query", "0", "--top", top,
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --top must be at least 1, got {top}\n"


def _without_flow(corpus):
    manifest = corpus / "corpus.manifest"
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    manifest.write_text("".join(line for line in lines if not line.startswith("features flow")),
                        encoding="utf-8")
    return "config needs modalities ['flow', 'rgb'], corpus has ['rgb']"


def _wide_rgb(corpus):
    path = corpus / "features_rgb.txt"
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split()
        rows.append(f"{fields[0]} {fields[1]} 6" if len(fields) == 3 else line + " 0.0")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return "rgb features have dim 6, config expects visual_dim=5"


@pytest.mark.parametrize("edit", [_without_flow, _wide_rgb])
@pytest.mark.parametrize("command", ["eval", "inspect"])
def test_eval_and_inspect_check_the_corpus_against_the_model(ws, tmp_path, capsys, edit, command):
    """A corpus that lacks one of the model's modalities, or whose features
    are not visual_dim wide, ends with an error line instead of a traceback
    from the scorer."""
    corpus = tmp_path / "corpus"
    shutil.copytree(ws["corpus"], corpus)
    message = edit(corpus)
    extra = ["--out", str(tmp_path / "out")] if command == "eval" else ["--query", "0"]
    assert main([command, "--corpus", str(corpus / "corpus.manifest"),
                 "--model", str(ws["model"]), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out" / "metrics.json").exists()


def test_stats_command(ws, tmp_path, capsys):
    out = tmp_path / "stats"
    assert main([
        "stats", "--annotations", str(ws["corpus"] / "queries_train.json"),
        "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "before" in printed and "total queries" in printed
    doc = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert doc["total_queries"] == 12
    assert set(doc["word_counts"]) >= {"before", "after", "then", "while"}
    assert_run_record(out, "stats")


def test_stats_without_out_writes_nothing(ws, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["stats", "--annotations", str(ws["corpus"] / "queries_train.json")]) == 0
    assert "total queries" in capsys.readouterr().out
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("key, value", [("feature_dim", 0), ("queries_per_video", -2)])
def test_gen_rejects_a_config_that_makes_an_unusable_corpus(ws, tmp_path, capsys, key, value):
    """A zero feature width, which the feature loader rejects, or no queries
    per video is an `error:` line naming the file and line, and exit 1, and
    writes no corpus."""
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(GEN_CFG.replace(f"{key} = ", f"{key} = {value}\n# "), encoding="utf-8")
    line = [row.split(" = ")[0] for row in GEN_CFG.splitlines()].index(key) + 1
    capsys.readouterr()
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:{line}: {key} must be >= 1\n"
    assert not (tmp_path / "c" / "corpus.manifest").exists()


@pytest.mark.parametrize("command, key, value", [
    ("gen", "mix_then", "nan"),
    ("gen", "noise_sigma", "inf"),
    ("train", "margin", "nan"),
])
def test_non_finite_config_value_names_its_key(ws, tmp_path, capsys, command, key, value):
    """A nan or infinite float in a config file fails when the file is read,
    with one `error:` line naming the file, the line and the key, instead of
    later in the sampler or the tape with a message that names none."""
    text = GEN_CFG if command == "gen" else MODEL_CFG
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(text + f"{key} = {value}\n", encoding="utf-8")
    if command == "gen":
        args = ["gen", "--config", str(cfg)]
    else:
        args = ["train", "--corpus", ws["manifest"], "--model-config", str(cfg),
                "--train-config", str(ws["root"] / "train.cfg"), "--quiet"]
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    where = f"{cfg}:{len(text.splitlines()) + 1}"
    assert captured.err == f"error: {where}: config key {key!r}: float must be finite, got {value!r}\n"
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("source", ["gen", "model_config", "include", "grid", "model_dir"])
def test_unparsable_config_value_names_its_file_and_line(ws, tmp_path, capsys, source):
    """A config value that cannot be parsed fails with one `error:` line that
    names the file and line it was read from: a `gen --config` file, a
    `--model-config` file, a file that one includes, an ablation grid's cell
    override, and a model directory's model.cfg."""
    bad_model = MODEL_CFG.replace("mlp_hidden = 4", "mlp_hidden = abc")
    (tmp_path / "bad.cfg").write_text(bad_model, encoding="utf-8")
    train = ["train", "--corpus", ws["manifest"], "--train-config", str(ws["root"] / "train.cfg"),
             "--quiet", "--model-config"]
    key, value, line, prefix = "mlp_hidden", "abc", 8, ""
    if source == "gen":
        where = tmp_path / "gen.cfg"
        where.write_text(GEN_CFG + "n_events = many\n", encoding="utf-8")
        args = ["gen", "--config", str(where)]
        key, value, line = "n_events", "many", 10
    elif source == "model_config":
        where = tmp_path / "bad.cfg"
        args = [*train, str(where)]
    elif source == "include":
        where = tmp_path / "bad.cfg"
        (tmp_path / "top.cfg").write_text("margin = 0.2\ninclude bad.cfg\n", encoding="utf-8")
        args = [*train, str(tmp_path / "top.cfg")]
    elif source == "grid":
        where = tmp_path / "grid.cfg"
        where.write_text("cells = a\n" + MODEL_CFG + "a.mlp_hidden = q\n", encoding="utf-8")
        args = ["ablate", "--corpus", ws["manifest"], "--grid", str(where)]
        value, line, prefix = "q", 15, "ablation cell 'a' failed: "
    else:
        model = tmp_path / "model"
        shutil.copytree(ws["model"], model)
        where = model / "model.cfg"
        where.write_text(where.read_text(encoding="utf-8").replace(
            "mlp_hidden = 4", "mlp_hidden = abc"), encoding="utf-8")
        line = where.read_text(encoding="utf-8").splitlines().index("mlp_hidden = abc") + 1
        args = ["eval", "--corpus", ws["manifest"], "--model", str(model)]
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {prefix}{where}:{line}: config key {key!r}: cannot parse int from {value!r}\n")
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("command, source", [("gen", "file"), ("gen", "flag"), ("train", "file"), ("train", "flag")])
def test_negative_seed_names_its_key(ws, tmp_path, capsys, command, source):
    """A negative seed, in a config file or as `--seed -1`, fails when the
    config is built, with one `error:` line naming the key, and the file and
    line it was read from, instead of in the random generator with numpy's
    message."""
    name, text, seed, negative = {"gen": ("gen.cfg", GEN_CFG, "seed = 5", "seed = -1"),
                                  "train": ("train.cfg", TRAIN_CFG, "seed = 1", "seed = -3")}[command]
    cfg = ws["root"] / name
    if source == "file":
        cfg = tmp_path / name
        cfg.write_text(text.replace(seed, negative), encoding="utf-8")
    args = ["gen", "--config", str(cfg)] if command == "gen" else [
        "train", "--corpus", ws["manifest"], "--model-config", str(ws["root"] / "model.cfg"),
        "--train-config", str(cfg), "--quiet"]
    if source == "flag":
        args += ["--seed", "-1"]
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "out")]) == 1
    where = f"{cfg}:{text.splitlines().index(seed) + 1}: " if source == "file" else ""
    assert capsys.readouterr().err == f"error: {where}seed must be >= 0\n"
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("source", ["train_config", "model_config", "grid", "gen"])
def test_config_check_names_its_file_and_line(ws, tmp_path, capsys, source):
    """A value that parses but fails its config's check fails with one
    `error:` line that names the file and line of the key the check names,
    or the config file alone when the check names no key."""
    train = ["train", "--corpus", ws["manifest"], "--quiet"]
    sideways = "context_mode must be one of ('global', 'before_after', 'latent'), got 'sideways'"
    cfg = tmp_path / f"{source}.cfg"
    if source == "train_config":
        cfg.write_text(TRAIN_CFG.replace("epochs = 3", "epochs = -2"), encoding="utf-8")
        args = [*train, "--model-config", str(ws["root"] / "model.cfg"), "--train-config", str(cfg)]
        expected = f"{cfg}:1: epochs must be >= 0"
    elif source == "model_config":
        cfg.write_text(MODEL_CFG.replace("= latent", "= sideways"), encoding="utf-8")
        args = [*train, "--train-config", str(ws["root"] / "train.cfg"), "--model-config", str(cfg)]
        expected = f"{cfg}:1: {sideways}"
    elif source == "grid":
        cfg.write_text("cells = a\n" + MODEL_CFG + "a.context_mode = sideways\n", encoding="utf-8")
        args = ["ablate", "--corpus", ws["manifest"], "--grid", str(cfg)]
        expected = f"ablation cell 'a' failed: {cfg}:15: {sideways}"
    else:
        cfg.write_text(GEN_CFG + "".join(f"mix_{k} = 0\n" for k in ("simple", "before", "after", "then")),
                       encoding="utf-8")
        args = ["gen", "--config", str(cfg)]
        expected = f"{cfg}: query mix weights must be non-negative and not all zero"
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("kind, lines, expected", [
    ("gen", "n_events = 4", "n_events (4) must exceed n_segments (4) to vary videos"),
    ("gen", "n_segments = 1", "n_segments must be >= 2"),
    ("gen", "n_train_videos = 0", "n_train_videos must be >= 1"),
    ("gen", "mix_before = -1", "mix_before must be >= 0"),
    ("train", "lr = 0", "lr must be positive"),
    ("train", "lr_decay_factor = -0.5", "lr_decay_factor must be positive"),
    ("train", "negatives_intra = 0\nnegatives_inter = 0",
     "negatives_intra + negatives_inter must be >= 1"),
    ("model", "tall_alpha_c = -1", "tall_alpha_c must be >= 0"),
    ("model", "fusion_lambda = 2.0", "fusion_lambda must lie in [0, 1], got 2.0"),
    ("model", "modalities = rgb,flow,depth", "modalities must be 1 or 2 for late fusion, got 3"),
])
def test_config_check_names_the_line_of_its_key(ws, tmp_path, capsys, kind, lines, expected):
    """Every check of a gen, train or model config starts its message with
    the key it rejects, so the error names the line that key was read from
    (the first appended line here), not only the file."""
    base = {"gen": GEN_CFG, "train": TRAIN_CFG, "model": MODEL_CFG}[kind]
    cfg = tmp_path / f"{kind}.cfg"
    cfg.write_text(base + lines + "\n", encoding="utf-8")
    train = ["train", "--corpus", ws["manifest"], "--quiet"]
    args = {"gen": ["gen", "--config", str(cfg)],
            "train": [*train, "--model-config", str(ws["root"] / "model.cfg"), "--train-config", str(cfg)],
            "model": [*train, "--train-config", str(ws["root"] / "train.cfg"), "--model-config", str(cfg)],
            }[kind]
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:{len(base.splitlines()) + 1}: {expected}\n"
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("name, line", [
    ("train.cfg", 2), ("corpus/queries_test.json", 3), ("corpus/corpus.manifest", 2),
    ("corpus/features_rgb.txt", 4), ("embeddings.txt", 2), ("model/history.csv", 3),
    ("model/model.cfg", 5),
])
def test_a_byte_that_is_not_utf8_names_its_file_and_line(ws, tmp_path, capsys, name, line):
    """A byte that is not UTF-8 in any text file the program reads fails
    with one `error:` line naming the file and the line, instead of the
    codec's message, which names neither."""
    shutil.copytree(ws["corpus"], tmp_path / "corpus")
    shutil.copytree(ws["model"], tmp_path / "model")
    shutil.copy(ws["root"] / "train.cfg", tmp_path / "train.cfg")
    (tmp_path / "embeddings.txt").write_text("before 0.5 -0.5\nafter 1.0 0.0\n", encoding="utf-8")
    path = tmp_path / name
    rows = path.read_bytes().splitlines(keepends=True)
    rows[line - 1] = b"\xff" + rows[line - 1]
    path.write_bytes(b"".join(rows))
    manifest = str(tmp_path / "corpus" / "corpus.manifest")
    train = ["train", "--corpus", manifest, "--train-config", str(tmp_path / "train.cfg"), "--quiet"]
    model_cfg = ["--model-config", str(ws["root"] / "model.cfg")]
    args = {"train.cfg": [*train, *model_cfg],
            "embeddings.txt": [*train, *model_cfg, "--embeddings", str(path)],
            "model/history.csv": [*train, "--resume", str(tmp_path / "model")]}.get(
        name, ["eval", "--corpus", manifest, "--model", str(tmp_path / "model")])
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {path}:{line}: not UTF-8 text\n"


def test_segment_counts_that_disagree_name_the_feature_files(ws, tmp_path, capsys):
    """A video whose feature files give different segment counts fails with
    one `error:` line naming each file and the count it gives."""
    corpus = tmp_path / "corpus"
    shutil.copytree(ws["corpus"], corpus)
    path = corpus / "features_flow.txt"
    tables = load_features(str(path), "flow")
    tables["te0000"] = SegmentFeatureTable("te0000", "flow", tables["te0000"].features[:-1])
    save_features(str(path), tables)
    capsys.readouterr()
    assert main(["eval", "--corpus", str(corpus / "corpus.manifest"), "--model", str(ws["model"]),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: video 'te0000': modalities disagree on segment count: "
        f"{path} gives 3, {corpus / 'features_rgb.txt'} gives 4\n")


def test_gen_compose(tmp_path, capsys):
    anns = tmp_path / "base.json"
    save_annotations(str(anns), [
        TemporalQuery("v0", "the dog runs", Moment(0, 1)),
        TemporalQuery("v0", "the cat sits", Moment(2, 3)),
    ])
    out = tmp_path / "composed"
    assert main(["gen", "--compose", str(anns), "--out", str(out)]) == 0
    assert "composed 5 queries" in capsys.readouterr().out
    doc = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert doc["word_counts"]["before"] == 2
    assert doc["word_counts"]["after"] == 2
    assert doc["word_counts"]["then"] == 1
    from momentloc.dataset import load_annotations

    queries = load_annotations(str(out / "queries_composed.json"))
    assert len(queries) == 5
    assert all(q.context is not None for q in queries)
    assert_run_record(out, "gen")


@pytest.mark.parametrize("extra, named", [
    (["--config", "absent.cfg"], "--config"),
    (["--seed", "5"], "--seed"),
    (["--config", "absent.cfg", "--seed", "5"], "--config or --seed"),
])
def test_gen_compose_rejects_the_corpus_flags(tmp_path, capsys, extra, named):
    """Composing reads neither a corpus config nor a seed, so a run given
    either fails naming it rather than ignore it and record neither."""
    anns = tmp_path / "base.json"
    save_annotations(str(anns), [TemporalQuery("v0", "the dog runs", Moment(0, 1))])
    out = tmp_path / "composed"
    assert main(["gen", "--compose", str(anns), *extra, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --compose cannot be combined with {named}\n"
    assert not (out / "queries_composed.json").exists()


def _train(ws, tmp_path, out, epochs, *extra):
    cfg = tmp_path / f"epochs{epochs}.cfg"
    cfg.write_text(f"epochs = {epochs}\nbatch_size = 4\nlr = 0.05\nseed = 1\n", encoding="utf-8")
    if "--resume" not in extra:
        extra = ("--model-config", str(ws["root"] / "model.cfg"), *extra)
    return main(["train", "--corpus", ws["manifest"], "--train-config", str(cfg),
                 *extra, "--quiet", "--out", str(out)])


def _same_model(a, b):
    return all((a / f).read_bytes() == (b / f).read_bytes()
               for f in ("checkpoint.bin", "model.cfg", "vocab.json", "history.csv"))


def test_train_resume(ws, tmp_path, capsys):
    """The start epoch is the row count of the resumed directory's
    history.csv; 2 + 2 epochs give the files of 4 straight epochs."""
    assert _train(ws, tmp_path, tmp_path / "straight", 4) == 0
    assert _train(ws, tmp_path, tmp_path / "two", 2) == 0
    assert _train(ws, tmp_path, tmp_path / "four", 4, "--resume", str(tmp_path / "two")) == 0
    assert "trained 2 epochs" in capsys.readouterr().out
    assert _same_model(tmp_path / "straight", tmp_path / "four")
    assert_run_record(tmp_path / "four", "train")
    # a history cut back to one row restarts at epoch 1 from the same checkpoint
    cut = tmp_path / "cut"
    shutil.copytree(tmp_path / "two", cut)
    lines = (cut / "history.csv").read_bytes().splitlines(keepends=True)
    (cut / "history.csv").write_bytes(b"".join(lines[:2]))
    assert _train(ws, tmp_path, tmp_path / "from1", 3, "--resume", str(cut)) == 0
    with open(tmp_path / "from1" / "history.csv", newline="") as fh:
        assert [r["epoch"] for r in csv.DictReader(fh)] == ["0", "1", "2"]
    capsys.readouterr()
    code = main([
        "train", "--corpus", ws["manifest"],
        "--model-config", str(ws["root"] / "model.cfg"),
        "--resume", str(ws["model"]), "--quiet", "--out", str(tmp_path / "bad"),
    ])
    assert code == 1
    assert "--resume" in capsys.readouterr().err


def test_model_cfg_with_seed_loads_and_resumes(ws, tmp_path, capsys):
    """A model.cfg that still records the unused `seed` key loads as the
    same config and resumes to the same files; a --model-config or ablation
    grid that sets `seed` is an unknown key."""
    assert _train(ws, tmp_path, tmp_path / "two", 2) == 0
    old = tmp_path / "old"
    shutil.copytree(tmp_path / "two", old)
    with open(old / "model.cfg", "a", encoding="utf-8") as fh:
        fh.write("seed = 0\n")
    assert load_model(str(old)).config == load_model(str(tmp_path / "two")).config
    assert _train(ws, tmp_path, tmp_path / "four", 4, "--resume", str(tmp_path / "two")) == 0
    assert _train(ws, tmp_path, tmp_path / "old4", 4, "--resume", str(old)) == 0
    assert _same_model(tmp_path / "four", tmp_path / "old4")
    capsys.readouterr()
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text(MODEL_CFG + "seed = 7\n", encoding="utf-8")
    assert _train(ws, tmp_path, tmp_path / "bad", 1, "--model-config", str(seeded)) == 1
    err = capsys.readouterr().err
    assert "unknown keys ['seed']" in err and "valid keys" in err
    grid = tmp_path / "grid.cfg"
    grid.write_text("cells = full\n" + MODEL_CFG + "full.seed = 7\n", encoding="utf-8")
    assert main(["ablate", "--corpus", ws["manifest"], "--grid", str(grid),
                 "--out", str(tmp_path / "abl")]) == 1
    assert f"{grid}: cell full: unknown keys ['seed']" in capsys.readouterr().err


def test_train_resume_past_the_configured_epochs_fails(ws, tmp_path, capsys):
    """Resuming a 3-epoch model with a 1-epoch training config is one
    `error:` line naming both epoch counts, and writes no run record."""
    assert _train(ws, tmp_path, tmp_path / "three", 3) == 0
    capsys.readouterr()
    assert _train(ws, tmp_path, tmp_path / "one", 1, "--resume", str(tmp_path / "three")) == 1
    assert capsys.readouterr().err == (
        "error: cannot resume after epoch 3: the training config stops after 1 epochs\n")
    assert not (tmp_path / "one" / "manifest.json").exists()


def test_train_logs_each_new_epoch_without_quiet(ws, tmp_path, capsys):
    """Without --quiet, train prints one line per epoch it trains, with the
    loss and learning rate history.csv records, then its summary line; a
    resumed run logs only its new epochs. The log changes no output file."""
    model_cfg = ("--model-config", str(ws["root"] / "model.cfg"))

    def train(out, epochs, *extra):
        cfg = tmp_path / f"decay{epochs}.cfg"
        cfg.write_text(f"epochs = {epochs}\nbatch_size = 4\nlr = 0.05\nseed = 1\n"
                       "lr_decay_every = 2\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--corpus", ws["manifest"], "--train-config", str(cfg),
                     *extra, "--out", str(out)]) == 0
        with open(out / "history.csv", newline="") as fh:
            losses = [float(r["loss"]) for r in csv.DictReader(fh)]
        return capsys.readouterr().out.splitlines(), losses

    quiet, _ = train(tmp_path / "quiet", 3, *model_cfg, "--quiet")
    loud, losses = train(tmp_path / "loud", 3, *model_cfg)
    summary = f"final loss {losses[-1]:.6f}"
    assert quiet == [f"trained 3 epochs, {summary} -> {tmp_path / 'quiet'}"]
    assert loud == [f"epoch    0  loss {losses[0]:.6f}  lr 0.05",
                    f"epoch    1  loss {losses[1]:.6f}  lr 0.05",
                    f"epoch    2  loss {losses[2]:.6f}  lr 0.005",
                    f"trained 3 epochs, {summary} -> {tmp_path / 'loud'}"]
    assert _same_model(tmp_path / "quiet", tmp_path / "loud")
    train(tmp_path / "two", 2, *model_cfg, "--quiet")
    resumed, _ = train(tmp_path / "resumed", 3, "--resume", str(tmp_path / "two"))
    assert resumed == [loud[2], f"trained 1 epochs, {summary} -> {tmp_path / 'resumed'}"]
    assert _same_model(tmp_path / "loud", tmp_path / "resumed")


def test_train_resume_history_errors(ws, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(ws["model"], model)
    (model / "history.csv").write_text("epoch,loss,lr\n0,0.5,0.05\n1,bad,0.05\n", encoding="utf-8")
    assert _train(ws, tmp_path, tmp_path / "out", 4, "--resume", str(model)) == 1
    assert f"{model / 'history.csv'}:3: expected 'epoch,loss,lr'" in capsys.readouterr().err
    (model / "history.csv").unlink()
    assert _train(ws, tmp_path, tmp_path / "out", 4, "--resume", str(model)) == 1
    assert str(model / "history.csv") in capsys.readouterr().err
    # resuming into the resumed directory would delete its manifest first
    assert _train(ws, tmp_path, ws["model"], 4, "--resume", str(ws["model"])) == 1
    assert "--out must differ from --resume" in capsys.readouterr().err
    assert (ws["model"] / "manifest.json").exists()


@pytest.mark.parametrize("doc", ["[]", '{"inputs": 5}', '"train"'])
def test_train_resume_rejects_a_manifest_that_is_not_a_record(ws, tmp_path, capsys, doc):
    """A resumed directory's manifest.json that is valid JSON but not an
    object with an object `inputs` is one `error:` line naming the file."""
    model = tmp_path / "model"
    shutil.copytree(ws["model"], model)
    (model / "manifest.json").write_text(doc, encoding="utf-8")
    capsys.readouterr()
    assert _train(ws, tmp_path, tmp_path / "out", 4, "--resume", str(model)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model / 'manifest.json'}: ") and err.count("\n") == 1


def test_train_resume_with_embeddings(ws, tmp_path, capsys):
    emb = tmp_path / "vectors.txt"
    emb.write_text("before 0.1 0.2 0.3\nafter -0.1 0.0 0.2\n", encoding="utf-8")
    assert _train(ws, tmp_path, tmp_path / "straight", 4, "--embeddings", str(emb)) == 0
    assert _train(ws, tmp_path, tmp_path / "two", 2, "--embeddings", str(emb)) == 0
    doc = json.loads((tmp_path / "two" / "manifest.json").read_text(encoding="utf-8"))
    assert doc["inputs"]["embeddings"] == str(emb)
    two = str(tmp_path / "two")
    capsys.readouterr()
    assert _train(ws, tmp_path, tmp_path / "x", 4, "--resume", two) == 1
    err = capsys.readouterr().err
    assert "manifest.json names the embeddings input" in err and str(emb) in err
    other = tmp_path / "other.txt"
    other.write_text("before 0.1 0.2 0.3\nafter -0.1 0.0 0.25\n", encoding="utf-8")
    assert _train(ws, tmp_path, tmp_path / "x", 4, "--resume", two, "--embeddings", str(other)) == 1
    err = capsys.readouterr().err
    assert f"{other} does not match the vocab.json and checkpoint.bin lang.embed in {two}" in err
    assert _train(ws, tmp_path, tmp_path / "four", 4, "--resume", two, "--embeddings", str(emb)) == 0
    assert _same_model(tmp_path / "straight", tmp_path / "four")


def test_train_with_embeddings(ws, tmp_path, capsys):
    emb = tmp_path / "vectors.txt"
    emb.write_text("before 0.1 0.2 0.3\nafter -0.1 0.0 0.2\n", encoding="utf-8")
    out = tmp_path / "embedded"
    (tmp_path / "one.cfg").write_text(
        "epochs = 1\nbatch_size = 8\nseed = 1\n", encoding="utf-8",
    )
    assert main([
        "train", "--corpus", ws["manifest"],
        "--model-config", str(ws["root"] / "model.cfg"),
        "--train-config", str(tmp_path / "one.cfg"),
        "--embeddings", str(emb), "--quiet", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    cfg_text = (out / "model.cfg").read_text(encoding="utf-8")
    assert "vocab_size = 3" in cfg_text  # unk + the two pretrained tokens
    vocab = json.loads((out / "vocab.json").read_text(encoding="utf-8"))
    assert "before" in json.dumps(vocab)


def test_ablate_command(ws, tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text(
        "cells = ctx_global, ctx_pair\n"
        + MODEL_CFG
        + "ctx_global.context_mode = global\n"
        + "ctx_global.tef_mode = tef\n"
        + "ctx_pair.context_mode = before_after\n",
        encoding="utf-8",
    )
    (tmp_path / "one.cfg").write_text(
        "epochs = 1\nbatch_size = 8\nseed = 1\n", encoding="utf-8",
    )
    out = tmp_path / "ablation"
    assert main([
        "ablate", "--corpus", ws["manifest"], "--grid", str(grid),
        "--train-config", str(tmp_path / "one.cfg"), "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "ctx_global" in printed and "ctx_pair" in printed
    doc = json.loads((out / "ablation.json").read_text(encoding="utf-8"))
    assert [row["label"] for row in doc["rows"]] == ["ctx_global", "ctx_pair"]
    assert (out / "cells" / "ctx_global" / "checkpoint.bin").exists()
    assert (out / "cells" / "ctx_pair" / "model.cfg").exists()
    assert_run_record(out, "ablate")


def test_ablate_cells_resume(ws, tmp_path, capsys):
    grid = tmp_path / "grid.cfg"
    grid.write_text("cells = a\n" + MODEL_CFG, encoding="utf-8")
    (tmp_path / "one.cfg").write_text("epochs = 1\nbatch_size = 4\nlr = 0.05\nseed = 1\n",
                                      encoding="utf-8")
    assert main(["ablate", "--corpus", ws["manifest"], "--grid", str(grid),
                 "--train-config", str(tmp_path / "one.cfg"), "--out", str(tmp_path / "abl")]) == 0
    cell = tmp_path / "abl" / "cells" / "a"
    assert (cell / "history.csv").exists()
    assert _train(ws, tmp_path, tmp_path / "two", 2) == 0
    assert _train(ws, tmp_path, tmp_path / "resumed", 2, "--resume", str(cell)) == 0
    assert _same_model(tmp_path / "two", tmp_path / "resumed")


def test_failed_rerun_leaves_no_manifest(ws, tmp_path, capsys):
    """A rerun into the same --out that fails leaves no manifest.json, so the
    directory reads as incomplete instead of describing the first run."""
    grid = tmp_path / "grid.cfg"
    grid.write_text("cells = a, b\n" + MODEL_CFG, encoding="utf-8")
    (tmp_path / "one.cfg").write_text("epochs = 1\nbatch_size = 8\n", encoding="utf-8")
    out = tmp_path / "abl"

    def ablate(seed):
        return main(["ablate", "--corpus", ws["manifest"], "--grid", str(grid), "--seed", seed,
                     "--train-config", str(tmp_path / "one.cfg"), "--out", str(out)])

    assert ablate("1") == 0
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["inputs"]["seed"] == 1
    grid.write_text("cells = a, b\n" + MODEL_CFG + "b.visual_dim = 7\n", encoding="utf-8")
    assert ablate("2") == 1
    assert "ablation cell 'b'" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("cells", ["../../escaped", "a, ..", ".", "a,,b", "a/b", "a,"])
def test_ablate_rejects_cell_names_that_are_not_path_components(ws, tmp_path, capsys, cells):
    grid = tmp_path / "grid.cfg"
    grid.write_text(f"cells = {cells}\n" + MODEL_CFG, encoding="utf-8")
    (tmp_path / "one.cfg").write_text("epochs = 1\n", encoding="utf-8")
    out = tmp_path / "abl2" / "run"
    assert main(["ablate", "--corpus", ws["manifest"], "--grid", str(grid),
                 "--train-config", str(tmp_path / "one.cfg"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{grid}: cell name" in err and "is not a plain path component" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["abl2", "grid.cfg", "one.cfg", "run"]


def test_ablate_rejects_a_cell_listed_twice(ws, tmp_path, capsys):
    """Two cells of one name would train twice into one cells/ directory and
    report two rows of that name."""
    grid = tmp_path / "grid.cfg"
    grid.write_text("cells = a, b, a\n" + MODEL_CFG, encoding="utf-8")
    out = tmp_path / "abl"
    assert main(["ablate", "--corpus", ws["manifest"], "--grid", str(grid), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {grid}: cell name 'a' is listed twice\n"
    assert os.listdir(out) == []


def test_ablate_bad_grid(ws, tmp_path, capsys):
    grid = tmp_path / "nocells.cfg"
    grid.write_text(MODEL_CFG, encoding="utf-8")
    assert main([
        "ablate", "--corpus", ws["manifest"], "--grid", str(grid),
        "--out", str(tmp_path / "x"),
    ]) == 1
    assert "cells" in capsys.readouterr().err
    grid.write_text("cells =\n" + MODEL_CFG, encoding="utf-8")
    assert main([
        "ablate", "--corpus", ws["manifest"], "--grid", str(grid),
        "--out", str(tmp_path / "x"),
    ]) == 1
    assert capsys.readouterr().err == f"error: {grid}: empty cell list\n"


def test_ablate_failing_cell_names_it(ws, tmp_path, capsys):
    grid = tmp_path / "bad.cfg"
    grid.write_text(
        "cells = broken\n" + MODEL_CFG + "broken.visual_dim = 7\n", encoding="utf-8",
    )
    (tmp_path / "one.cfg").write_text("epochs = 1\nseed = 1\n", encoding="utf-8")
    assert main([
        "ablate", "--corpus", ws["manifest"], "--grid", str(grid),
        "--train-config", str(tmp_path / "one.cfg"), "--out", str(tmp_path / "y"),
    ]) == 1
    assert "ablation cell 'broken'" in capsys.readouterr().err


def _eval_fails_naming(tmp_path, capsys, corpus, model, name):
    code = main([
        "eval", "--corpus", str(corpus / "corpus.manifest"), "--model", str(model),
        "--out", str(tmp_path / "eval"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and name in err
    assert "Traceback" not in err
    return err


def _broken_queries(ws, tmp_path, edit):
    corpus = tmp_path / "corpus"
    shutil.copytree(ws["corpus"], corpus)
    path = corpus / "queries_test.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(edit(doc), encoding="utf-8")
    return corpus


def test_invalid_json_names_file_line_and_column(ws, tmp_path, capsys):
    corpus = _broken_queries(ws, tmp_path, lambda doc: "{\n  records\n")
    err = _eval_fails_naming(tmp_path, capsys, corpus, ws["model"], "queries_test.json")
    assert "queries_test.json:2:3: Expecting property name" in err


def test_non_integer_segment_names_file_and_record(ws, tmp_path, capsys):
    def edit(doc):
        doc["records"][1]["start_seg"] = "x"
        return json.dumps(doc)

    corpus = _broken_queries(ws, tmp_path, edit)
    err = _eval_fails_naming(tmp_path, capsys, corpus, ws["model"], "queries_test.json")
    assert "record 1: invalid literal for int()" in err


def test_list_record_names_file_and_record(ws, tmp_path, capsys):
    def edit(doc):
        doc["records"][2] = ["v", "a sentence", 0, 1]
        return json.dumps(doc)

    corpus = _broken_queries(ws, tmp_path, edit)
    err = _eval_fails_naming(tmp_path, capsys, corpus, ws["model"], "queries_test.json")
    assert "record 2: expected an object, got list" in err


def _set_field(index, key, value):
    def edit(doc):
        doc["records"][index][key] = value
        return json.dumps(doc)

    return edit


@pytest.mark.parametrize("value", [5, None, [1], {}])
def test_non_string_video_id_names_file_and_record(ws, tmp_path, capsys, value):
    corpus = _broken_queries(ws, tmp_path, _set_field(0, "video_id", value))
    err = _eval_fails_naming(tmp_path, capsys, corpus, ws["model"], "queries_test.json")
    assert f"record 0: video_id must be a string, got {value!r}" in err


@pytest.mark.parametrize("key, value, shown", [
    ("end_seg", 5.99, "end_seg: 5.99"),
    ("start_seg", True, "start_seg: True"),
    ("ctx_regions", [[4.9, 5.2]], "ctx_regions: 4.9"),
])
def test_fractional_or_boolean_segment_names_key_and_value(ws, tmp_path, capsys, key, value, shown):
    corpus = _broken_queries(ws, tmp_path, _set_field(1, key, value))
    err = _eval_fails_naming(tmp_path, capsys, corpus, ws["model"], "queries_test.json")
    assert f"queries_test.json: record 1: {shown} is not a whole segment index" in err


@pytest.mark.parametrize("key, value, shown", [
    ("end_seg", 99, "moment Moment(start_seg=1, end_seg=99) exceeds video with 4 segments"),
    ("ctx_regions", [[0, 0], [2, 9]], "context Moment(start_seg=2, end_seg=9) exceeds video "
                                      "with 4 segments"),
])
def test_out_of_range_annotation_names_file_and_record(ws, tmp_path, capsys, key, value, shown):
    def edit(doc):
        doc["records"][0].update(start_seg=1, end_seg=1)
        doc["records"][0][key] = value
        return json.dumps(doc)

    corpus = _broken_queries(ws, tmp_path, edit)
    err = _eval_fails_naming(tmp_path, capsys, corpus, ws["model"], "queries_test.json")
    assert f"queries_test.json: record 0: {shown}" in err


ANNOTATION_FIELDS = ("video_id", "sentence", "start_seg", "end_seg", "temporal_word",
                     "ctx_regions", "context_sentence")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.integers() | st.floats()
    | st.text(max_size=8) | st.sampled_from(("before", "after", "then", "while", "none")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5,
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), key=st.sampled_from(ANNOTATION_FIELDS))
def test_any_json_value_in_an_annotation_field_fails_cleanly(ws, tmp_path, data, key):
    """Whatever JSON value an annotation field holds, `eval` either runs or
    exits 1 with one `error:` line naming the file and the record."""
    corpus = tmp_path / "corpus"
    if not corpus.exists():
        shutil.copytree(ws["corpus"], corpus)
    path = corpus / "queries_test.json"
    doc = json.loads((ws["corpus"] / "queries_test.json").read_text(encoding="utf-8"))
    index = data.draw(st.integers(0, len(doc["records"]) - 1), label="record")
    videos = sorted({rec["video_id"] for rec in doc["records"]})
    doc["records"][index][key] = data.draw(JSON_VALUES | st.sampled_from(videos), label="value")
    path.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([
            "eval", "--corpus", str(corpus / "corpus.manifest"), "--model", str(ws["model"]),
            "--context-delta", "--fragment-eval", "--out", tempfile.mkdtemp(dir=tmp_path),
        ])
    if code != 0:
        assert code == 1
        assert err.getvalue().startswith(f"error: {path}: record {index}: ")
        assert err.getvalue().count("\n") == 1


def test_vocabulary_without_tokens_names_file(ws, tmp_path, capsys):
    model = tmp_path / "model"
    shutil.copytree(ws["model"], model)
    (model / "vocab.json").write_text('{"schema": 1}\n', encoding="utf-8")
    _eval_fails_naming(tmp_path, capsys, ws["corpus"], model, "vocab.json")


@pytest.mark.parametrize("header, fault", [
    ((1, 1, b"a", 2**61), "truncated checkpoint {path!r}"),  # rank
    ((1, 2**62), "truncated checkpoint {path!r}"),  # name length
    ((1, 1, b"a", 2, 2**40, 2**40), "truncated checkpoint {path!r}"),  # dims
    ((1, 1, b"\xff", 0, b"\0" * 8), "{path!r}: a tensor name is not UTF-8"),
    ((2, 1, b"a", 0, b"\0" * 8, 1, b"a", 0, b"\0" * 8), "{path!r}: tensor 'a' appears twice"),
], ids=["rank", "name_length", "dims", "name_not_utf8", "repeated_name"])
def test_malformed_checkpoint_header_names_the_checkpoint(ws, tmp_path, capsys, header, fault):
    """A checkpoint header whose lengths run past the end of the file, whose
    element count overflows 64 bits, whose tensor name is not UTF-8, or that
    names one tensor twice fails `eval` with one `error:` line naming the
    checkpoint, before any length is read or allocated. The header starts
    with the tensor count."""
    model = tmp_path / "model"
    shutil.copytree(ws["model"], model)
    path = model / "checkpoint.bin"
    path.write_bytes(b"MLLC1" + b"".join(
        field if isinstance(field, bytes) else struct.pack("<Q", field) for field in header))
    capsys.readouterr()
    err = _eval_fails_naming(tmp_path, capsys, ws["corpus"], model, "checkpoint.bin")
    assert err == f"error: {fault.format(path=str(path))}\n"


def _replace_tensors(model, **tensors):
    path = str(model / "checkpoint.bin")
    save_checkpoint(path, {**load_checkpoint(path), **tensors})


def _narrow_visual_out_dim(model):
    cfg = model / "model.cfg"
    cfg.write_text(cfg.read_text(encoding="utf-8").replace("visual_out_dim = 3", "visual_out_dim = 2"),
                   encoding="utf-8")


@pytest.mark.parametrize("edit, fault", [
    (lambda model: _replace_tensors(model, **{"lang.b": np.full(16, np.nan)}),
     "{checkpoint}: tensor 'lang.b' holds a non-finite value\n"),
    (_narrow_visual_out_dim, "{checkpoint} vs {cfg}: checkpoint/config shape mismatch: "),
    (lambda model: _replace_tensors(model, extra=np.zeros(2)),
     "{checkpoint} vs {cfg}: checkpoint does not match config: missing [], unexpected ['extra']\n"),
], ids=["non_finite", "shape", "extra_tensor"])
def test_checkpoint_that_the_model_cannot_use_names_the_checkpoint(ws, tmp_path, capsys, edit, fault):
    """A tensor with a NaN names the checkpoint and the tensor; a checkpoint
    whose tensors do not fit `model.cfg` names both files."""
    model = tmp_path / "model"
    shutil.copytree(ws["model"], model)
    edit(model)
    capsys.readouterr()
    err = _eval_fails_naming(tmp_path, capsys, ws["corpus"], model, "checkpoint.bin")
    assert err.startswith("error: " + fault.format(checkpoint=model / "checkpoint.bin",
                                                   cfg=model / "model.cfg"))


def test_vocabulary_that_disagrees_with_vocab_size_names_both_files(ws, tmp_path, capsys):
    """A `vocab.json` that lost a token would shift every later token's id
    by one; `eval` rejects it against `model.cfg`'s `vocab_size`."""
    model = tmp_path / "model"
    shutil.copytree(ws["model"], model)
    doc = json.loads((model / "vocab.json").read_text(encoding="utf-8"))
    size = len(doc["tokens"]) + 1
    doc["tokens"] = doc["tokens"][1:]
    (model / "vocab.json").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    err = _eval_fails_naming(tmp_path, capsys, ws["corpus"], model, "vocab.json")
    assert err == (f"error: {model / 'vocab.json'} holds {size - 1} token ids, counting the "
                   f"unknown token, but {model / 'model.cfg'} sets vocab_size = {size}\n")


def test_version_and_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "momentloc 0.1.0\n"
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "the following arguments are required: command" in capsys.readouterr().err
