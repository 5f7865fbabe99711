"""Check that this tree's package writes the same bytes as another checkout's.

    python3 scripts/byte_identity.py BASE_SRC

BASE_SRC is the `src` directory of another checkout of the repository, for
example a `git worktree` of the commit a change is based on. The script runs
one fixed recipe with each side's package, each side in its own temporary
directory:

- `gen` of a 30 + 12 video corpus with `queries_per_video = 4`, and with
  `ctx_alias_prob` and `mix_then` set;
- a 2-epoch `train` of a small model with latent, global and before_after
  contexts, each with weak and with strong context supervision, and of a
  TALL-like (`before_after`/`none`/`tall_sim`/`tall`) and an MCN-like
  (`global`/`tef`/`distance`) model, and of the latent weak model with
  `--embeddings` of a file of fixed vectors, which freezes `lang.embed`;
- `eval` of each model in both modes, with `--context-delta --fragment-eval
  --baseline-prior`;
- `inspect --top 30` with each model: of three test queries without a stored
  context, and in `--mode gt_context` of three with one;
- `train --resume` of the first model for one more epoch;
- a two-cell `ablate`;
- `gen --compose` on the train annotations, and `stats --annotations ...
  --out` on the test annotations.

Every command runs as `python -m momentloc` under the warning options this
script was given, from its side's directory and with relative paths, so what
it prints is compared as well. The script prints one line per difference
and exits 1 if a command fails, if what a command prints or its exit code
differs, or if a written file differs or exists on one side only.
`timing.json` (wall time) and `manifest.json` (the run record) are not
compared.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE_SRC = Path(__file__).resolve().parent.parent / "src"
NOT_COMPARED = {"timing.json", "manifest.json"}

GEN_CFG = """\
n_train_videos = 30
n_test_videos = 12
n_segments = 6
feature_dim = 6
queries_per_video = 4
mix_then = 0.2
ctx_alias_prob = 0.2
seed = 3
"""
MODEL_CFG = """\
visual_dim = 6
mlp_hidden = 6
visual_out_dim = 5
embed_dim = 4
lstm_hidden = 5
joint_dim = 5
sim_hidden = 4
"""
TRAIN_CFG = """\
epochs = 2
batch_size = 16
lr = 0.05
seed = 1
"""
RESUME_CFG = TRAIN_CFG.replace("epochs = 2", "epochs = 3")
GRID_CFG = "cells = latent,global\n" + MODEL_CFG + "latent.context_mode = latent\n" \
    "global.context_mode = global\n"
# model name -> the lines its config adds to MODEL_CFG
MODELS = {f"{mode}_{supervision}": f"context_mode = {mode}\ncontext_supervision = {supervision}\n"
          for mode in ("latent", "global", "before_after") for supervision in ("weak", "strong")}
MODELS["tall"] = "context_mode = before_after\ntef_mode = none\nsimilarity = tall_sim\nloss = tall\n"
MODELS["mcn"] = "context_mode = global\ntef_mode = tef\nsimilarity = distance\n"
MODELS["embedded"] = MODELS["latent_weak"]  # trained with --embeddings embeddings.txt
# fixed 4-d vectors for the event tokens and the temporal words; the alt
# tokens are left out, so they read the unknown token's zero row
EMBEDDINGS = "".join(
    f"{token} " + " ".join(f"{((3 * i + 5 * j) % 11 - 5) / 8:g}" for j in range(4)) + "\n"
    for i, token in enumerate([f"ev{k:03d}" for k in range(30)] + ["before", "after", "then", "while"]))
EVAL_MODES = ("latent", "gt_context")
INSPECTED = (0, 2, 5)
PINNED_INSPECTED = (3, 7, 8)  # test queries that store a context


def recipe() -> list[list[str]]:
    """The command lines, in order, relative to a side's directory."""
    manifest = "corpus/corpus.manifest"
    commands = [["gen", "--config", "gen.cfg", "--out", "corpus"]]
    for name in MODELS:
        model = f"models/{name}"
        embeddings = ["--embeddings", "embeddings.txt"] if name == "embedded" else []
        commands.append(["train", "--corpus", manifest, "--model-config", f"{model}.cfg",
                         "--train-config", "train.cfg", *embeddings, "--out", model])
        for eval_mode in EVAL_MODES:
            commands.append(["eval", "--corpus", manifest, "--model", model, "--mode", eval_mode,
                             "--context-delta", "--fragment-eval", "--baseline-prior",
                             "--out", f"evals/{name}_{eval_mode}"])
        commands.extend(["inspect", "--corpus", manifest, "--model", model, "--query", str(q),
                         "--top", "30"] for q in INSPECTED)
        commands.extend(["inspect", "--corpus", manifest, "--model", model, "--query", str(q),
                         "--mode", "gt_context", "--top", "30"] for q in PINNED_INSPECTED)
    return commands + [
        ["train", "--corpus", manifest, "--resume", "models/latent_weak",
         "--train-config", "resume.cfg", "--out", "resumed"],
        ["ablate", "--corpus", manifest, "--grid", "grid.cfg", "--train-config", "train.cfg",
         "--out", "ablation"],
        ["gen", "--compose", "corpus/queries_train.json", "--out", "composed"],
        ["stats", "--annotations", "corpus/queries_test.json", "--out", "stats"],
    ]


def run_side(src: Path, root: Path) -> list[tuple[int, str, str]]:
    """Write the config files under `root` and run the recipe there with the
    package under `src`; each command's exit code, stdout and stderr."""
    (root / "models").mkdir(parents=True)
    (root / "gen.cfg").write_text(GEN_CFG, encoding="utf-8")
    for name, text in (("train.cfg", TRAIN_CFG), ("resume.cfg", RESUME_CFG), ("grid.cfg", GRID_CFG),
                       ("embeddings.txt", EMBEDDINGS),
                       *((f"models/{model}.cfg", MODEL_CFG + lines) for model, lines in MODELS.items())):
        (root / name).write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    python = [sys.executable, *(f"-W{option}" for option in sys.warnoptions), "-m", "momentloc"]
    results = []
    for command in recipe():
        done = subprocess.run([*python, *command], cwd=root, env=env, capture_output=True, text=True)
        results.append((done.returncode, done.stdout, done.stderr))
    return results


def files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name not in NOT_COMPARED}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "momentloc").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("BASE_SRC must be a directory that holds the momentloc package", file=sys.stderr)
        return 2
    differences = []
    with tempfile.TemporaryDirectory() as tmp:
        base_root, here_root = Path(tmp) / "base", Path(tmp) / "here"
        base_runs = run_side(Path(argv[0]), base_root)
        here_runs = run_side(HERE_SRC, here_root)
        for command, base, here in zip(recipe(), base_runs, here_runs):
            line = " ".join(command)
            for side, (code, _, err) in (("base", base), ("here", here)):
                if code != 0:
                    differences.append(f"{side}: `{line}` exited {code}: {err.strip()}")
            if base != here:
                differences.append(f"`{line}` printed different text or exited differently")
        base_files, here_files = files(base_root), files(here_root)
        for name in sorted(set(base_files) | set(here_files)):
            if name not in base_files or name not in here_files:
                differences.append(f"{name}: written on one side only")
            elif base_files[name] != here_files[name]:
                differences.append(f"{name}: differs")
    for difference in differences:
        print(difference)
    print(f"{len(recipe())} commands and {len(here_files)} files compared: "
          + (f"{len(differences)} differences" if differences else "every output identical"))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
