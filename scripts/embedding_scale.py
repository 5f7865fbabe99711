"""Step time and peak memory of training with a large embedding, frozen
and trainable.

    python3 scripts/embedding_scale.py [TOKENS ...]

For each vocabulary size (by default 1000, 50000 and 200000 rows) a fresh
subprocess builds a synthetic (rows, 300) embedding matrix in memory, laid
out as `train --embeddings` loads one: row 0 the zero unknown vector, then
the corpus's words, then filler tokens. It trains the default model on a
synthetic corpus of 30 videos with batch 16 for five epochs, the first a
warm-up, and saves the model. A second fresh subprocess runs `load_model`
on it. A third trains the same model with the same vocabulary and a
trainable `lang.embed` of that size, drawn by `init_params`. The script
prints the mean ms per step of the last four epochs and the peak RSS of
each subprocess. BLAS runs on one thread, as in the benchmark. The figures
describe the machine and are not a check; the script exits 1 unless the
frozen `lang.embed`, after training and after the load, equals the matrix
it was given, and the trainable one's filler rows, which no query reads,
equal their initial draw, bit for bit, while every corpus word's row moved.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from momentloc.dataset import SyntheticCorpusConfig, generate_synthetic  # noqa: E402
from momentloc.encoders import Vocabulary  # noqa: E402
from momentloc.model import ModelConfig, init_params, load_model, save_model  # noqa: E402
from momentloc.trainer import TrainConfig, train  # noqa: E402

SIZES = (1000, 50000, 200000)
EMBED_DIM = 300
BATCH = 16
EPOCHS = 5


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_train(rows: int, embedding: np.ndarray | None = None) -> tuple:
    """Train on the synthetic corpus with a vocabulary of `rows` tokens, its
    words first; the trained bundle, the number of corpus words and the
    figures of the run."""
    corpus = generate_synthetic(SyntheticCorpusConfig(n_train_videos=30, n_test_videos=0)).train
    words = Vocabulary.from_token_lists(q.tokens for q in corpus.queries).tokens
    vocab = Vocabulary(list(words) + [f"filler{k}" for k in range(rows - 1 - len(words))])
    marks: list[float] = []
    bundle, _ = train(corpus, ModelConfig(embed_dim=EMBED_DIM),
                      TrainConfig(epochs=EPOCHS, batch_size=BATCH),
                      vocab=vocab, embedding=embedding, log=lambda _: marks.append(time.perf_counter()))
    steps = (EPOCHS - 1) * math.ceil(len(corpus.queries) / BATCH)
    return bundle, len(words), {"ms_per_step": (marks[-1] - marks[0]) * 1e3 / steps,
                                "peak_rss_mb": peak_rss_mb()}


def one(rows: int, model_dir: str) -> dict:
    """Train with a frozen (rows, EMBED_DIM) embedding and save the model to
    `model_dir`; the figures of the run."""
    matrix = np.random.default_rng(0).uniform(-0.5, 0.5, size=(rows, EMBED_DIM))
    matrix[0] = 0.0
    digest = hashlib.sha256(matrix.data).hexdigest()
    bundle, _, res = timed_train(rows, matrix)
    res["digest"] = digest
    res["unchanged"] = hashlib.sha256(bundle.params["lang.embed"].value.data).hexdigest() == digest
    save_model(model_dir, bundle)
    return res


def trainable(rows: int) -> dict:
    """Train with a trainable (rows, EMBED_DIM) embedding; the figures of the
    run, whether the filler rows still hold their initial draw, redrawn as
    `train` draws it, and whether every corpus word's row moved."""
    bundle, n_words, res = timed_train(rows)
    embed = bundle.params["lang.embed"].value
    initial = init_params(bundle.config, np.random.default_rng(TrainConfig.seed))["lang.embed"].value
    fillers, words = slice(1 + n_words, None), slice(1, 1 + n_words)
    res["fillers_unchanged"] = embed[fillers].tobytes() == initial[fillers].tobytes()
    res["words_moved"] = bool((embed[words] != initial[words]).any(axis=1).all())
    return res


def load(model_dir: str) -> dict:
    """Load the saved model; the peak RSS and the digest of `lang.embed`."""
    embed = load_model(model_dir).params["lang.embed"].value
    return {"peak_rss_mb": peak_rss_mb(), "digest": hashlib.sha256(embed.data).hexdigest()}


def run_json(*args: str) -> dict | None:
    """The last stdout line of a fresh subprocess of this script, parsed."""
    run = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True)
    if run.returncode:
        sys.stderr.write(run.stderr)
        return None
    return json.loads(run.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(one(int(argv[1]), argv[2])))
        return 0
    if argv[:1] == ["--load"]:
        print(json.dumps(load(argv[1])))
        return 0
    if argv[:1] == ["--trainable"]:
        print(json.dumps(trainable(int(argv[1]))))
        return 0
    failed = False
    print(f"{'':>8} {'frozen':<47} trainable")
    print(f"{'tokens':>8} {'ms/step':>8} {'train RSS MB':>13} {'load RSS MB':>12}  {'lang.embed':<10} "
          f"{'ms/step':>8} {'RSS MB':>7}  rows")
    for rows in [int(a) for a in argv] or SIZES:
        with tempfile.TemporaryDirectory() as model_dir:
            res = run_json("--one", str(rows), model_dir)
            loaded = res and run_json("--load", model_dir)
        learned = loaded and run_json("--trainable", str(rows))
        if not learned:
            return 1
        ok = res["unchanged"] and loaded["digest"] == res["digest"]
        rows_ok = learned["fillers_unchanged"] and learned["words_moved"]
        failed |= not (ok and rows_ok)
        print(f"{rows:>8} {res['ms_per_step']:>8.1f} {res['peak_rss_mb']:>13.0f} "
              f"{loaded['peak_rss_mb']:>12.0f}  {'unchanged' if ok else 'CHANGED':<10} "
              f"{learned['ms_per_step']:>8.1f} {learned['peak_rss_mb']:>7.0f}  "
              f"{'ok' if rows_ok else 'WRONG'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
