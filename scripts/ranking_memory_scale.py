"""Memory and time of one cold latent ranking, and its warm repeat.

    python3 scripts/ranking_memory_scale.py

For videos of 6 segments (rgb), 8 and 12 segments (rgb + flow) it ranks one
query with `rank_moments` on a fresh inference tape, as `momentloc inspect`
does, with the benchmark's model (latent contexts, contef endpoint
features, normalized_mult similarity, 16-wide features, 32 hidden units,
24-wide visual and joint spaces). It prints the `tracemalloc` peak of one
cold ranking in KB, after a first ranking has built the per-length tables,
and the median ms of 21 cold rankings. The sizes and times describe the
machine and the numpy build it runs on and are not a check; the script exits
1 unless a second, warm ranking on the same tape reads the first one's
entry in `tape.memo` and gives the same moments, scores and chosen contexts
as the cold one, bit for bit.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from momentloc.autodiff import Tape  # noqa: E402
from momentloc.dataset import TemporalQuery  # noqa: E402
from momentloc.encoders import SegmentFeatureTable, Vocabulary  # noqa: E402
from momentloc.evaluation import rank_moments  # noqa: E402
from momentloc.model import ModelBundle, ModelConfig, init_params  # noqa: E402
from momentloc.temporal import Moment  # noqa: E402

ROUNDS = 21
CASES = ((6, ("rgb",)), (8, ("rgb", "flow")), (12, ("rgb", "flow")))
MODEL = dict(context_mode="latent", tef_mode="contef", similarity="normalized_mult",
             visual_dim=16, mlp_hidden=32, visual_out_dim=24, embed_dim=12,
             lstm_hidden=24, joint_dim=24, sim_hidden=24)


def triples(ranking):
    return [(s.moment, s.score, s.chosen_context) for s in ranking]


def main() -> int:
    rng = np.random.default_rng(0)
    query = TemporalQuery("v0", "The dog runs before the cat sits.", Moment(1, 2), "before")
    vocab = Vocabulary.from_token_lists([query.tokens])
    failed = False
    print(f"{'segments':>8} {'modalities':>10} {'peak KB':>8} {'cold ms':>8}  warm repeat")
    for n, modalities in CASES:
        cfg = ModelConfig(modalities=modalities, vocab_size=vocab.size, **MODEL)
        bundle = ModelBundle(cfg, init_params(cfg, rng), vocab)
        video = {m: SegmentFeatureTable("v0", m, rng.normal(size=(n, cfg.visual_dim)))
                 for m in modalities}
        rank_moments(video, query, bundle)  # builds the tables of length n
        tracemalloc.start()
        rank_moments(video, query, bundle)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        times = []
        for _ in range(ROUNDS):
            started = time.perf_counter()
            rank_moments(video, query, bundle)
            times.append((time.perf_counter() - started) * 1e3)
        tape = Tape(recording=False)
        cold = rank_moments(video, query, bundle, tape=tape)
        warm = rank_moments(video, query, bundle, tape=tape)
        same = triples(cold) == triples(warm) and len(tape.memo) == 1
        failed |= not same
        print(f"{n:>8} {'+'.join(modalities):>10} {peak / 1024:>8.0f} "
              f"{statistics.median(times):>8.2f}  {'identical' if same else 'DIFFERS'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
