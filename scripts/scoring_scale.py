"""The scoring read path at scale: candidate tables, query stacks, cold rankings.

    python3 scripts/scoring_scale.py

It takes no options and prints three tables. Every model has the benchmark's
dimensions (latent contexts, contef endpoint features, normalized_mult
similarity, 16-wide features, 32 hidden units, 24-wide visual and joint
spaces, 12-wide embeddings, 24 LSTM units), and each section draws from its
own `default_rng(0)`. Sizes and times describe the machine and the numpy
build it runs on and are not a check.

1. Candidate tables. For n = 8, 16 and 24 segments it builds
   `model._candidate_table("latent", n)` from empty caches twice: under
   `tracemalloc`, for the memory the table and the caches it fills hold
   afterwards, and untraced, for the build time.
2. Query stacks. For 4, 8 and 12 texts (a video's sentences and context
   fragments, 1 to 6 tokens each) it times encoding them one `encode_query`
   call at a time, as a ranking of each query alone does, against one
   `encode_queries` call plus a `take_row` per text, as the evaluation walk
   does. It also builds each stack on a recording tape and runs a backward
   from the stack's sum, as a training batch does, and prints the nodes that
   tape holds and the time of that build and backward. Times are medians of
   7 rounds in ms per video.
3. Cold rankings. For videos of 6 segments (rgb) and of 8, 12, 16 and 24
   segments (rgb + flow) it ranks one query with `rank_moments` on a fresh
   inference tape, as `momentloc inspect` does. It prints the `tracemalloc`
   peak of one cold ranking in KB, after a first ranking has built the
   per-length tables, and the median ms of 21 cold rankings.

The script exits 1 unless every row of each stack equals its text's own
encoding and the recording tape's stack the inference tape's, and unless a
second, warm ranking on the same tape reads the first one's entry in
`tape.memo` and gives the same moments, scores and chosen contexts as the
cold one, all bit for bit.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from momentloc import model, temporal  # noqa: E402
from momentloc.autodiff import Tape, backward  # noqa: E402
from momentloc.dataset import TemporalQuery  # noqa: E402
from momentloc.encoders import (  # noqa: E402
    SegmentFeatureTable, Vocabulary, encode_queries, encode_query)
from momentloc.evaluation import rank_moments  # noqa: E402
from momentloc.model import ModelBundle, ModelConfig, init_params  # noqa: E402

MODEL = dict(context_mode="latent", tef_mode="contef", similarity="normalized_mult",
             visual_dim=16, mlp_hidden=32, visual_out_dim=24, embed_dim=12,
             lstm_hidden=24, joint_dim=24, sim_hidden=24)
VOCAB = 40
CASES = ((6, ("rgb",)), (8, ("rgb", "flow")), (12, ("rgb", "flow")), (16, ("rgb", "flow")),
         (24, ("rgb", "flow")))


def median_ms(run, rounds: int, calls: int = 1) -> float:
    """Median over `rounds` of the mean ms of `calls` calls of `run`."""
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(calls):
            run()
        times.append((time.perf_counter() - started) / calls * 1e3)
    return statistics.median(times)


def candidate_tables() -> None:
    def build(n: int) -> None:
        for cache in (model._candidate_table, temporal._single_contexts, temporal.moments_of):
            cache.cache_clear()
        model._candidate_table("latent", n)

    print(f"{'n':>3} {'moments':>8} {'pairs':>8} {'memory MB':>10} {'build s':>8}")
    for n in (8, 16, 24):
        tracemalloc.start()
        build(n)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        seconds = median_ms(lambda: build(n), 1) / 1e3
        moments = n * (n + 1) // 2
        print(f"{n:>3} {moments:>8} {moments * moments:>8} {held / 1e6:>10.2f} {seconds:>8.3f}")


def query_stacks() -> bool:
    rng = np.random.default_rng(0)
    params = init_params(ModelConfig(modalities=("rgb",), vocab_size=VOCAB, **MODEL), rng)
    all_same = True
    print(f"{'texts':>6} {'per query ms':>13} {'stacked ms':>11} {'speed-up':>9}  {'rows':<9} "
          f"{'nodes':>5}  {'recording':<9} {'record+backward ms':>18}")
    for n_texts in (4, 8, 12):
        texts = [rng.integers(1, VOCAB, size=rng.integers(1, 7)).tolist() for _ in range(n_texts)]

        def alone(tape):
            return [encode_query(tape, ids, params) for ids in texts]

        def stacked(tape):
            stack = encode_queries(tape, texts, params)
            return [tape.take_row(stack, row) for row in range(n_texts)]

        def recorded():
            tape = Tape()
            stack = encode_queries(tape, texts, params)
            backward(tape, tape.sum_all(stack))
            return tape, stack

        tape = Tape(recording=False)
        same = all(np.array_equal(a.value, s.value)
                   for a, s in zip(alone(tape), stacked(tape), strict=True))
        recording, stack = recorded()
        replayed = stack.value.tobytes() == encode_queries(tape, texts, params).value.tobytes()
        all_same &= same and replayed
        one = median_ms(lambda: alone(Tape(recording=False)), 7, 50)
        many = median_ms(lambda: stacked(Tape(recording=False)), 7, 50)
        print(f"{n_texts:>6} {one:>13.2f} {many:>11.2f} {one / many:>8.1f}x  "
              f"{'identical' if same else 'DIFFER':<9} {len(recording.nodes):>5}  "
              f"{'identical' if replayed else 'DIFFER':<9} {median_ms(recorded, 7, 50):>18.2f}")
    return all_same


def triples(ranking):
    return [(s.moment, s.score, s.chosen_context) for s in ranking]


def cold_rankings() -> bool:
    rng = np.random.default_rng(0)
    query = TemporalQuery("v0", "The dog runs before the cat sits.", temporal.Moment(1, 2),
                          "before")
    vocab = Vocabulary.from_token_lists([query.tokens])
    all_same = True
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
        cold_ms = median_ms(lambda: rank_moments(video, query, bundle), 21)
        tape = Tape(recording=False)
        cold = rank_moments(video, query, bundle, tape=tape)
        warm = rank_moments(video, query, bundle, tape=tape)
        same = triples(cold) == triples(warm) and len(tape.memo) == 1
        all_same &= same
        print(f"{n:>8} {'+'.join(modalities):>10} {peak / 1024:>8.0f} "
              f"{cold_ms:>8.2f}  {'identical' if same else 'DIFFERS'}")
    return all_same


def main() -> int:
    candidate_tables()
    print()
    stacks_same = query_stacks()
    print()
    rankings_same = cold_rankings()
    return 0 if stacks_same and rankings_same else 1


if __name__ == "__main__":
    sys.exit(main())
