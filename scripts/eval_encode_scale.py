"""Query encoding of one video: per-query `encode_query` against one stack.

    python3 scripts/eval_encode_scale.py

For 4, 8 and 12 texts (a video's sentences and context fragments, 1 to 6
tokens each) it times encoding them one `encode_query` call at a time, as a
ranking of each query alone does, against one `encode_queries` call plus a
`take_row` per text, as the evaluation walk does. The model has the
benchmark's language dimensions (12-wide embeddings, 24 LSTM units, a 24-wide
joint space). It also builds each stack on a recording tape, runs a
backward from the stack's sum, prints the nodes that tape holds and times
that build and backward, as a training batch runs them. The times, medians
of 7 rounds in ms per video, describe the machine it runs on and are not a
check. The script exits 1 unless every row of the stack equals its text's
own encoding, and the recording tape's stack the inference tape's, bit for
bit.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from momentloc.autodiff import Tape, backward  # noqa: E402
from momentloc.encoders import encode_queries, encode_query  # noqa: E402
from momentloc.model import ModelConfig, init_params  # noqa: E402

VOCAB = 40
ROUNDS, CALLS = 7, 50


def per_call_ms(run) -> float:
    rounds = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for _ in range(CALLS):
            run()
        rounds.append((time.perf_counter() - started) / CALLS * 1e3)
    return statistics.median(rounds)


def main() -> int:
    rng = np.random.default_rng(0)
    cfg = ModelConfig(modalities=("rgb",), embed_dim=12, lstm_hidden=24, joint_dim=24,
                      vocab_size=VOCAB)
    params = init_params(cfg, rng)
    failed = False
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
        failed |= not (same and replayed)
        one = per_call_ms(lambda: alone(Tape(recording=False)))
        many = per_call_ms(lambda: stacked(Tape(recording=False)))
        print(f"{n_texts:>6} {one:>13.2f} {many:>11.2f} {one / many:>8.1f}x  "
              f"{'identical' if same else 'DIFFER':<9} {len(recording.nodes):>5}  "
              f"{'identical' if replayed else 'DIFFER':<9} {per_call_ms(recorded):>18.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
