"""Memory and build time of the latent candidate table at n = 8, 16 and 24.

    python3 scripts/candidate_table_scale.py

For each segment count it builds `model._candidate_table("latent", n)` from
empty caches twice: once under `tracemalloc`, to report the memory the table
and the caches it fills hold afterwards, and once untraced, to report the
build time. It takes no options and only prints; the numbers describe the
machine it runs on, so they are not a pass/fail check.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from momentloc import model, temporal  # noqa: E402

CACHES = (model._candidate_table, temporal._single_contexts, temporal.moments_of)


def build(n: int) -> None:
    for cache in CACHES:
        cache.cache_clear()
    model._candidate_table("latent", n)


def main() -> None:
    print(f"{'n':>3} {'moments':>8} {'pairs':>8} {'memory MB':>10} {'build s':>8}")
    for n in (8, 16, 24):
        tracemalloc.start()
        build(n)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        started = time.perf_counter()
        build(n)
        seconds = time.perf_counter() - started
        moments = n * (n + 1) // 2
        print(f"{n:>3} {moments:>8} {moments * moments:>8} {held / 1e6:>10.2f} {seconds:>8.3f}")


if __name__ == "__main__":
    main()
