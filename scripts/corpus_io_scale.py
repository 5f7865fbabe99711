"""Write and read time of a feature file at 100, 1,500 and 5,000 videos.

    python3 scripts/corpus_io_scale.py

For each corpus size it draws one table of 6 segments x 16 normal values per
video (the shape of the benchmark corpora), times `save_features` and
`load_features` on it in a temporary directory, and prints the file size.
The times describe the machine it runs on and are not a check; the script
exits 1 unless saving the loaded tables again reproduces the file byte for
byte, or if a loaded table differs from the one written.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from momentloc.encoders import SegmentFeatureTable, load_features, save_features  # noqa: E402


def main() -> int:
    rng = np.random.default_rng(0)
    failed = False
    print(f"{'videos':>7} {'file MB':>8} {'write s':>8} {'read s':>8}  round trip")
    with tempfile.TemporaryDirectory() as tmp:
        first, again = os.path.join(tmp, "features.txt"), os.path.join(tmp, "again.txt")
        for n_videos in (100, 1500, 5000):
            tables = {
                f"vid{i:05d}": SegmentFeatureTable(f"vid{i:05d}", "rgb", rng.normal(size=(6, 16)))
                for i in range(n_videos)
            }
            started = time.perf_counter()
            save_features(first, tables)
            written = time.perf_counter() - started
            started = time.perf_counter()
            loaded = load_features(first, "rgb")
            read = time.perf_counter() - started
            save_features(again, loaded)
            with open(first, "rb") as a, open(again, "rb") as b:
                same = a.read() == b.read() and all(
                    np.array_equal(loaded[vid].features, t.features) for vid, t in tables.items()
                )
            failed |= not same
            size = os.path.getsize(first) / 1e6
            print(f"{n_videos:>7} {size:>8.2f} {written:>8.3f} {read:>8.3f}  "
                  f"{'identical' if same else 'DIFFERS'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
