"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --workloads latent_weak,global_wide --seeds 1-10
    python3 perfbench/repeat.py --seeds 1-10 --trace 1

Runs one seed at a time, so runs never compete for the CPU. For each metric
it prints the median, the quartiles (`statistics.quantiles(n=4)`) and the
spread, the interquartile distance as a share of the median. With saved
results of both kinds for the same seeds it also prints the tracing overhead:
the median change of each end-to-end metric in the traced run against the
untraced run of the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR.parent / ".perfbench-out"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load(workload: str, seed: int, trace: int) -> dict | None:
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text()) if path.exists() else None


def stats(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:12.4f}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return f"{med:12.4f} {q1:12.4f} {q3:12.4f} {100 * spread:7.1f}%"


def summarise(workload: str, seeds: list[int], trace: int) -> None:
    runs = [r for r in (load(workload, s, trace) for s in seeds) if r]
    if not runs:
        return
    failed = {r["seed"]: (r["failed"], r["attempted"]) for r in runs if r["failed"]}
    print(f"\n{workload}: {len(runs)} runs (trace {trace}), all correct: "
          f"{all(r['correct'] for r in runs)}, failed: {failed or 0}")
    print(f"  {'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        print(f"  {name:42s} {stats(values)}  {first['unit']}")
    if trace:
        deltas: dict[str, list[float]] = {}
        for r in runs:
            base = load(workload, r["seed"], 0)
            traced = json.loads((OUT / f"trace-{workload}-seed{r['seed']}.json").read_text())
            for name, value in traced["end_to_end_traced"].items():
                if base:
                    deltas.setdefault(name, []).append(value / base["metrics"][name]["value"] - 1)
        for name, values in deltas.items():
            print(f"  overhead {name:33s} {100 * statistics.median(values):+7.1f}% "
                  f"(median over {len(values)} seeds, traced vs untraced)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    for w in workloads:
        for s in args.seeds:
            print(f"{w} seed {s}: {json.dumps(run_once(w, s, args.seconds, args.trace))}",
                  flush=True)
    for w in workloads:
        summarise(w, args.seeds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
