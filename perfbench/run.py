"""momentloc benchmark: one workload, one process, one BLAS thread.

    python3 perfbench/run.py --workload latent_weak --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. A run takes the path of a user of the paper's recipe, in
this order, each phase for its share of `--seconds` (the workload's
`shares`):

1. set-up, repeated: `momentloc gen` writes the corpus as text files plus a
   manifest, both splits are loaded back through the manifest, the
   vocabulary is built and the model initialised;
2. training: a warm-up epoch, then whole epochs in one `train` call;
3. ranking the test videos with `evaluate(..., "latent")`, one video at a
   time, round after round;
4. the analyses of `momentloc eval --mode gt_context --context-delta
   --fragment-eval`, the same way;
5. cold single-query rankings, as `momentloc inspect` makes them.

Rates count the epochs after the warm-up and the units after a phase's
first; `setup_s` and `inspect_ms_p50` are medians. Every time is taken at the
reference host speed of `hostspeed.py`. Afterwards every output is checked
against `check.py`, outside the timing.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics, or with `--trace 1` the
per-layer metrics). Each run also writes its result, with the unscaled
figures and every unit's time, and a traced run its spans, under
`.perfbench-out/` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in METRICS["end_to_end"] + METRICS["per_layer"]}

MIN_EPOCHS = 2  # measured epochs, after the warm-up one
MIN_UNITS = {"setup": 3, "eval": 3, "analysis": 3, "inspect": 10}

MODEL = dict(
    similarity="normalized_mult", loss="ranking", margin=0.5, visual_dim=16,
    mlp_hidden=32, visual_out_dim=24, embed_dim=12, lstm_hidden=24,
    joint_dim=24, sim_hidden=24,
)
# Only before/after queries, so that the work per query, and with it every
# rate, does not depend on how a seed happens to mix the query kinds.
TEMPORAL_MIX = dict(mix_simple=0.0, mix_before=0.5, mix_after=0.5, mix_then=0.0)
TRAIN = dict(batch_size=32, lr=0.1, negatives_intra=2, negatives_inter=1)


@dataclass(frozen=True)
class Workload:
    corpus: dict
    model: dict
    shares: dict  # phase -> share of --seconds


WORKLOADS = {
    # Every training score is a max over all 21 contexts: scorer and tape work.
    "latent_weak": Workload(
        corpus=dict(n_train_videos=100, n_test_videos=12, n_segments=6,
                    queries_per_video=1, **TEMPORAL_MIX),
        model=dict(context_mode="latent", tef_mode="contef",
                   context_supervision="weak", modalities=("rgb",), **MODEL),
        shares=dict(setup=0.04, train=0.46, eval=0.14, analysis=0.22, inspect=0.14),
    ),
    # One context per moment over a wide corpus: query encoding, negative
    # sampling and corpus text I/O carry the load.
    "global_wide": Workload(
        corpus=dict(n_train_videos=1500, n_test_videos=60, n_segments=6,
                    queries_per_video=1, **TEMPORAL_MIX),
        model=dict(context_mode="global", tef_mode="tef",
                   context_supervision="weak", modalities=("rgb",), **MODEL),
        shares=dict(setup=0.1, train=0.52, eval=0.13, analysis=0.13, inspect=0.12),
    ),
    # Strong supervision, rgb + flow, 8-segment videos: the read path.
    "latent_long_fused": Workload(
        corpus=dict(n_train_videos=24, n_test_videos=4, n_segments=8,
                    queries_per_video=4, **TEMPORAL_MIX),
        model=dict(context_mode="latent", tef_mode="contef",
                   context_supervision="strong", modalities=("rgb", "flow"), **MODEL),
        shares=dict(setup=0.03, train=0.2, eval=0.2, analysis=0.31, inspect=0.26),
    ),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    if not (SRC / "momentloc" / "__init__.py").is_file():
        raise SystemExit(f"error: no momentloc sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import momentloc

    if Path(momentloc.__file__).resolve().parent != SRC / "momentloc":
        raise SystemExit(f"error: imported momentloc from {momentloc.__file__}, not {SRC}")


class Phase:
    """One kind of unit of work. `unit(i)` does the i-th unit of a round of
    `n_round` and returns how many items (queries, set-ups) it handled. Units
    of the first round are traced as `<name>.first`, so that counts come from
    the same work on every run. A unit's time leaves out the host-speed
    kernel's pauses; samples are (items, seconds, start, end)."""

    def __init__(self, run, name: str, unit, n_round: int):
        self.run, self.name, self.unit, self.n_round = run, name, unit, n_round
        self.samples: list[tuple[int, float, float, float]] = []

    def step(self) -> None:
        run, i = self.run, len(self.samples)
        run.tracer.phase = self.name if i >= self.n_round else f"{self.name}.first"
        with run.tracer.span(f"phase.{run.tracer.phase}"):
            t0, p0 = time.perf_counter(), run.speed.paused
            n = self.unit(i % self.n_round)
            t1, p1 = time.perf_counter(), run.speed.paused
        self.samples.append((n, t1 - t0 - (p1 - p0), t0, t1))

    def repeat(self) -> None:
        """Units until the phase's share of the run would be overrun; at
        least MIN_UNITS of them and one whole round."""
        budget = self.run.spec.shares[self.name] * self.run.seconds
        start = time.perf_counter()
        while True:
            self.step()
            if (len(self.samples) >= max(MIN_UNITS[self.name], self.n_round)
                    and time.perf_counter() - start + self.samples[-1][1] > budget):
                return

    def seconds(self, first: int = 0, scaled: bool = True) -> list[float]:
        """Unit times from unit `first` on, at the reference host speed
        unless `scaled` is false."""
        speed = self.run.speed
        return [speed.scale(t0, t1, dt) if scaled else dt for _, dt, t0, t1 in self.samples[first:]]

    def rate(self, first: int = 1, scaled: bool = True) -> float:
        """Items per second over the units from `first` on."""
        return sum(n for n, *_ in self.samples[first:]) / sum(self.seconds(first, scaled))


class Run:
    def __init__(self, name: str, seed: int, seconds: float, tracer, speed):
        from momentloc.model import ModelConfig

        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.speed = speed
        self.model_cfg = ModelConfig(**self.spec.model)
        self.work = OUT / f"work-{name}-{seed}-{os.getpid()}"

    def set_up(self, _i: int) -> int:
        """Generate, write and load back the corpus, build the vocabulary and
        initialise the model. The first set-up's outputs are the run's."""
        import numpy as np
        from momentloc import cli, dataset
        from momentloc.encoders import Vocabulary
        from momentloc.model import init_params

        out = self.work / f"corpus-{len(self.phases['setup'].samples)}"
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["gen", "--config", str(self.work / "corpus.cfg"), "--out", str(out)])
        if status != 0:
            raise RuntimeError(f"momentloc gen exited with {status}")
        manifest = str(out / dataset.MANIFEST_NAME)
        train_split = dataset.load_corpus(manifest, "train")
        test_split = dataset.load_corpus(manifest, "test")
        vocab = Vocabulary.from_token_lists(q.tokens for q in train_split.queries)
        params = init_params(replace(self.model_cfg, vocab_size=vocab.size),
                             np.random.default_rng(self.seed))
        if not hasattr(self, "train_split"):
            self.train_split, self.test_split, self.vocab, self.params = (
                train_split, test_split, vocab, params)
        return 1

    def train(self) -> None:
        """A warm-up epoch, then whole epochs in one `train` call as the
        share allows, each timed between its epoch-end log lines."""
        from momentloc import trainer

        n = len(self.train_split.queries)
        cfg = trainer.TrainConfig(epochs=1, seed=self.seed, **TRAIN)
        self.tracer.phase = "train.first"
        with self.tracer.span("phase.train.first"):
            t0 = time.perf_counter()
            bundle, history = trainer.train(self.train_split, self.model_cfg, cfg,
                                            vocab=self.vocab, init=self.params)
            warm_up = time.perf_counter() - t0
        epochs = max(MIN_EPOCHS, round(self.spec.shares["train"] * self.seconds / warm_up) - 1)
        marks = []

        def mark(_line: str = "") -> None:
            marks.append((time.perf_counter(), self.speed.paused))

        self.tracer.phase = "train"
        with self.tracer.span("phase.train"):
            mark()
            self.bundle, rest = trainer.train(
                self.train_split, self.model_cfg, replace(cfg, epochs=1 + epochs),
                vocab=self.vocab, init=bundle.params, start_epoch=1, log=mark,
            )
        self.history = history + rest
        self.epochs = Phase(self, "train", None, 1)
        self.epochs.samples = [(n, (t1 - t0) - (p1 - p0), t0, t1)
                               for (t0, p0), (t1, p1) in zip(marks, marks[1:])]

    def evaluate(self, i: int) -> int:
        from momentloc import evaluation

        video = self.videos[i]
        self.eval_reports.append((i, evaluation.evaluate(video, self.bundle, "latent").to_dict()))
        return len(video.queries)

    def analyse(self, i: int) -> int:
        from momentloc import evaluation

        video = self.videos[i]
        gt = evaluation.evaluate(video, self.bundle, "gt_context")
        delta = evaluation.context_conditioned_delta(video, self.bundle)
        frag = evaluation.context_fragment_eval(video, self.bundle)
        self.analyses.append((i, gt.to_dict(), delta, frag))
        return len(video.queries)

    def inspect(self, i: int) -> int:
        """One cold `rank_moments` call: fresh tape and cache."""
        from momentloc import evaluation

        q = self.test_split.queries[i]
        ranking = evaluation.rank_moments(self.test_split.features[q.video_id], q, self.bundle)
        self.inspect_rankings.setdefault(i, ranking)
        return 1

    def measure(self) -> None:
        from momentloc import dataset

        self.work.mkdir(parents=True, exist_ok=True)
        corpus = dict(self.spec.corpus, n_events=30, feature_dim=16, seed=self.seed)
        (self.work / "corpus.cfg").write_text(
            "".join(f"{k} = {v}\n" for k, v in corpus.items()), encoding="utf-8")
        self.phases = {"setup": Phase(self, "setup", self.set_up, 1)}
        self.phases["setup"].repeat()
        self.train()
        by_video: dict[str, list] = {}
        for q in self.test_split.queries:
            by_video.setdefault(q.video_id, []).append(q)
        self.videos = [dataset.Corpus({v: self.test_split.features[v]}, qs)
                       for v, qs in sorted(by_video.items())]
        self.eval_reports, self.analyses, self.inspect_rankings = [], [], {}
        for name, unit, n_round in (("eval", self.evaluate, len(self.videos)),
                                    ("analysis", self.analyse, len(self.videos)),
                                    ("inspect", self.inspect, len(self.test_split.queries))):
            self.phases[name] = Phase(self, name, unit, n_round)
            self.phases[name].repeat()

    def attempted(self) -> int:
        """Trained queries, ranked queries and cold rankings."""
        trained = len(self.train_split.queries) * len(self.history)
        return trained + sum(n for name, p in self.phases.items() if name != "setup"
                             for n, *_ in p.samples)

    # -- checks ---------------------------------------------------------------------

    def check(self) -> tuple[int, list[str]]:
        """Check every output against the independent scorer and the
        brute-force metrics. Returns (checks made, failures)."""
        import numpy as np
        from momentloc import evaluation
        from momentloc.dataset import tokenize

        import check as ck

        bundle, test = self.bundle, self.test_split
        cfg = bundle.config
        scorer = ck.Scorer(cfg, bundle.params.arrays())
        n_slots = 2 if cfg.context_mode == "before_after" else 1
        results: list[list[str]] = []

        results.append([] if all(math.isfinite(h["loss"]) for h in self.history)
                       else ["training loss is not finite"])
        results.append([] if all(np.all(np.isfinite(p.value))
                                 for p in bundle.params.parameters())
                       else ["a parameter is not finite"])

        def feats(q):
            return {m: t.features for m, t in test.features[q.video_id].items()}

        def latent_contexts(q):
            n = test.n_segments(q.video_id)
            return lambda base: ck.candidate_contexts(cfg.context_mode, base, n)

        def check_ranking(q, ranking, tokens, contexts_for):
            fl = scorer.encode(bundle.vocab.encode(tokens))
            results.append(ck.check_order(ranking, test.n_segments(q.video_id)))
            results.append(ck.check_scores(scorer, feats(q), fl, ranking, contexts_for))

        index = {id(q): i for i, q in enumerate(test.queries)}
        latent, gt = {}, {}
        for q, ranking in evaluation.iter_rankings(test, bundle, "latent"):
            latent[index[id(q)]] = ranking
            check_ranking(q, ranking, q.tokens, latent_contexts(q))
        for q, ranking in evaluation.iter_rankings(test, bundle, "gt_context"):
            gt[index[id(q)]] = ranking
            if q.context is None:
                check_ranking(q, ranking, q.tokens, latent_contexts(q))
                continue
            annotated = ck.slots_of(q.context)
            check_ranking(q, ranking, q.tokens,
                          lambda base, a=annotated: [ck.fit_context(a, n_slots)])
            want = ck.segments(annotated)
            results.append([f"gt_context: query {q.sentence!r} chose another context"]
                           if any(ck.segments(ck.slots_of(s.chosen_context)) != want for s in ranking)
                           else [])
        fragment = {}
        for i, q in enumerate(test.queries):
            if q.temporal_word in ck.ANALYSED_WORDS and q.context is not None and q.context_sentence:
                tokens = tokenize(q.context_sentence)
                ranking = evaluation.rank_moments(test.features[q.video_id], q, bundle, "latent",
                                                  tokens=tokens)
                fragment[i] = [ck.span(s.moment) for s in ranking]
                check_ranking(q, ranking, tokens, latent_contexts(q))
        for i, ranking in self.inspect_rankings.items():
            check_ranking(test.queries[i], ranking, test.queries[i].tokens,
                          latent_contexts(test.queries[i]))

        moments = {i: [ck.span(s.moment) for s in r] for i, r in latent.items()}
        gt_moments = {i: [ck.span(s.moment) for s in r] for i, r in gt.items()}
        chosen = {i: ck.slots_of(r[0].chosen_context) for i, r in latent.items()}
        want = []
        for video in self.videos:
            idx = [index[id(q)] for q in video.queries]
            local = lambda d: {k: d[i] for k, i in enumerate(idx) if i in d}
            want.append({
                "latent": ck.metrics_report([(q.temporal_word, moments[i], ck.span(q.moment))
                                             for q, i in zip(video.queries, idx)]),
                "gt": ck.metrics_report([(q.temporal_word, gt_moments[i], ck.span(q.moment))
                                         for q, i in zip(video.queries, idx)]),
                "delta": ck.expected_delta(video.queries, local(moments), local(fragment)),
                "frag": ck.expected_fragment_eval(video.queries, local(chosen), local(fragment)),
            })
        for j, report in self.eval_reports:
            results.append(ck.check_report(report, want[j]["latent"], "evaluate(latent)"))
        for j, gt_report, delta, frag in self.analyses:
            results.append(ck.check_report(gt_report, want[j]["gt"], "evaluate(gt_context)"))
            results.append([f"context_conditioned_delta: {m}"
                            for m in ck.diff(delta, want[j]["delta"])])
            results.append([f"context_fragment_eval: {m}"
                            for m in ck.diff(frag, want[j]["frag"])])
        return len(results), [msg for r in results for msg in r[:1]]




def per_layer(tracer, run: Run) -> dict[str, float]:
    totals, counts = tracer.totals(), tracer.counts

    def per_call_ms(name, field="total_s"):
        row = totals.get(name)
        return 1e3 * row[field] / row["calls"] if row else 0.0

    def per_setup_s(name):
        return totals[name]["total_s"] / len(run.phases["setup"].samples)

    def ratio(phase, num, den):
        c = counts[phase]
        return c[num] / c[den] if c[den] else 0.0

    return {
        "dataset.generate_s": per_setup_s("dataset.generate"),
        "dataset.save_corpus_s": per_setup_s("dataset.save_corpus"),
        "dataset.load_corpus_s": per_setup_s("dataset.load_corpus"),
        "encoders.encode_query_ms": per_call_ms("encoders.encode_query"),
        "trainer.sample_negatives_ms": per_call_ms("trainer.sample_negatives"),
        "trainer.example_scores_ms": per_call_ms("trainer.example_scores", "self_s"),
        "trainer.batch_loss_ms": per_call_ms("trainer.batch_loss"),
        "model.score_base_train_ms": per_call_ms("model.score_base[train]"),
        "model.score_base_eval_ms": per_call_ms("model.score_base[eval]"),
        "model.contexts_per_score": ratio("train.first", "contexts", "score_calls"),
        "model.fv_cache_hit_ratio": ratio("eval.first", "fv_hits", "fv_requested"),
        "autodiff.tape_nodes_per_train_query": ratio("train.first", "tape_nodes", "train_examples"),
        "autodiff.backward_ms": per_call_ms("autodiff.backward"),
        "autodiff.sgd_step_ms": per_call_ms("autodiff.sgd_step"),
        "evaluation.rank_moments_ms": per_call_ms("evaluation.rank_moments[warm]"),
        "evaluation.rank_calls_per_analysed_query":
            counts["analysis.first"]["rank_calls"] / len(run.test_split.queries),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    from hostspeed import HostSpeed
    from spans import Tracer

    tracer, speed = Tracer(), HostSpeed()
    tracer.enabled = bool(args.trace)
    if args.trace:
        tracer.install()
    run = Run(args.workload, args.seed, args.seconds, tracer, speed)
    try:
        speed.start()
        try:
            run.measure()
        finally:
            speed.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer.enabled = False
        n_checks, failures = run.check()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    phases = run.phases

    def figures(scaled: bool) -> dict[str, float]:
        return {
            "setup_s": statistics.median(phases["setup"].seconds(0, scaled)),
            "train_qps": run.epochs.rate(0, scaled),
            "eval_qps": phases["eval"].rate(1, scaled),
            "analysis_qps": phases["analysis"].rate(1, scaled),
            "inspect_ms_p50": 1e3 * statistics.median(phases["inspect"].seconds(0, scaled)),
        }

    end_to_end = dict(figures(True), peak_rss_mb=peak_rss_mb)
    host_speed = {name: statistics.mean(speed.relative(t0, t1) for *_, t0, t1 in p.samples)
                  for name, p in dict(phases, train=run.epochs).items()}
    result = {"correct": not failures, "attempted": run.attempted() + n_checks,
              "failed": len(failures)}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "failures": failures,
        "checks": n_checks,
        "unscaled": figures(False),
        "host_speed": host_speed,
        "kernel": {"start": speed.times, "relative_speed": speed.speeds},
        "units": {"train": run.epochs.samples, **{name: p.samples for name, p in phases.items()}},
    }
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        layers = per_layer(tracer, run)
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in layers.items()}
        tracer.write(str(OUT / f"trace-{stem}.json"),
                     dict(detail, per_layer=layers, end_to_end_traced=end_to_end))
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end.items()}
    result["metrics"] = metrics
    with open(OUT / f"result-{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, **detail), fh, indent=1)
        fh.write("\n")
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
