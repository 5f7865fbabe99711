"""Tests of the benchmark's independent checker.

    python3 perfbench/test_check.py        (or: python3 -m pytest perfbench)

The checker must accept what the package computes, for every similarity
head, context mode and endpoint-feature mode, and must reject a ranking with
two moments swapped, a perturbed score and a wrong metric.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import check as ck  # noqa: E402
from momentloc.dataset import Corpus, TemporalQuery  # noqa: E402
from momentloc.encoders import SegmentFeatureTable, Vocabulary  # noqa: E402
from momentloc.evaluation import evaluate, rank_moments  # noqa: E402
from momentloc.model import ModelBundle, ModelConfig, init_params  # noqa: E402
from momentloc.temporal import ContextMoment, Moment  # noqa: E402

N_SEGMENTS = 5


def make_case(seed=0, **overrides):
    """A small random model, one video and one query, and its latent ranking."""
    rng = np.random.default_rng(seed)
    query = TemporalQuery("v0", "ev001 before ev002.", Moment(1, 2), "before",
                          ContextMoment.single(Moment(3, 3)), "ev002")
    vocab = Vocabulary.from_token_lists([query.tokens])
    fields = dict(context_mode="latent", tef_mode="contef", similarity="normalized_mult",
                  modalities=("rgb", "flow"), visual_dim=4, mlp_hidden=5, visual_out_dim=3,
                  embed_dim=3, lstm_hidden=4, joint_dim=4, sim_hidden=3,
                  vocab_size=vocab.size)
    fields.update(overrides)
    cfg = ModelConfig(**fields)
    video = {m: SegmentFeatureTable("v0", m, rng.normal(size=(N_SEGMENTS, 4)))
             for m in cfg.modalities}
    bundle = ModelBundle(cfg, init_params(cfg, rng), vocab)
    return bundle, video, query, rank_moments(video, query, bundle)


def failures(bundle, video, query, ranking):
    scorer = ck.Scorer(bundle.config, bundle.params.arrays())
    fl = scorer.encode(bundle.vocab.encode(query.tokens))
    feats = {m: t.features for m, t in video.items()}
    mode = bundle.config.context_mode
    return ck.check_order(ranking, N_SEGMENTS) + ck.check_scores(
        scorer, feats, fl, ranking, lambda base: ck.candidate_contexts(mode, base, N_SEGMENTS))


def test_accepts_the_package_for_every_head_and_mode():
    grid = itertools.product(("distance", "mult", "normalized_mult", "tall_sim"),
                             ("latent", "global", "before_after"), ("none", "tef", "contef"))
    for seed, (sim, mode, tef) in enumerate(grid):
        case = make_case(seed, similarity=sim, context_mode=mode, tef_mode=tef)
        assert failures(*case) == [], (sim, mode, tef)


def test_rejects_two_swapped_moments():
    bundle, video, query, ranking = make_case()
    swapped = list(ranking)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert ranking[0].score != ranking[1].score
    assert any("sorted" in f for f in failures(bundle, video, query, swapped))
    # Swapping only the moments keeps the order of scores, but not the scores.
    relabelled = list(ranking)
    relabelled[0] = dataclasses.replace(ranking[0], moment=ranking[1].moment)
    relabelled[1] = dataclasses.replace(ranking[1], moment=ranking[0].moment)
    assert any("independent scorer" in f for f in failures(bundle, video, query, relabelled))


def test_rejects_a_perturbed_score_but_not_rounding():
    bundle, video, query, ranking = make_case()
    k = len(ranking) // 2
    for rel, rejected in ((1e-7, True), (1e-14, False)):
        changed = list(ranking)
        changed[k] = dataclasses.replace(ranking[k], score=ranking[k].score * (1 + rel))
        got = [f for f in failures(bundle, video, query, changed) if "independent scorer" in f]
        assert bool(got) == rejected, (rel, got)


def test_rejects_a_chosen_context_that_is_not_the_max():
    bundle, video, query, ranking = make_case()
    wrong = ContextMoment.single(Moment(0, N_SEGMENTS - 1))
    changed = [dataclasses.replace(s, chosen_context=wrong) for s in ranking]
    assert any("does not attain the max" in f for f in failures(bundle, video, query, changed))


def test_metrics_match_brute_force_and_reject_a_wrong_one():
    bundle, video, query, ranking = make_case()
    report = evaluate(Corpus({"v0": video}, [query]), bundle, "latent").to_dict()
    want = ck.metrics_report([(query.temporal_word, [ck.span(s.moment) for s in ranking],
                               ck.span(query.moment))])
    assert ck.check_report(report, want, "latent") == []
    report["buckets"]["before"]["miou"] += 1e-6
    assert ck.check_report(report, want, "latent")
    report["buckets"]["before"]["miou"] -= 1e-6
    report["average"]["r_at_1"], report["average"]["r_at_5"] = 1.0, 0.0
    assert ck.check_report(report, want, "latent")


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
