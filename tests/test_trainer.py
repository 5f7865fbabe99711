import csv
import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentloc.autodiff import Parameter, Tape, backward
from momentloc.configio import dataclass_from_mapping
from momentloc.dataset import Corpus, TemporalQuery
from momentloc.encoders import Vocabulary, encode_query
from momentloc.model import ModelParams, _grid_pairs, conform_context, init_params
from momentloc.temporal import ContextMoment, Moment, context_set, enumerate_moments
from momentloc.trainer import (
    ExampleScores,
    Negatives,
    TrainConfig,
    _pinned_context,
    batch_loss,
    batch_scores,
    example_scores,
    load_history,
    lr_at,
    sample_negatives,
    save_history,
    train,
    videos_longer_than,
)

from helpers import chain_batch_loss, np_score, tiny_model_config, tiny_video


def small_corpus(rng, n_segments=4, lengths=None):
    lengths = lengths or {}
    features = {
        vid: tiny_video(rng, lengths.get(vid, n_segments), 3, ("rgb",), vid)
        for vid in ("v0", "v1", "v2")
    }
    queries = [
        TemporalQuery("v0", "A before b.", Moment(0, 0), "before",
                      ContextMoment.single(Moment(1, 1)), "b"),
        TemporalQuery("v1", "B after a.", Moment(2, 2), "after",
                      ContextMoment.single(Moment(0, 1)), "a"),
        TemporalQuery("v2", "Plain c.", Moment(1, 2)),
    ]
    return Corpus(features, queries)


def test_lr_schedule():
    cfg = TrainConfig(lr=0.05, lr_decay_every=30, lr_decay_factor=0.1)
    assert lr_at(0, cfg) == 0.05
    assert lr_at(29, cfg) == 0.05
    assert lr_at(30, cfg) == pytest.approx(0.005)
    assert lr_at(60, cfg) == pytest.approx(0.0005)
    assert lr_at(5, TrainConfig(lr=1.0, lr_decay_every=2, lr_decay_factor=0.5)) == 0.25


def test_train_config_validation():
    for bad in (
        {"epochs": -1},
        {"batch_size": 0},
        {"lr": 0.0},
        {"lr_decay_every": 0},
        {"negatives_intra": -1},
        {"negatives_intra": 0, "negatives_inter": 0},
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    cfg = dataclass_from_mapping(TrainConfig, {"epochs": "5", "lr": "0.01"})
    assert cfg.epochs == 5 and cfg.lr == 0.01


def test_sample_negatives(rng):
    corpus = small_corpus(rng)
    example = corpus.queries[0]  # v0, moment (0,0)
    longer = videos_longer_than(corpus)
    negs = sample_negatives(np.random.default_rng(5), corpus, example, 3, 2, longer)
    assert len(negs.intra) == 3
    assert all(m != example.moment for m in negs.intra)
    assert all(m.end_seg < 4 for m in negs.intra)
    assert len(negs.inter) == 2
    assert all(vid in ("v1", "v2") for vid, _ in negs.inter)
    assert all(m == example.moment for _, m in negs.inter)
    again = sample_negatives(np.random.default_rng(5), corpus, example, 3, 2, longer)
    assert again.intra == negs.intra and again.inter == negs.inter


def test_sample_negatives_oversized_and_short_videos(rng):
    corpus = small_corpus(rng, lengths={"v1": 2})
    example = TemporalQuery("v0", "x.", Moment(2, 3))
    negs = sample_negatives(np.random.default_rng(0), corpus, example, 12, 4,
                            videos_longer_than(corpus))
    assert len(negs.intra) == 12  # pool only has 9, sampled with replacement
    # v1 has 2 segments, cannot hold a moment ending at 3
    assert all(vid == "v2" for vid, _ in negs.inter)


def _reference_inter_draws(rng, corpus, example, n_inter):
    """Inter-video draws as the per-example list comprehension makes them."""
    others = [
        v for v in corpus.video_ids()
        if v != example.video_id and corpus.n_segments(v) > example.moment.end_seg
    ]
    return [others[int(rng.integers(len(others)))] for _ in range(n_inter) if others]


def test_sample_negatives_inter_draws_match_reference(rng):
    """Inter-video draws from the once-built eligibility lists equal those of
    filtering every video per example, draw for draw, on corpora that mix
    video lengths (including videos too short for some moments)."""
    for trial in range(6):
        lengths = [int(n) for n in rng.integers(1, 7, size=int(rng.integers(1, 9)))]
        features = {
            f"v{i:02d}": tiny_video(rng, n, 3, ("rgb",), f"v{i:02d}")
            for i, n in enumerate(lengths)
        }
        queries = []
        for vid, n in zip(sorted(features), lengths):
            start = int(rng.integers(0, n))
            queries.append(TemporalQuery(vid, "q.", Moment(start, int(rng.integers(start, n)))))
        corpus = Corpus(features, queries)
        longer = videos_longer_than(corpus)
        for seed in range(5):
            for example in queries:
                new_rng = np.random.default_rng([trial, seed])
                ref_rng = np.random.default_rng([trial, seed])
                got = sample_negatives(new_rng, corpus, example, 0, 3, longer)
                want = _reference_inter_draws(ref_rng, corpus, example, 3)
                assert [vid for vid, _ in got.inter] == want
                assert new_rng.integers(1 << 30) == ref_rng.integers(1 << 30)


@pytest.mark.parametrize("lr, sim, message", [
    (1e300, "distance", "epoch 0 batch 1: loss is not finite"),
    (1e308, "normalized_mult", "epoch 0 batch 0: parameters not finite after the SGD step: lang.proj_b"),
])
def test_train_stops_on_non_finite_values(lr, sim, message):
    """An absurd learning rate blows the run up; training stops naming the
    epoch and the batch instead of carrying NaNs on."""
    corpus = small_corpus(np.random.default_rng(0))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=message):
        train(corpus, tiny_model_config(similarity=sim),
              TrainConfig(epochs=2, batch_size=1, lr=lr, seed=0))


def _batch_corpus(rng, n_videos=40, n_segments=6):
    """Temporal queries of one video each, with ragged token lengths."""
    from momentloc.dataset import SyntheticCorpusConfig, generate_synthetic

    syn = generate_synthetic(SyntheticCorpusConfig(
        n_train_videos=n_videos, n_test_videos=1, n_segments=n_segments, n_events=12,
        feature_dim=3, queries_per_video=1, mix_simple=0.0, mix_before=0.5,
        mix_after=0.5, mix_then=0.0, seed=int(rng.integers(1 << 16)),
    ))
    return syn.train


def _batch_nodes(corpus, batch_size, monkeypatch):
    """Tape nodes of one latent-weak training batch (2 intra, 1 inter
    negative per example), and those recorded inside score_grid."""
    from momentloc import model, trainer

    vocab = Vocabulary.from_token_lists(q.tokens for q in corpus.queries)
    cfg = tiny_model_config(context_supervision="weak", vocab_size=vocab.size)
    params = init_params(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    longer = videos_longer_than(corpus)
    batch = corpus.queries[:batch_size]
    negatives = [sample_negatives(rng, corpus, ex, 2, 1, longer) for ex in batch]
    grid_nodes = []
    original = model.score_grid

    def counted(tape, *args, **kwargs):
        before = len(tape.nodes)
        result = original(tape, *args, **kwargs)
        grid_nodes.append(len(tape.nodes) - before)
        return result

    monkeypatch.setattr(trainer, "score_grid", counted)
    tape = Tape()
    batch_loss(tape, batch_scores(tape, corpus, batch, negatives, cfg, params, vocab), cfg)
    return len(tape.nodes), grid_nodes


def test_latent_weak_batch_records_few_tape_nodes(rng, monkeypatch):
    """A training batch is one graph: one stacked LSTM, one score_grid call
    and one stacked loss. Per-example grids recorded about 3500 nodes for
    this 32-example batch, and per-score loss chains about 700, so a
    fall-back to either shows here; and the nodes that score_grid records
    do not grow with the batch."""
    corpus = _batch_corpus(rng)
    total, grid = _batch_nodes(corpus, 32, monkeypatch)
    assert total < 110  # 103 here; 698 with one take_row and hinge chain per score
    assert grid == [grid[0]]
    for size in (1, 4, 16):
        assert _batch_nodes(corpus, size, monkeypatch)[1] == grid


def test_latent_weak_batch_pools_its_videos_in_one_stack(rng, monkeypatch):
    """A batch pools all of its videos of one length at once: one running
    sum (an np.cumsum over stacked feature rows) per start segment and
    modality. Pooling video by video ran 228 for this 32-example batch over
    38 videos of 6 segments, so a fall-back to it shows here."""
    sums = []
    cumsum = np.cumsum

    def counted(a, *args, **kwargs):
        if np.ndim(a) >= 2:
            sums.append(np.shape(a))
        return cumsum(a, *args, **kwargs)

    corpus = _batch_corpus(rng)
    monkeypatch.setattr(np, "cumsum", counted)
    _batch_nodes(corpus, 32, monkeypatch)
    assert 0 < len(sums) <= 6 * len(tiny_model_config().modalities)


@pytest.mark.parametrize("sim", ["distance", "mult", "normalized_mult", "tall_sim"])
def test_batch_tape_is_freed_without_the_cycle_collector(rng, sim):
    """No backward closure holds the tape, so a trained batch's graph goes as
    soon as the tape is dropped; a cycle through the tape kept every batch's
    arrays alive until a rare full collection, and memory grew by epoch."""
    corpus = small_corpus(rng, lengths={"v1": 6})
    vocab = Vocabulary.from_token_lists(q.tokens for q in corpus.queries)
    cfg = tiny_model_config(similarity=sim, vocab_size=vocab.size)
    params = init_params(cfg, rng)
    longer = videos_longer_than(corpus)
    negatives = [sample_negatives(rng, corpus, ex, 2, 1, longer) for ex in corpus.queries]
    gc.disable()
    try:
        tape = Tape()
        scored = batch_scores(tape, corpus, corpus.queries, negatives, cfg, params, vocab)
        backward(tape, batch_loss(tape, scored, cfg))
        freed = weakref.ref(tape)
        del tape, scored
        assert freed() is None
    finally:
        gc.enable()


BATCH_CASES = [
    pytest.param(sim, mode, tef_mode, id=f"{sim}-{mode}-{tef_mode}")
    for sim in ("distance", "mult", "normalized_mult", "tall_sim")
    for mode in ("global", "before_after", "latent")
    for tef_mode in ("none", "tef", "contef")
]


@pytest.mark.parametrize("sim, mode, tef_mode", BATCH_CASES)
def test_batch_scores_equal_per_example_grids_and_numpy_oracle(rng, sim, mode, tef_mode):
    """One cross-video score_grid call over a batch gives each score exactly
    as scoring its example alone and as the plain-numpy scorer do: videos of
    4, 6, 5 and 4 segments (two videos of one shape, pooled in one stack,
    next to others), inter-video negatives in videos of another length,
    an example without an inter negative and one with three; weak and strong
    supervision (the strong pin falls back to the candidate set in a video
    too short for the stored context)."""
    from momentloc.model import score_grid

    features = {v: tiny_video(rng, n, 3, ("rgb", "flow"), v)
                for v, n in (("a", 4), ("b", 6), ("c", 5), ("d", 4))}
    batch = [
        TemporalQuery("a", "One before two three.", Moment(1, 2), "before",
                      ContextMoment.single(Moment(3, 3)), "two three"),
        TemporalQuery("b", "Four after five.", Moment(4, 5), "after",
                      ContextMoment.single(Moment(0, 3)), "five"),
        TemporalQuery("c", "Six.", Moment(0, 4)),
    ]
    negatives = [
        Negatives([Moment(0, 0), Moment(2, 3)], [("b", Moment(1, 2))]),
        Negatives([Moment(3, 3)], []),
        Negatives([Moment(1, 1), Moment(4, 4)],
                  [("b", Moment(0, 4)), ("d", Moment(1, 3)), ("c", Moment(0, 4))]),
    ]
    corpus = Corpus(features, batch)
    vocab = Vocabulary.from_token_lists([ex.tokens for ex in batch[:2]])  # "six" is unknown
    for supervision in ("weak", "strong"):
        cfg = tiny_model_config(similarity=sim, context_mode=mode, tef_mode=tef_mode,
                                context_supervision=supervision, modalities=("rgb", "flow"),
                                fusion_lambda=0.35, vocab_size=vocab.size)
        params = init_params(cfg, rng)
        arrays = params.arrays()
        tape = Tape(recording=False)
        scored = batch_scores(tape, corpus, batch, negatives, cfg, params, vocab)
        for ex, negs, got in zip(batch, negatives, scored):
            ids = vocab.encode(ex.tokens)
            alone = example_scores(Tape(recording=False), {}, corpus, ex, negs, cfg, params, vocab)
            got_values, alone_values = got.scores.value, alone.scores.value
            parts = [(ex.video_id, [ex.moment, *negs.intra], [got.positive, *got.intra],
                      [alone.positive, *alone.intra])]
            parts += [(vid, [m], [at], [other])
                      for (vid, m), at, other in zip(negs.inter, got.inter, alone.inter)]
            assert len(got.inter) == len(negs.inter)
            for vid, bases, entries, others in parts:
                n = corpus.n_segments(vid)
                pinned = _pinned_context(ex, n, cfg)
                t = Tape(recording=False)
                grid, _ = score_grid(t, encode_query(t, ids, params),
                                     [(features[vid], 0, bases, pinned)], cfg, params)
                for base, at, other, one in zip(bases, entries, others, grid.value):
                    contexts = (context_set(mode, base, n) if pinned is None
                                else [conform_context(pinned, base, cfg.context_slots)])
                    want, _ = np_score(features[vid], ids, base, contexts, cfg, arrays)
                    assert got_values[at] == alone_values[other] == one == want


@pytest.mark.parametrize("sim", ["distance", "mult", "normalized_mult", "tall_sim"])
@pytest.mark.parametrize("mode", ["global", "before_after", "latent"])
def test_batch_loss_equals_the_per_score_chain(rng, sim, mode):
    """The stacked loss is bit for bit the per-score chain (one take_row,
    sub, add and relu per score, a mean per class and per batch), and so
    are its parameter gradients: weak and strong supervision,
    ranking and log-logistic losses, ragged batches (an example without an
    inter-video negative, one with two, and no intra-video negatives at
    all), scored as one batch and as separate examples, and a 24-example
    batch with 9 intra-video negatives per example, whose means add more
    terms than numpy adds one by one before it sums pairwise. Equal
    gradients are what keep training bit for bit the same as with the
    chain."""
    features = {v: tiny_video(rng, n, 3, ("rgb", "flow"), v)
                for v, n in (("a", 4), ("b", 6), ("c", 5))}
    batch = [
        TemporalQuery("a", "One before two three.", Moment(1, 2), "before",
                      ContextMoment.single(Moment(3, 3)), "two three"),
        TemporalQuery("b", "Four after five.", Moment(4, 5), "after",
                      ContextMoment.single(Moment(0, 3)), "five"),
        TemporalQuery("c", "Six.", Moment(0, 4)),
    ]
    ragged = [
        Negatives([Moment(0, 0), Moment(2, 3)], [("b", Moment(1, 2))]),
        Negatives([Moment(3, 3)], []),
        Negatives([Moment(1, 1), Moment(4, 4), Moment(2, 2)], [("b", Moment(0, 4)), ("c", Moment(0, 4))]),
    ]
    no_intra = [Negatives([], [("b", Moment(1, 2))]), Negatives([], [("a", Moment(0, 3))]),
                Negatives([], [("b", Moment(0, 4))])]
    # sums of more than 8 terms, where a pairwise sum would round differently
    wide = [Negatives(enumerate_moments(n)[k % 3 : k % 3 + 9], [("b", Moment(0, 1))] * (k % 2))
            for k, n in enumerate([4, 6, 5] * 8)]
    corpus = Corpus(features, batch)
    vocab = Vocabulary.from_token_lists([ex.tokens for ex in batch])
    for supervision in ("weak", "strong"):
        for loss in ("ranking", "tall"):
            cfg = tiny_model_config(similarity=sim, context_mode=mode, context_supervision=supervision,
                                    loss=loss, modalities=("rgb", "flow"), fusion_lambda=0.35,
                                    margin=0.4, tall_alpha_w=0.7, vocab_size=vocab.size)
            params = init_params(cfg, rng)

            def run(loss_fn, examples, negatives, per_example):
                for p in params.parameters():
                    p.grad[...] = 0.0
                tape = Tape()
                if per_example:
                    scored = [example_scores(tape, {}, corpus, ex, negs, cfg, params, vocab)
                              for ex, negs in zip(examples, negatives)]
                else:
                    scored = batch_scores(tape, corpus, examples, negatives, cfg, params, vocab)
                root = loss_fn(tape, scored, cfg)
                backward(tape, root)
                return root.value.tobytes(), {p.name: p.grad.copy() for p in params.parameters()}

            cases = [(ragged, False), (ragged, True), (no_intra, False), (no_intra, True),
                     (wide, False)]
            for negatives, per_example in cases:
                examples = batch * (len(negatives) // len(batch))
                got, got_grads = run(batch_loss, examples, negatives, per_example)
                want, want_grads = run(chain_batch_loss, examples, negatives, per_example)
                assert got == want
                for name, grad in want_grads.items():
                    assert got_grads[name].tobytes() == grad.tobytes(), name
    tape = Tape()
    lonely = [ExampleScores(tape.constant([1.0, 0.5]), 0, [1], []),
              ExampleScores(tape.constant([2.0]), 0, [], [])]
    with pytest.raises(ValueError, match="at least one negative"):
        batch_loss(tape, lonely, tiny_model_config())


def _contexts_for(example, base, n_segments, cfg):
    """The candidates that example_scores scores `base` against."""
    (contexts,) = _grid_pairs([base], n_segments, cfg, _pinned_context(example, n_segments, cfg))[2]
    return contexts


def test_contexts_for_strong_substitutes_ground_truth(rng):
    cfg = tiny_model_config(context_supervision="strong")
    example = TemporalQuery("v0", "A before b.", Moment(0, 0), "before",
                            ContextMoment.single(Moment(2, 2)), "b")
    assert _pinned_context(example, 4, cfg) is example.context
    got = _contexts_for(example, example.moment, 4, cfg)
    assert got == [conform_context(example.context, example.moment, cfg.context_slots)]
    # negatives in the same hinge are pinned to the identical context
    neg = Moment(1, 2)
    assert _contexts_for(example, neg, 4, cfg) == [
        conform_context(example.context, neg, cfg.context_slots)
    ]
    # context beyond the video falls back to the mode's candidate set
    oob = TemporalQuery("v0", "s.", Moment(0, 0), "before",
                        ContextMoment.single(Moment(5, 9)), "b")
    assert _pinned_context(oob, 4, cfg) is None
    assert _contexts_for(oob, oob.moment, 4, cfg) == context_set(
        "latent", Moment(0, 0), 4,
    )
    # ... unless the other video is long enough
    assert _pinned_context(oob, 10, cfg) is oob.context
    # weak supervision never substitutes
    weak = tiny_model_config(context_supervision="weak")
    assert _pinned_context(example, 4, weak) is None
    assert _contexts_for(example, example.moment, 4, weak) == context_set(
        "latent", Moment(0, 0), 4,
    )
    # examples without a stored context always use the candidate set
    simple = TemporalQuery("v0", "s.", Moment(1, 1))
    assert _contexts_for(simple, simple.moment, 4, cfg) == context_set(
        "latent", Moment(1, 1), 4,
    )


def test_batch_loss_ranking_averages_examples():
    cfg = tiny_model_config(margin=0.1)
    tape = Tape()
    scored = [
        ExampleScores(tape.constant([1.0, 0.5, 2.0]), 0, [1], [2]),
        ExampleScores(tape.constant([0.0, 0.0]), 0, [1], []),
    ]
    # example 1: intra hinge max(0, .1 - 1 + .5)=0, inter max(0, .1 - 1 + 2)=1.1 -> 1.1
    # example 2: intra hinge .1, no inter -> .1
    loss = batch_loss(tape, scored, cfg)
    assert float(loss.value) == pytest.approx((1.1 + 0.1) / 2)


def test_batch_loss_tall_pools_and_ignores_inter():
    cfg = tiny_model_config(loss="tall", tall_alpha_c=1.0, tall_alpha_w=2.0)
    tape = Tape()
    scored = [
        ExampleScores(tape.constant([1.0, -1.0, 0.0, 999.0]), 0, [1, 2], [3]),
        ExampleScores(tape.constant([2.0, 1.0, 999.0]), 0, [1], [2]),
    ]
    pos = np.array([1.0, 2.0])
    neg = np.array([-1.0, 0.0, 1.0])
    want = np.mean(np.logaddexp(0.0, -pos)) + 2.0 * np.mean(np.logaddexp(0.0, neg))
    loss = batch_loss(tape, scored, cfg)
    assert float(loss.value) == pytest.approx(want)
    with pytest.raises(ValueError):
        batch_loss(tape, [], cfg)


def test_train_zero_epochs_returns_init(rng):
    corpus = small_corpus(rng)
    bundle, history = train(corpus, tiny_model_config(), TrainConfig(epochs=0, seed=1))
    assert history == []
    assert bundle.config.vocab_size == bundle.vocab.size
    again, _ = train(corpus, tiny_model_config(), TrainConfig(epochs=0, seed=1))
    for name, arr in bundle.params.arrays().items():
        assert np.array_equal(arr, again.params.arrays()[name])


def test_train_reduces_loss(rng):
    corpus = small_corpus(rng)
    cfg = tiny_model_config()
    bundle, history = train(corpus, cfg, TrainConfig(epochs=12, batch_size=2, lr=0.05, seed=3))
    assert len(history) == 12
    assert all(np.isfinite(row["loss"]) for row in history)
    assert history[-1]["loss"] < history[0]["loss"]
    assert bundle.vocab.encode(("before",)) != (0,)


def test_train_deterministic(rng):
    corpus = small_corpus(rng)
    cfg = tiny_model_config()
    tcfg = TrainConfig(epochs=3, batch_size=2, seed=11)
    a, ha = train(corpus, cfg, tcfg)
    b, hb = train(corpus, cfg, tcfg)
    assert ha == hb
    for name, arr in a.params.arrays().items():
        assert np.array_equal(arr, b.params.arrays()[name])
    c, _ = train(corpus, cfg, TrainConfig(epochs=3, batch_size=2, seed=12))
    assert any(
        not np.array_equal(arr, c.params.arrays()[name])
        for name, arr in a.params.arrays().items()
    )


def test_train_tall_loss_runs(rng):
    corpus = small_corpus(rng)
    cfg = tiny_model_config(loss="tall", similarity="tall_sim", context_mode="before_after")
    bundle, history = train(corpus, cfg, TrainConfig(epochs=4, batch_size=3, seed=2))
    assert all(np.isfinite(row["loss"]) for row in history)
    assert history[-1]["loss"] < history[0]["loss"]


def test_train_strong_supervision_path(rng):
    corpus = small_corpus(rng)
    cfg = tiny_model_config(context_supervision="strong")
    _, history = train(corpus, cfg, TrainConfig(epochs=2, batch_size=3, seed=2))
    assert len(history) == 2


def test_strong_supervision_names_the_example_whose_context_does_not_fit(rng):
    corpus = small_corpus(rng)
    corpus.queries[1] = replace(corpus.queries[1],
                                context=ContextMoment.pair(Moment(0, 0), Moment(3, 3)))
    cfg = tiny_model_config(context_supervision="strong", context_mode="latent")
    with pytest.raises(ValueError, match=r"video 'v1', query 'B after a\.'.*does not fit"):
        train(corpus, cfg, TrainConfig(epochs=1, batch_size=3, seed=2))


def test_train_frozen_embedding(rng):
    corpus = small_corpus(rng)
    cfg = tiny_model_config(embed_dim=2)
    from momentloc.encoders import Vocabulary

    vocab = Vocabulary.from_token_lists(q.tokens for q in corpus.queries)
    table = np.arange(vocab.size * 2, dtype=float).reshape(vocab.size, 2)
    bundle, _ = train(
        corpus, cfg, TrainConfig(epochs=3, batch_size=2, seed=0),
        vocab=vocab, embedding=table,
    )
    assert np.array_equal(bundle.params["lang.embed"].value, table)
    assert not bundle.params["lang.embed"].trainable


def test_train_resume_uses_absolute_epoch(rng):
    corpus = small_corpus(rng)
    cfg = tiny_model_config()
    tcfg = TrainConfig(epochs=4, batch_size=3, lr=0.1, lr_decay_every=2, lr_decay_factor=0.5, seed=6)
    first, h1 = train(corpus, cfg, TrainConfig(
        epochs=2, batch_size=3, lr=0.1, lr_decay_every=2, lr_decay_factor=0.5, seed=6,
    ))
    second, h2 = train(
        corpus, cfg, tcfg, vocab=first.vocab, init=first.params, start_epoch=2,
    )
    assert [row["epoch"] for row in h2] == [2, 3]
    assert [row["lr"] for row in h2] == [0.05, 0.05]


def _split_run(corpus, cfg, tcfg, k, embedding=None, vocab=None):
    """k epochs, then a resume to tcfg.epochs from a copy of the k-epoch
    params, as a reloaded checkpoint gives them (every parameter trainable)."""
    first, h1 = train(corpus, cfg, replace(tcfg, epochs=k), vocab=vocab, embedding=embedding)
    init = ModelParams({p.name: Parameter(p.name, p.value.copy()) for p in first.params.parameters()})
    second, h2 = train(corpus, cfg, tcfg, vocab=first.vocab, init=init, start_epoch=k,
                       embedding=embedding)
    return second, h1 + h2


@settings(max_examples=24, deadline=None)
@given(
    supervision=st.sampled_from(["strong", "weak"]),
    epochs=st.integers(1, 4),
    split=st.integers(0, 4),
    seed=st.integers(0, 2**16),
)
def test_resume_at_any_epoch_equals_straight_run(supervision, epochs, split, seed):
    corpus = small_corpus(np.random.default_rng(seed))
    cfg = tiny_model_config(context_supervision=supervision)
    tcfg = TrainConfig(epochs=epochs, batch_size=2, lr=0.1, lr_decay_every=2, seed=seed)
    straight, history = train(corpus, cfg, tcfg)
    resumed, joined = _split_run(corpus, cfg, tcfg, min(split, epochs))
    assert joined == history
    for name, arr in straight.params.arrays().items():
        assert np.array_equal(resumed.params[name].value, arr), name


def test_resume_keeps_a_pretrained_embedding_frozen(rng):
    corpus = small_corpus(rng)
    cfg = tiny_model_config(embed_dim=2)
    vocab = Vocabulary.from_token_lists(q.tokens for q in corpus.queries)
    table = rng.normal(size=(vocab.size, 2))
    tcfg = TrainConfig(epochs=4, batch_size=2, seed=3)
    straight, _ = train(corpus, cfg, tcfg, vocab=vocab, embedding=table)
    resumed, _ = _split_run(corpus, cfg, tcfg, 2, embedding=table, vocab=vocab)
    assert not resumed.params["lang.embed"].trainable
    assert np.array_equal(resumed.params["lang.embed"].value, table)
    for name, arr in straight.params.arrays().items():
        assert np.array_equal(resumed.params[name].value, arr), name


def test_train_rejects_bad_corpus(rng):
    corpus = small_corpus(rng)
    with pytest.raises(ValueError, match="modalities"):
        train(corpus, tiny_model_config(modalities=("rgb", "flow")), TrainConfig(epochs=0))
    with pytest.raises(ValueError, match="visual_dim"):
        train(corpus, tiny_model_config(visual_dim=7), TrainConfig(epochs=0))
    with pytest.raises(ValueError, match="no training queries"):
        train(Corpus(corpus.features, []), tiny_model_config(), TrainConfig(epochs=0))


def test_save_history(tmp_path):
    history = [
        {"epoch": 0, "loss": 0.5, "lr": 0.05},
        {"epoch": 1, "loss": 0.25, "lr": 0.05},
    ]
    path = tmp_path / "history.csv"
    save_history(str(path), history)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["epoch"] for r in rows] == ["0", "1"]
    assert float(rows[1]["loss"]) == 0.25


history_rows = st.lists(
    st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False, allow_infinity=False)),
    max_size=6,
).map(lambda rows: [{"epoch": i, "loss": loss, "lr": lr} for i, (loss, lr) in enumerate(rows)])


@settings(max_examples=50, deadline=None)
@given(history=history_rows)
def test_history_roundtrip(tmp_path_factory, history):
    path = str(tmp_path_factory.mktemp("history") / "history.csv")
    save_history(path, history)
    assert load_history(path) == history


@pytest.mark.parametrize("text, where", [
    ("", "history.csv:1: expected the header"),
    ("epoch,loss\r\n", "history.csv:1: expected the header"),
    ("epoch,loss,lr\r\n0,0.5,0.1\r\n1,x,0.1\r\n", "history.csv:3: expected 'epoch,loss,lr'"),
    ("epoch,loss,lr\r\n0,0.5\r\n", "history.csv:2: expected 'epoch,loss,lr'"),
    ("epoch,loss,lr\r\n0,0.5,0.1\r\n2,0.4,0.1\r\n", "history.csv:3: expected epoch 1, got 2"),
])
def test_load_history_errors_name_file_and_line(tmp_path, text, where):
    path = tmp_path / "history.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=where):
        load_history(str(path))
