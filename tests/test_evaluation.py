from dataclasses import replace

import numpy as np
import pytest

from momentloc import evaluation
from momentloc.autodiff import Tape
from momentloc.dataset import Corpus, TemporalQuery, tokenize
from momentloc.encoders import Vocabulary, encode_queries
from momentloc.evaluation import (
    ANALYSED_WORDS,
    EVAL_MODES,
    BucketMetrics,
    FrequencyPrior,
    MetricsReport,
    QueryResult,
    compute_metrics,
    consensus,
    context_conditioned_delta,
    context_fragment_eval,
    evaluate,
    evaluate_with_analyses,
    format_comparison_table,
    iter_rankings,
    rank_moments,
    _by_video,
)
from momentloc.model import ModelBundle, conform_context, init_params, score
from momentloc.temporal import ContextMoment, Moment, enumerate_moments, iou

from helpers import count_rank_calls, tiny_model_config, tiny_video

G = Moment(0, 1)


def test_consensus_small_groups_pass_through():
    assert consensus([G]) == [G]
    assert consensus([G, Moment(4, 5), Moment(2, 2)]) == [G, Moment(4, 5), Moment(2, 2)]
    with pytest.raises(ValueError):
        consensus([])


def test_consensus_keeps_most_agreeable_triple():
    out = Moment(5, 6)
    assert consensus([G, G, out, G]) == [G, G, G]
    assert consensus([out, G, G, G]) == [G, G, G]
    # five annotators, two camps; the larger camp wins
    a, b = Moment(0, 1), Moment(4, 5)
    assert consensus([b, a, b, a, b]) == [b, b, b]


def test_consensus_tie_takes_earliest_combination():
    a, b = Moment(0, 0), Moment(5, 5)
    # every triple totals 1.0; indices (0, 1, 2) win
    assert consensus([a, a, b, b]) == [a, a, b]


def test_compute_metrics_hand_case():
    results = [
        QueryResult("none", (G, Moment(2, 3)), (G,)),
        QueryResult("none", (Moment(1, 2), G, Moment(3, 3)), (G,)),
        QueryResult(
            "before",
            (Moment(2, 3), Moment(4, 5), Moment(2, 2), Moment(3, 3), Moment(4, 4), G),
            (G,),
        ),
    ]
    report = compute_metrics(results)
    assert list(report.buckets) == ["none", "before"]
    none_b = report.buckets["none"]
    assert none_b.r_at_1 == 0.5
    assert none_b.r_at_5 == 1.0
    assert none_b.miou == pytest.approx((1.0 + 1.0 / 3.0) / 2.0)
    assert none_b.count == 2
    before_b = report.buckets["before"]
    assert before_b == BucketMetrics(0.0, 0.0, 0.0, 1)
    assert report.average.r_at_1 == 0.25
    assert report.average.r_at_5 == 0.5
    assert report.average.miou == pytest.approx((1.0 + 1.0 / 3.0) / 4.0)
    assert report.average.count == 3
    with pytest.raises(ValueError):
        compute_metrics([])


def test_average_is_unweighted_over_buckets():
    hit = QueryResult("none", (G,), (G,))
    miss = QueryResult("then", (Moment(4, 5),), (G,))
    report = compute_metrics([hit, hit, hit, miss])
    assert report.average.r_at_1 == 0.5
    assert report.average.count == 4


def test_metrics_respect_consensus():
    out = Moment(4, 5)
    anns = (G, G, out, G)
    hit = compute_metrics([QueryResult("none", (G,), anns)])
    assert hit.average.r_at_1 == 1.0
    dropped = compute_metrics([QueryResult("none", (out, G), anns)])
    # the outlier annotation is not in the consensus, so rank 1 does not count
    assert dropped.average.r_at_1 == 0.0
    assert dropped.average.r_at_5 == 1.0
    assert dropped.average.miou == 0.0


def test_bucket_order_in_report():
    results = [
        QueryResult(w, (G,), (G,))
        for w in ("zebra", "while", "after", "none", "then", "before")
    ]
    report = compute_metrics(results)
    assert list(report.buckets) == ["none", "before", "after", "then", "while", "zebra"]


# -- model-driven ranking ------------------------------------------------------------


def make_bundle(queries, extra_sentences=(), **overrides):
    cfg = tiny_model_config(**overrides)
    token_lists = [q.tokens for q in queries]
    token_lists += [tokenize(s) for s in extra_sentences]
    vocab = Vocabulary.from_token_lists(token_lists)
    cfg = replace(cfg, vocab_size=vocab.size)
    params = init_params(cfg, np.random.default_rng(0))
    return ModelBundle(cfg, params, vocab)


@pytest.mark.parametrize("context_mode, context", [
    ("latent", ContextMoment.single(Moment(3, 5))),
    ("global", ContextMoment.single(Moment(6, 7))),
    ("before_after", ContextMoment.pair(Moment(0, 0), Moment(5, 6))),
])
def test_cold_gt_context_ranking_rejects_a_context_outside_the_video(rng, context_mode, context):
    """A gt_context ranking scores under the stored context or not at all: a
    context that runs past the video's end is an error naming the query. It
    does not fall back to latent candidates the way a training negative in a
    too-short video does."""
    query = TemporalQuery("v0", "One before two.", Moment(0, 1), "before", context)
    bundle = make_bundle([query], context_mode=context_mode)
    with pytest.raises(ValueError, match=r"^video 'v0', query 'One before two.': "
                                         r"context Moment\(.*\) exceeds video with 4 segments$"):
        rank_moments(tiny_video(rng, 4), query, bundle, "gt_context")


def test_rank_moments_orders_all_candidates(rng):
    video = tiny_video(rng, 4)
    query = TemporalQuery("v0", "Something happens.", Moment(0, 0))
    bundle = make_bundle([query])
    ranking = rank_moments(video, query, bundle)
    assert len(ranking) == 10
    assert {s.moment for s in ranking} == set(enumerate_moments(4))
    scores = [s.score for s in ranking]
    assert scores == sorted(scores, reverse=True)
    # each entry agrees with scoring the triple in isolation
    ids = bundle.vocab.encode(query.tokens)
    for entry in ranking:
        alone = score(video, ids, entry.moment, bundle.config, bundle.params)
        assert alone.score == entry.score
        assert alone.chosen_context == entry.chosen_context


@pytest.mark.parametrize("mode", ["latent", "gt_context"])
@pytest.mark.parametrize("modalities", [("rgb",), ("rgb", "flow")])
@pytest.mark.parametrize("context_mode", ["global", "before_after", "latent"])
def test_rank_moments_matches_score_exactly(rng, mode, modalities, context_mode):
    """The grid ranking of a whole video gives every moment the score and the
    chosen context of scoring that moment alone, bit for bit, for every
    similarity head and endpoint-feature mode. Constant features make
    contexts tie, and the tie must go to the same (earliest) context."""
    video = tiny_video(rng, 5, modalities=modalities)
    flat = tiny_video(rng, 5, modalities=modalities)
    for table in flat.values():
        table.features[:] = table.features[0]
    query = TemporalQuery("v0", "A before b.", Moment(1, 2), "before",
                          ContextMoment.single(Moment(3, 4)), "b")
    for sim in ("distance", "mult", "normalized_mult", "tall_sim"):
        for tef_mode in ("none", "tef", "contef"):
            bundle = make_bundle([query], similarity=sim, tef_mode=tef_mode,
                                 context_mode=context_mode, modalities=modalities,
                                 fusion_lambda=0.35)
            ids = bundle.vocab.encode(query.tokens)
            gt = query.context if mode == "gt_context" else None
            for feats in (video, flat):
                ranking = rank_moments(feats, query, bundle, mode)
                assert len(ranking) == 15
                for entry in ranking:
                    alone = score(feats, ids, entry.moment, bundle.config, bundle.params, gt)
                    assert (alone.score, alone.chosen_context) == (
                        entry.score, entry.chosen_context)


def test_rank_moments_gt_context_mode(rng):
    video = tiny_video(rng, 4)
    ctx = ContextMoment.single(Moment(2, 2))
    query = TemporalQuery("v0", "A before b.", Moment(0, 0), "before", ctx, "b")
    bundle = make_bundle([query])
    ranking = rank_moments(video, query, bundle, mode="gt_context")
    for entry in ranking:
        assert entry.chosen_context == conform_context(
            ctx, entry.moment, bundle.config.context_slots,
        )
    # a query without a stored context ranks as latent: the same moments,
    # scores and chosen contexts
    bare = TemporalQuery("v0", "A before b.", Moment(0, 0), "before")
    assert rank_moments(video, bare, bundle, mode="gt_context") == rank_moments(video, bare, bundle)
    with pytest.raises(ValueError, match="eval mode"):
        rank_moments(video, query, bundle, mode="oracle")


def test_gt_context_eval_names_the_query_whose_context_does_not_fit(rng):
    """A two-region stored context under a 1-slot model fails the gt_context
    evaluation with an error that names the video and the sentence."""
    features = {"v0": tiny_video(rng, 5, video_id="v0")}
    two = ContextMoment.pair(Moment(0, 0), Moment(4, 4))
    queries = [TemporalQuery("v0", "First thing.", Moment(1, 1)),
               TemporalQuery("v0", "A between b and c.", Moment(2, 3), "while", two)]
    bundle = make_bundle(queries, context_mode="latent")
    with pytest.raises(ValueError, match=r"video 'v0', query 'A between b and c\.'.*does not fit"):
        evaluate(Corpus(features, queries), bundle, "gt_context")


def test_evaluate_and_fallback(rng):
    features = {
        "v0": tiny_video(rng, 4, video_id="v0"),
        "v1": tiny_video(rng, 4, video_id="v1"),
    }
    queries = [
        TemporalQuery("v0", "First thing.", Moment(0, 1)),
        TemporalQuery("v0", "One before two.", Moment(0, 0), "before"),
        TemporalQuery("v1", "Second thing.", Moment(2, 3)),
    ]
    corpus = Corpus(features, queries)
    bundle = make_bundle(queries)
    latent = evaluate(corpus, bundle, mode="latent")
    assert set(latent.buckets) == {"none", "before"}
    assert latent.average.count == 3
    # no query stores a context, so gt_context falls back to latent everywhere
    fallback = evaluate(corpus, bundle, mode="gt_context")
    assert fallback.to_dict() == latent.to_dict()


def test_iter_rankings_covers_every_query(rng):
    features = {
        "v0": tiny_video(rng, 3, video_id="v0"),
        "v1": tiny_video(rng, 4, video_id="v1"),
    }
    queries = [
        TemporalQuery("v1", "B.", Moment(1, 1)),
        TemporalQuery("v0", "A.", Moment(0, 0)),
        TemporalQuery("v0", "C.", Moment(2, 2)),
    ]
    bundle = make_bundle(queries)
    pairs = list(iter_rankings(Corpus(features, queries), bundle))
    assert [q.sentence for q, _ in pairs] == ["A.", "C.", "B."]  # grouped by video id
    assert [len(r) for _, r in pairs] == [6, 6, 10]


@pytest.mark.parametrize("context_mode", ["global", "before_after", "latent"])
def test_shared_video_cache_matches_fresh_rankings(rng, context_mode):
    """Sharing one inference tape and cache across a video's queries must give
    every query the same ranking, moments, scores and chosen contexts, as
    scoring it in isolation, in latent and in gt_context mode. Guards the
    cache keys: a key tied to a collected object's address silently hands one
    query another query's embedding once the allocator reuses the slot, and
    a key that missed the pinned context would hand a gt_context query
    another query's context. The gt_context queries pin different contexts,
    two pin the same one, and one pins none and falls back to latent."""
    video = tiny_video(rng, 4, modalities=("rgb", "flow"))
    pinned = [ContextMoment.single(Moment(s, e)) for s, e in ((1, 2), (0, 0), (3, 3), (1, 2), (2, 3))]
    queries = [
        TemporalQuery("v0", f"word{i} alone here.", Moment(i % 4, i % 4), "before",
                      pinned[i] if i < len(pinned) else None)
        for i in range(8)
    ]
    bundle = make_bundle(queries, similarity="normalized_mult", context_mode=context_mode,
                         modalities=("rgb", "flow"))
    corpus = Corpus({"v0": video}, queries)
    for mode in ("latent", "gt_context"):
        shared = [ranking for _, ranking in iter_rankings(corpus, bundle, mode)]
        for query, got in zip(queries, shared):
            fresh = rank_moments(video, query, bundle,
                                 mode=mode if query.context is not None else "latent")
            assert [(s.moment, s.score, s.chosen_context) for s in got] == [
                (s.moment, s.score, s.chosen_context) for s in fresh
            ]


def test_a_ranking_leaves_one_cache_entry(rng):
    """The scorer memoizes one ("fv", ...) entry per score_grid call that
    misses, whatever the modalities: a second latent query of the video finds
    it, and a gt_context query with a new pinned context adds one."""
    video = tiny_video(rng, 4, modalities=("rgb", "flow"))
    first = TemporalQuery("v0", "One thing.", Moment(0, 0), "before", ContextMoment.single(Moment(1, 2)))
    second = TemporalQuery("v0", "Another thing.", Moment(1, 1))
    bundle = make_bundle([first, second], modalities=("rgb", "flow"))
    tape = Tape(recording=False)
    rank_moments(video, first, bundle, tape=tape)
    assert [key[0] for key in tape.memo] == ["fv"]
    rank_moments(video, second, bundle, tape=tape)
    assert len(tape.memo) == 1
    rank_moments(video, first, bundle, mode="gt_context", tape=tape)
    assert [key[0] for key in tape.memo] == ["fv", "fv"]


def test_one_tape_ranks_other_videos_that_share_an_id(rng):
    """The scorer's memo names a video by its feature mapping, not by its
    `video_id`: one inference tape that ranks two different videos both
    called "v0", or the same two through mappings built afresh for every
    call, whose addresses the allocator hands out again, gives each ranking
    exactly its cold `rank_moments` result."""
    videos = [tiny_video(rng, 4, modalities=("rgb", "flow"), video_id="v0") for _ in range(2)]
    query = TemporalQuery("v0", "One thing.", Moment(0, 0))
    bundle = make_bundle([query], modalities=("rgb", "flow"))

    def summary(ranking):
        return [(s.moment, s.score, s.chosen_context) for s in ranking]

    cold = [summary(rank_moments(video, query, bundle)) for video in videos]
    assert cold[0] != cold[1]
    tape = Tape(recording=False)
    assert [summary(rank_moments(video, query, bundle, tape=tape)) for video in videos] == cold
    assert len(tape.memo) == 2
    tape = Tape(recording=False)
    for i in (0, 1, 0, 1):
        mapping = {modality: table for modality, table in videos[i].items()}
        got = rank_moments(mapping, query, bundle, tape=tape)
        del mapping  # the next mapping may take its address
        assert summary(got) == cold[i]
    assert len(tape.memo) == 4


# -- context analyses -----------------------------------------------------------------


def analysis_fixture(rng):
    features = {"v0": tiny_video(rng, 4, video_id="v0")}
    q1 = TemporalQuery("v0", "One before two.", Moment(0, 0), "before",
                       ContextMoment.single(Moment(1, 1)), "ctx one")
    q2 = TemporalQuery("v0", "Three before four.", Moment(1, 1), "before",
                       ContextMoment.single(Moment(2, 2)), "ctx two")
    q3 = TemporalQuery("v0", "Five before six.", Moment(2, 2), "before")
    bundle = make_bundle([q1, q2, q3], extra_sentences=["ctx one", "ctx two"])
    # pin q1's context to the fragment's top-ranked moment and q2's to the
    # bottom-ranked one, making subset membership deterministic
    frag1 = rank_moments(features["v0"], q1, bundle, tokens=tokenize("ctx one"))
    frag2 = rank_moments(features["v0"], q2, bundle, tokens=tokenize("ctx two"))
    q1 = replace(q1, context=ContextMoment.single(frag1[0].moment))
    q2 = replace(q2, context=ContextMoment.single(frag2[-1].moment))
    return Corpus(features, [q1, q2, q3]), bundle


def test_context_conditioned_delta(rng):
    corpus, bundle = analysis_fixture(rng)
    out = context_conditioned_delta(corpus, bundle)
    assert out["excluded"] == 1  # the query with no stored context
    assert out["after"] is None  # no "after" queries at all
    row = out["before"]
    assert row["full"]["count"] == 2
    assert row["context_found"]["count"] == 1
    assert row["delta_r_at_1"] == pytest.approx(
        row["context_found"]["r_at_1"] - row["full"]["r_at_1"]
    )
    assert row["delta_miou"] == pytest.approx(
        row["context_found"]["miou"] - row["full"]["miou"]
    )


def test_a_word_whose_fragments_all_miss_their_context_has_no_delta_row(rng):
    """A word whose analysed single-region queries all have a fragment that
    misses the context has rows but no `context_found` subset, so its delta
    row is None while the fragment table still counts it; the other word,
    whose fragment finds its context, gets a full row."""
    features = {"v0": tiny_video(rng, 4, video_id="v0")}
    queries = [
        TemporalQuery("v0", "One before two.", Moment(0, 0), "before",
                      ContextMoment.single(Moment(1, 1)), "ctx one"),
        TemporalQuery("v0", "Three after four.", Moment(2, 2), "after",
                      ContextMoment.single(Moment(1, 1)), "ctx two"),
        TemporalQuery("v0", "Five after six.", Moment(3, 3), "after",
                      ContextMoment.single(Moment(2, 2)), "ctx three"),
    ]
    bundle = make_bundle(queries, extra_sentences=[q.context_sentence for q in queries])
    # pin each "before" context to its fragment's top-ranked moment and each
    # "after" context to the bottom-ranked one
    pinned = []
    for q in queries:
        frag = rank_moments(features["v0"], q, bundle, tokens=tokenize(q.context_sentence))
        top = frag[0 if q.temporal_word == "before" else -1].moment
        pinned.append(replace(q, context=ContextMoment.single(top)))
    corpus = Corpus(features, pinned)
    delta = context_conditioned_delta(corpus, bundle)
    assert delta["excluded"] == 0
    assert delta["after"] is None
    row = delta["before"]
    assert row["full"] == row["context_found"]
    assert row["full"]["count"] == 1
    assert row["delta_r_at_1"] == row["delta_miou"] == 0.0
    frag = context_fragment_eval(corpus, bundle)["fragment_as_query"]
    assert frag["after"]["count"] == 2 and frag["after"]["r_at_1"] == 0.0
    assert frag["before"]["count"] == 1 and frag["before"]["r_at_1"] == 1.0


def test_context_fragment_eval(rng):
    corpus, bundle = analysis_fixture(rng)
    out = context_fragment_eval(corpus, bundle)
    assert out["excluded"] == 1
    frag = out["fragment_as_query"]["before"]
    # q1's context IS the fragment's top-1, q2's is the bottom-ranked moment
    assert frag["r_at_1"] == 0.5
    assert frag["count"] == 2
    assert 0.0 <= frag["miou"] <= 1.0
    chosen = out["chosen_context"]["before"]
    assert chosen["count"] == 2
    assert 0.0 <= chosen["r_at_1"] <= 1.0
    assert 0.0 <= chosen["miou"] <= 1.0
    assert "after" not in out["fragment_as_query"]


def test_context_analyses_rank_each_query_once_and_each_fragment_once(rng, monkeypatch):
    """One latent walk makes both tables, with one ranking per query, which
    is also the full-sentence ranking of an analysed query, and one per
    analysed fragment; a two-region context counts in the fragment table and
    is excluded from the delta table. The walk takes an eval mode only."""
    corpus, bundle = analysis_fixture(rng)
    two = TemporalQuery("v0", "Seven after eight.", Moment(1, 2), "after",
                        ContextMoment.pair(Moment(0, 0), Moment(3, 3)), "ctx one")
    corpus = Corpus(corpus.features, [*corpus.queries, two])
    views = {"context_conditioned_delta": context_conditioned_delta(corpus, bundle),
             "context_fragment_eval": context_fragment_eval(corpus, bundle)}
    calls = count_rank_calls(monkeypatch)
    both = evaluate_with_analyses(corpus, bundle, "latent")[1]
    analysed = [q.sentence for q in corpus.queries if q.context is not None]
    assert sorted(calls) == sorted([q.sentence for q in corpus.queries] + analysed)
    assert both == views
    assert both["context_conditioned_delta"]["excluded"] == 2
    assert both["context_conditioned_delta"]["after"] is None
    assert both["context_fragment_eval"]["excluded"] == 1
    assert both["context_fragment_eval"]["chosen_context"]["after"]["count"] == 1
    with pytest.raises(ValueError, match="eval mode"):
        evaluate_with_analyses(corpus, bundle, None)


# -- the per-video stack -----------------------------------------------------------


def stack_fixture(rng):
    """Two videos whose sentences and fragments differ in length (1 to 7
    tokens), so the stacked LSTM keeps the state of ended rows
    (`Tape.lstm`); v0 mixes analysed, fragment-less, context-less and
    untemporal queries, and v1's only before/after query has no fragment."""
    features = {"v0": tiny_video(rng, 5, modalities=("rgb", "flow"), video_id="v0"),
                "v1": tiny_video(rng, 4, modalities=("rgb", "flow"), video_id="v1")}
    ctx = ContextMoment.single
    queries = [
        TemporalQuery("v0", "one two three four five six seven.", Moment(0, 1), "before",
                      ctx(Moment(2, 2)), "ctx"),
        TemporalQuery("v0", "Short.", Moment(3, 3)),
        TemporalQuery("v1", "three before four and more.", Moment(1, 1), "after",
                      ctx(Moment(0, 0))),
        TemporalQuery("v0", "eight after nine.", Moment(2, 4), "after",
                      ctx(Moment(0, 1)), "the long context fragment here now"),
        TemporalQuery("v0", "ten then eleven.", Moment(1, 2), "then", ctx(Moment(0, 0)), "ten"),
        TemporalQuery("v0", "twelve before.", Moment(4, 4), "before"),
        TemporalQuery("v1", "Thirteen fourteen.", Moment(2, 3)),
        TemporalQuery("v0", "fifteen after sixteen.", Moment(1, 1), "after",
                      ctx(Moment(3, 4)), "ctx two"),
    ]
    fragments = [q.context_sentence for q in queries if q.context_sentence]
    bundle = make_bundle(queries, extra_sentences=fragments, similarity="normalized_mult",
                         context_mode="latent", modalities=("rgb", "flow"))
    return Corpus(features, queries), bundle


def triples(ranking):
    return [(s.moment, s.score, s.chosen_context) for s in ranking]


def test_stacked_walk_matches_isolated_rankings(rng):
    """Every ranking of the walk, from its query's row of the video's one
    `encode_queries` stack, equals a cold `rank_moments` call of that text
    alone, bit for bit: metrics rankings in both eval modes, and the full
    sentence and fragment rankings of the analyses."""
    corpus, bundle = stack_fixture(rng)

    def alone(q, mode="latent", tokens=None):
        return triples(rank_moments(corpus.features[q.video_id], q, bundle, mode, tokens=tokens))

    for mode in EVAL_MODES:
        for q, ranking in iter_rankings(corpus, bundle, mode):
            assert triples(ranking) == alone(q, mode if q.context is not None else "latent")
    analysed = 0
    for mode in EVAL_MODES:
        walked = list(_by_video(corpus, bundle, mode, ANALYSED_WORDS))
        assert len(walked) == len(corpus.queries)
        for q, ranking, analysis in walked:
            assert triples(ranking) == alone(q, mode if q.context is not None else "latent")
            if analysis is None:
                assert q.temporal_word not in ANALYSED_WORDS or q.context_sentence is None
                continue
            analysed += 1
            assert triples(analysis[0]) == alone(q)
            assert triples(analysis[1]) == alone(q, tokens=tokenize(q.context_sentence))
    assert analysed == 3 * 2


def test_one_walk_gives_the_metrics_and_the_analyses(rng):
    """`evaluate_with_analyses` gives `evaluate`'s metrics and the latent
    walk's analyses from one walk, in both eval modes, and without analysed
    words it is `evaluate`."""
    corpus, bundle = stack_fixture(rng)
    analyses = evaluate_with_analyses(corpus, bundle, "latent")[1]
    assert analyses["context_conditioned_delta"]["excluded"] == 2
    for mode in EVAL_MODES:
        report, both = evaluate_with_analyses(corpus, bundle, mode)
        assert report.to_dict() == evaluate(corpus, bundle, mode).to_dict()
        assert both == analyses
        assert evaluate_with_analyses(corpus, bundle, mode, ())[0].to_dict() == report.to_dict()


def test_each_video_is_encoded_in_one_stack(rng, monkeypatch):
    """A walk makes one `encode_queries` call per video and no
    `encode_query` call. The stack holds each sentence once and each
    analysed fragment; a query excluded from the analyses adds no
    fragment."""
    corpus, bundle = stack_fixture(rng)
    stacks = []

    def counted(tape, token_lists, params):
        stacks.append(len(token_lists))
        return encode_queries(tape, token_lists, params)

    def refused(*args, **kwargs):
        raise AssertionError("the walk encoded a query on its own")

    monkeypatch.setattr(evaluation, "encode_queries", counted)
    monkeypatch.setattr(evaluation, "encode_query", refused)
    for mode in EVAL_MODES:
        evaluate(corpus, bundle, mode)
        assert stacks == [6, 2]  # v0's six sentences, v1's two
        stacks.clear()
        evaluate_with_analyses(corpus, bundle, mode)
        assert stacks == [6 + 3, 2]  # and v0's three analysed fragments
        stacks.clear()


# -- frequency prior ------------------------------------------------------------------


def test_frequency_prior_rank():
    prior = FrequencyPrior.fit([
        TemporalQuery("a", "x.", Moment(1, 1)),
        TemporalQuery("b", "y.", Moment(1, 1)),
        TemporalQuery("c", "z.", Moment(0, 0)),
        TemporalQuery("d", "w before v.", Moment(2, 2), "before"),
    ])
    ranked = prior.rank("none", 3)
    assert ranked[0] == Moment(1, 1)
    assert ranked[1] == Moment(0, 0)
    assert set(ranked) == set(enumerate_moments(3))
    # unseen words keep enumeration order
    assert prior.rank("while", 3) == enumerate_moments(3)
    assert prior.rank("before", 3)[0] == Moment(2, 2)


def test_frequency_prior_evaluate(rng):
    features = {"v0": tiny_video(rng, 3, video_id="v0")}
    queries = [TemporalQuery("v0", "x.", Moment(1, 1)) for _ in range(3)]
    prior = FrequencyPrior.fit(queries)
    report = prior.evaluate(Corpus(features, queries))
    assert report.buckets["none"].r_at_1 == 1.0
    assert report.buckets["none"].miou == 1.0


# -- report formatting ----------------------------------------------------------------


def test_format_comparison_table():
    rep_a = compute_metrics([
        QueryResult("none", (G,), (G,)),
        QueryResult("before", (Moment(2, 3),), (G,)),
    ])
    rep_b = compute_metrics([QueryResult("none", (G,), (G,))])
    text = format_comparison_table([("model-a", rep_a), ("model-b", rep_b)])
    lines = text.splitlines()
    assert lines[0].startswith("model")
    assert "none" in lines[0] and "before" in lines[0] and "average" in lines[0]
    assert "R@1" in lines[1] and "mIoU" in lines[1] and "R@5" in lines[1]
    row_a = lines[2].split()
    assert row_a[0] == "model-a"
    assert "100.00" in row_a  # none R@1 on a 0..1 scale displays x100
    row_b = lines[3].split()
    assert "-" in row_b  # model-b has no before bucket
    with pytest.raises(ValueError):
        format_comparison_table([])
