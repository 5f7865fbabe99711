"""Retrieval metrics, context analyses, and the frequency-prior baseline.

Rank-based retrieval over the enumerated candidate moments of each video:
R@1 and R@5 ask whether an exact match to any consensus moment appears in the
top k; mIoU averages the best IoU between the rank-1 moment and the consensus
moments. Scores are bucketed by temporal word, and the Average column is the
unweighted mean over buckets so rare words weigh as much as common ones.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .autodiff import Node, Tape
from .dataset import QUERY_WORDS, Corpus, TemporalQuery, tokenize
from .encoders import SegmentFeatureTable, encode_queries, encode_query
from .model import ModelBundle, ScoredMoment, check_query_context, score_grid
from .temporal import Moment, iou, moments_of, segment_iou

EVAL_MODES = ("latent", "gt_context")


def consensus(annotations: Sequence[Moment]) -> list[Moment]:
    """Collapse multi-annotator moments to the agreeable core.

    With four or more annotations, keep the three with the highest total
    pairwise IoU (lexicographically earliest combination on ties); with fewer,
    keep everything.
    """
    if not annotations:
        raise ValueError("no annotations")
    if len(annotations) < 4:
        return list(annotations)
    # max keeps the first of equal totals
    best = max(
        itertools.combinations(annotations, 3),
        key=lambda moments: sum(iou(a, b) for a, b in itertools.combinations(moments, 2)),
    )
    return list(best)


@dataclass(frozen=True)
class BucketMetrics:
    r_at_1: float
    r_at_5: float
    miou: float
    count: int

    def to_dict(self) -> dict:
        return {"r_at_1": self.r_at_1, "r_at_5": self.r_at_5, "miou": self.miou, "count": self.count}


@dataclass
class MetricsReport:
    buckets: dict[str, BucketMetrics]
    average: BucketMetrics

    def to_dict(self) -> dict:
        return {
            "buckets": {w: b.to_dict() for w, b in self.buckets.items()},
            "average": self.average.to_dict(),
        }


@dataclass(frozen=True)
class QueryResult:
    """What the metrics need from one evaluated query."""

    word: str
    ranked: tuple[Moment, ...]
    annotations: tuple[Moment, ...]


def compute_metrics(results: Sequence[QueryResult]) -> MetricsReport:
    if not results:
        raise ValueError("no results to score")
    per_word: dict[str, list[QueryResult]] = {}
    for r in results:
        per_word.setdefault(r.word, []).append(r)
    buckets: dict[str, BucketMetrics] = {}
    for word in QUERY_WORDS:
        group = per_word.pop(word, None)
        if group:
            buckets[word] = _bucket(group)
    for word in sorted(per_word):
        buckets[word] = _bucket(per_word[word])
    avg = BucketMetrics(
        float(np.mean([b.r_at_1 for b in buckets.values()])),
        float(np.mean([b.r_at_5 for b in buckets.values()])),
        float(np.mean([b.miou for b in buckets.values()])),
        sum(b.count for b in buckets.values()),
    )
    return MetricsReport(buckets, avg)


def _bucket(group: Sequence[QueryResult]) -> BucketMetrics:
    r1 = r5 = miou = 0.0
    for r in group:
        cons = consensus(r.annotations)
        hits = [m in cons for m in r.ranked[:5]]
        r1 += float(hits[0])
        r5 += float(any(hits))
        miou += max(iou(r.ranked[0], c) for c in cons)
    n = len(group)
    return BucketMetrics(r1 / n, r5 / n, miou / n, n)


# -- model ranking ---------------------------------------------------------------

ANALYSED_WORDS = ("before", "after")


def rank_moments(
    video: Mapping[str, SegmentFeatureTable],
    query: TemporalQuery,
    bundle: ModelBundle,
    mode: str = "latent",
    tape: Tape | None = None,
    tokens: Sequence[str] | None = None,
    encoded: Node | None = None,
) -> list[ScoredMoment]:
    """Score every candidate moment of the video for one query and sort by
    descending score (ties keep enumeration order).

    latent: contexts come from the model's context mode. gt_context: the
    stored ground-truth context is the only candidate; a query without one
    is ranked with latent contexts.

    The query is `tokens` when given (a context fragment), else the query's
    sentence. `encoded` is that text already encoded, a (joint_dim,) node on
    `tape`: the evaluation walk passes each query its row of the video's one
    `encode_queries` stack, which is bit for bit the encoding of the text
    alone. Without it (a cold call, such as `inspect`) the query is encoded
    here. Either way the moments are scored by one `score_grid` call.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"eval mode must be one of {EVAL_MODES}, got {mode!r}")
    cfg, params = bundle.config, bundle.params
    if tape is None:
        tape = Tape(recording=False)
    n = next(iter(video.values())).n_segments
    if encoded is None:
        ids = bundle.vocab.encode(tokens if tokens is not None else query.tokens)
        encoded = encode_query(tape, ids, params)
    bases = moments_of(n)
    pinned = query.context if mode == "gt_context" else None
    if pinned is not None:
        check_query_context(pinned, query.moment, cfg.context_slots, n, query.video_id,
                            query.sentence)
    fused, chosen = score_grid(tape, encoded, [(video, 0, bases, pinned)], cfg, params)
    scored = [
        ScoredMoment(base, float(value), context)
        for base, value, context in zip(bases, fused.value, chosen)
    ]
    return sorted(scored, key=lambda s: -s.score)


def evaluate(
    corpus: Corpus, bundle: ModelBundle, mode: str = "latent"
) -> MetricsReport:
    """Bucketed metrics over a corpus split. In gt_context mode, queries that
    carry no stored context fall back to latent scoring."""
    return evaluate_with_analyses(corpus, bundle, mode, words=())[0]


def evaluate_with_analyses(
    corpus: Corpus, bundle: ModelBundle, mode: str = "latent",
    words: Sequence[str] = ANALYSED_WORDS,
) -> tuple[MetricsReport, dict]:
    """The metrics in `mode` and both context analyses of `words` from one
    walk over the split. Each analysed query has one ranking of the full
    sentence and one of its context sentence fragment, both latent; in
    latent mode the first is also its metrics ranking, and gt_context mode
    adds its pinned ranking. Queries lacking a stored context or fragment are
    excluded and counted.

    context_conditioned_delta: how much easier are queries whose context the
    model already finds? Per word, the metrics of the subset whose fragment
    ranks the ground-truth context at rank 1, against all queries of the
    word, and their deltas. Two-region contexts are excluded too.

    context_fragment_eval: can the model localize the context itself? Row
    "fragment_as_query" scores the fragment's rank-1 moment against the
    ground-truth context; row "chosen_context" scores the chosen context of
    the full sentence's rank-1 moment. R@1 is exact segment-set equality and
    mIoU is segment-set IoU, so two-region contexts are handled.
    """
    results, rows, excluded = [], [], 0
    for query, ranking, analysis in _by_video(corpus, bundle, mode, words):
        results.append(_result(query, ranking))
        if analysis is not None:
            rows.append((query, *analysis))
        elif query.temporal_word in words:
            excluded += 1
    return compute_metrics(results), _analyses(rows, words, excluded)


def iter_rankings(corpus: Corpus, bundle: ModelBundle, mode: str = "latent"):
    """(query, ranking) pairs, sharing one inference tape per video so
    query-independent visual work is reused."""
    for query, ranking, _ in _by_video(corpus, bundle, mode, ()):
        yield query, ranking


def _result(query: TemporalQuery, ranking: Sequence[ScoredMoment]) -> QueryResult:
    return QueryResult(query.temporal_word, tuple(s.moment for s in ranking), (query.moment,))


def _by_video(corpus: Corpus, bundle: ModelBundle, mode: str, words: Sequence[str]):
    """Walk the queries video by video, in sorted video id order, and yield
    `(query, ranking, analysis)` for each.

    `ranking` is the query's metrics ranking in `mode` (`rank_moments` ranks
    a gt_context query without a stored context as latent). `analysis` is
    the query's `(full-sentence ranking, fragment ranking)`, both latent,
    when its word is one of `words` and it has a stored context and a context
    fragment; otherwise None. `words` is empty for a walk without analyses
    (`evaluate`, `iter_rankings`). In latent mode the full-sentence ranking
    is the metrics ranking itself.

    Each video gets one inference tape, whose `memo` its rankings share, and
    one `encode_queries` call over its sentences and the fragments it
    analyses. Every ranking is one `rank_moments` call with its text's row of
    that stack (`take_row`).
    """
    by_video: dict[str, list[TemporalQuery]] = {}
    for q in corpus.queries:
        by_video.setdefault(q.video_id, []).append(q)
    for vid in sorted(by_video):
        texts: list[Sequence[str]] = []
        plan = []  # per query: its sentence's and its fragment's rows of the stack
        for q in by_video[vid]:
            sentence, fragment = len(texts), None
            texts.append(q.tokens)
            if q.temporal_word in words and q.context is not None \
                    and q.context_sentence is not None:
                fragment = len(texts)
                texts.append(tokenize(q.context_sentence))
            plan.append((q, sentence, fragment))
        tape = Tape(recording=False)
        stack = encode_queries(tape, [bundle.vocab.encode(t) for t in texts], bundle.params)
        rank = functools.partial(rank_moments, corpus.features[vid], bundle=bundle, tape=tape)
        for q, sentence, fragment in plan:
            ranking = rank(q, mode=mode, encoded=tape.take_row(stack, sentence))
            analysis = None
            if fragment is not None:
                full = ranking if mode == "latent" else rank(q, encoded=tape.take_row(stack, sentence))
                analysis = (full, rank(q, encoded=tape.take_row(stack, fragment)))
            yield q, ranking, analysis


# -- context analyses --------------------------------------------------------------


def _overlap(found: frozenset[int], gt: frozenset[int]) -> tuple[float, float]:
    """(hit, IoU) of a found segment set against the ground-truth one."""
    return float(found == gt), segment_iou(found, gt)


def _summary(overlaps: Sequence[tuple[float, float]]) -> dict:
    hits, ious = zip(*overlaps)
    return {"r_at_1": float(np.mean(hits)), "miou": float(np.mean(ious)), "count": len(overlaps)}


def _analyses(rows, words: Sequence[str], excluded: int) -> dict:
    """The tables of evaluate_with_analyses from one `(query, full-sentence
    ranking, fragment ranking)` row per analysed query, in walk order;
    `excluded` counts the queries of `words` that have no row."""
    # per word: (fragment, chosen context) overlaps of every row, and
    # (QueryResult, context found) of every row with a single-region context
    overlaps: dict[str, list] = {w: [] for w in words}
    single: dict[str, list] = {w: [] for w in words}
    for q, ranking, fragment in rows:
        gt = q.context.segment_set()
        overlaps[q.temporal_word].append((_overlap(frozenset(fragment[0].moment.segments()), gt),
                                          _overlap(ranking[0].chosen_context.segment_set(), gt)))
        if len(q.context.regions) == 1:
            single[q.temporal_word].append(
                (_result(q, ranking), fragment[0].moment == q.context.regions[0]))
    # the delta table also excludes the rows with a two-region context
    delta: dict = {"excluded": excluded + len(rows) - sum(map(len, single.values()))}
    for word, pairs in single.items():
        subset = [result for result, found in pairs if found]
        delta[word] = None
        if subset:
            full, cond = _bucket([result for result, _ in pairs]), _bucket(subset)
            delta[word] = {"full": full.to_dict(), "context_found": cond.to_dict(),
                           "delta_r_at_1": cond.r_at_1 - full.r_at_1,
                           "delta_miou": cond.miou - full.miou}
    fragment = {
        "fragment_as_query": {w: _summary([f for f, _ in o]) for w, o in overlaps.items() if o},
        "chosen_context": {w: _summary([c for _, c in o]) for w, o in overlaps.items() if o},
        "excluded": excluded,
    }
    return {"context_conditioned_delta": delta, "context_fragment_eval": fragment}


def context_conditioned_delta(corpus: Corpus, bundle: ModelBundle) -> dict:
    """The context_conditioned_delta table of evaluate_with_analyses."""
    return evaluate_with_analyses(corpus, bundle)[1]["context_conditioned_delta"]


def context_fragment_eval(corpus: Corpus, bundle: ModelBundle) -> dict:
    """The context_fragment_eval table of evaluate_with_analyses."""
    return evaluate_with_analyses(corpus, bundle)[1]["context_fragment_eval"]


# -- frequency prior -----------------------------------------------------------------


class FrequencyPrior:
    """Query-blind baseline: rank moments by how often each (temporal word,
    moment) pair is the ground truth in training, ties and unseen words
    falling back to enumeration order."""

    def __init__(self, counts: Mapping[str, Mapping[Moment, int]]):
        self._counts = {w: dict(c) for w, c in counts.items()}

    @classmethod
    def fit(cls, queries: Sequence[TemporalQuery]) -> "FrequencyPrior":
        counts: dict[str, Counter] = {}
        for q in queries:
            counts.setdefault(q.temporal_word, Counter())[q.moment] += 1
        return cls(counts)

    def rank(self, word: str, n_segments: int) -> list[Moment]:
        moments = moments_of(n_segments)
        table = self._counts.get(word, {})
        return sorted(moments, key=lambda m: -table.get(m, 0))

    def evaluate(self, corpus: Corpus) -> MetricsReport:
        results = [
            QueryResult(
                q.temporal_word,
                tuple(self.rank(q.temporal_word, corpus.n_segments(q.video_id))),
                (q.moment,),
            )
            for q in corpus.queries
        ]
        return compute_metrics(results)


# -- text report ---------------------------------------------------------------------


def format_comparison_table(rows: Sequence[tuple[str, MetricsReport]]) -> str:
    """Aligned text table: one row per labelled report, column groups per
    temporal word (R@1, mIoU x100) and a final Average group (R@1, R@5, mIoU)."""
    if not rows:
        raise ValueError("no rows")
    words = [w for w in QUERY_WORDS if any(w in rep.buckets for _, rep in rows)]
    extra = sorted(
        {w for _, rep in rows for w in rep.buckets} - set(QUERY_WORDS)
    )
    words += extra
    header_1 = ["model"]
    header_2 = [""]
    for w in words:
        header_1 += [w, ""]
        header_2 += ["R@1", "mIoU"]
    header_1 += ["average", "", ""]
    header_2 += ["R@1", "R@5", "mIoU"]
    table = [header_1, header_2]
    for label, rep in rows:
        row = [label]
        for w in words:
            b = rep.buckets.get(w)
            row += ["-", "-"] if b is None else [f"{100 * b.r_at_1:.2f}", f"{100 * b.miou:.2f}"]
        row += [
            f"{100 * rep.average.r_at_1:.2f}",
            f"{100 * rep.average.r_at_5:.2f}",
            f"{100 * rep.average.miou:.2f}",
        ]
        table.append(row)
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    lines = []
    for r in table:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip())
    return "\n".join(lines) + "\n"
