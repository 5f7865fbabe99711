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

from .autodiff import Tape
from .dataset import Corpus, TemporalQuery, tokenize
from .encoders import SegmentFeatureTable, encode_query
from .model import ModelBundle, ScoredMoment, score_grid
from .temporal import Moment, iou, moments_of, segment_iou

BUCKET_ORDER = ("none", "before", "after", "then", "while")
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
    for word in BUCKET_ORDER:
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


def rank_moments(
    video: Mapping[str, SegmentFeatureTable],
    query: TemporalQuery,
    bundle: ModelBundle,
    mode: str = "latent",
    tape: Tape | None = None,
    cache: dict | None = None,
    tokens: Sequence[str] | None = None,
) -> list[ScoredMoment]:
    """Score every candidate moment of the video for one query and sort by
    descending score (ties keep enumeration order).

    latent: contexts come from the model's context mode. gt_context: the
    stored ground-truth context is the only candidate; a query without one is
    an error here, callers decide the fallback.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"eval mode must be one of {EVAL_MODES}, got {mode!r}")
    cfg, params = bundle.config, bundle.params
    if mode == "gt_context" and query.context is None:
        raise ValueError(f"query {query.sentence!r} has no ground-truth context")
    if tape is None:
        tape = Tape(recording=False)
    if cache is None:
        cache = {}
    n = next(iter(video.values())).n_segments
    ids = bundle.vocab.encode(tokens if tokens is not None else query.tokens)
    fl = encode_query(tape, ids, params)
    bases = moments_of(n)
    pinned = query.context if mode == "gt_context" else None
    fused, chosen = score_grid(tape, cache, fl, [(video, 0, bases, pinned)], cfg, params)
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
    results = []
    for query, ranking in iter_rankings(corpus, bundle, mode):
        results.append(
            QueryResult(query.temporal_word, tuple(s.moment for s in ranking), (query.moment,))
        )
    return compute_metrics(results)


def iter_rankings(corpus: Corpus, bundle: ModelBundle, mode: str = "latent"):
    """(query, ranking) pairs, sharing one inference tape per video so
    query-independent visual work is reused."""
    for query, rank in _by_video(corpus, bundle):
        q_mode = mode if (mode == "latent" or query.context is not None) else "latent"
        yield query, rank(q_mode)


def _by_video(corpus: Corpus, bundle: ModelBundle, words: Sequence[str] | None = None):
    """Group the queries by video (only those of `words`, when given) and
    walk the videos in sorted id order. Yields each query with its ranker:
    `rank(mode="latent", tokens=None)` calls rank_moments on the video's
    shared inference tape and cache."""
    by_video: dict[str, list[TemporalQuery]] = {}
    for q in corpus.queries:
        if words is None or q.temporal_word in words:
            by_video.setdefault(q.video_id, []).append(q)
    for vid in sorted(by_video):
        video = corpus.features[vid]
        tape = Tape(recording=False)
        cache: dict = {}
        for query in by_video[vid]:
            yield query, functools.partial(rank_moments, video, query, bundle, tape=tape, cache=cache)


# -- context analyses --------------------------------------------------------------


def context_analyses(
    corpus: Corpus, bundle: ModelBundle, words: Sequence[str] = ("before", "after")
) -> dict:
    """Both context analyses from one walk over the queries of `words`, with
    one ranking of the full sentence and one of its context sentence fragment
    per query. Queries lacking a stored context or fragment are excluded and
    counted.

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
    rows: dict[str, dict[str, list]] = {w: {"all": [], "subset": []} for w in words}
    frag_rows: dict[str, list[tuple[float, float]]] = {w: [] for w in words}
    chosen_rows: dict[str, list[tuple[float, float]]] = {w: [] for w in words}
    excluded = two_region = 0
    for q, rank in _by_video(corpus, bundle, words):
        if q.context is None or q.context_sentence is None:
            excluded += 1
            continue
        ranking = rank()
        frag_top = rank(tokens=tokenize(q.context_sentence))[0].moment
        gt_set = q.context.segment_set()
        top = frozenset(frag_top.segments())
        frag_rows[q.temporal_word].append((float(top == gt_set), segment_iou(top, gt_set)))
        pred_ctx = ranking[0].chosen_context.segment_set()
        chosen_rows[q.temporal_word].append((float(pred_ctx == gt_set), segment_iou(pred_ctx, gt_set)))
        if len(q.context.regions) != 1:
            two_region += 1
            continue
        result = QueryResult(q.temporal_word, tuple(s.moment for s in ranking), (q.moment,))
        rows[q.temporal_word]["all"].append(result)
        if frag_top == q.context.regions[0]:
            rows[q.temporal_word]["subset"].append(result)
    delta: dict = {}
    for word in words:
        all_results = rows[word]["all"]
        subset = rows[word]["subset"]
        if not all_results or not subset:
            delta[word] = None
            continue
        full = _bucket(all_results)
        cond = _bucket(subset)
        delta[word] = {
            "full": full.to_dict(),
            "context_found": cond.to_dict(),
            "delta_r_at_1": cond.r_at_1 - full.r_at_1,
            "delta_miou": cond.miou - full.miou,
        }
    delta["excluded"] = excluded + two_region

    def summarize(table: dict[str, list[tuple[float, float]]]) -> dict:
        return {
            word: {"r_at_1": float(np.mean([v[0] for v in vals])),
                   "miou": float(np.mean([v[1] for v in vals])), "count": len(vals)}
            for word, vals in table.items() if vals
        }

    fragment = {
        "fragment_as_query": summarize(frag_rows),
        "chosen_context": summarize(chosen_rows),
        "excluded": excluded,
    }
    return {"context_conditioned_delta": delta, "context_fragment_eval": fragment}


def context_conditioned_delta(
    corpus: Corpus, bundle: ModelBundle, words: Sequence[str] = ("before", "after")
) -> dict:
    """The context_conditioned_delta table of context_analyses."""
    return context_analyses(corpus, bundle, words)["context_conditioned_delta"]


def context_fragment_eval(
    corpus: Corpus, bundle: ModelBundle, words: Sequence[str] = ("before", "after")
) -> dict:
    """The context_fragment_eval table of context_analyses."""
    return context_analyses(corpus, bundle, words)["context_fragment_eval"]


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
    words = [w for w in BUCKET_ORDER if any(w in rep.buckets for _, rep in rows)]
    extra = sorted(
        {w for _, rep in rows for w in rep.buckets} - set(BUCKET_ORDER)
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
