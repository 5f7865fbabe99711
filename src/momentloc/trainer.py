"""SGD training loop for the moment scoring model.

One seeded generator drives everything stochastic: parameter initialization,
epoch shuffling, and negative sampling. Identical corpus + configs + seed give
an identical parameter trajectory, and a resumed run replays the draws of the
epochs it skips, so stopping and resuming changes nothing.
"""

from __future__ import annotations

import bisect
import csv
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import configio
from .autodiff import Node, Tape, backward, sgd_step
from .dataset import Corpus, TemporalQuery
from .encoders import Vocabulary, encode_queries
from .model import (
    ModelBundle,
    ModelConfig,
    ModelParams,
    check_query_context,
    init_params,
    log_logistic_loss,
    ranking_loss,
    score_grid,
)
from .temporal import ContextMoment, Moment, moment_index, moments_of


@dataclass
class TrainConfig:
    epochs: int = 90
    batch_size: int = 32
    lr: float = 0.05
    lr_decay_every: int = 30
    lr_decay_factor: float = 0.1
    negatives_intra: int = 1
    negatives_inter: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr <= 0 or self.lr_decay_factor <= 0:
            raise ValueError("learning rate and decay factor must be positive")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be >= 1")
        if self.negatives_intra < 0 or self.negatives_inter < 0:
            raise ValueError("negative counts must be >= 0")
        if self.negatives_intra + self.negatives_inter == 0:
            raise ValueError("need at least one negative per example")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step schedule: lr * factor^(epoch // decay_every)."""
    return cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)


@dataclass
class Negatives:
    intra: list[Moment]
    inter: list[tuple[str, Moment]]


def videos_longer_than(corpus: Corpus) -> list[list[str]]:
    """Entry k: the sorted ids of the videos with more than k segments, the
    ones that can hold a moment ending at segment k."""
    ids = corpus.video_ids()
    lengths = [corpus.n_segments(v) for v in ids]
    return [[v for v, n in zip(ids, lengths) if n > k] for k in range(max(lengths, default=0))]


def sample_negatives(
    rng: np.random.Generator,
    corpus: Corpus,
    example: TemporalQuery,
    n_intra: int,
    n_inter: int,
    longer: list[list[str]],
) -> Negatives:
    """Intra: uniform non-ground-truth moments of the example's video. Inter:
    the same moment coordinates in a uniformly drawn other video that is long
    enough (skipped when no such video exists). `longer` is
    `videos_longer_than(corpus)`."""
    n = corpus.n_segments(example.video_id)
    moments = moments_of(n)
    # draw among the moments other than the ground truth, when it is one
    gt = moment_index(example.moment, n) if example.moment.end_seg < n else len(moments)
    count = len(moments) - (gt < len(moments))
    intra: list[Moment] = []
    if n_intra and count:
        picks = rng.choice(count, size=n_intra, replace=count < n_intra)
        intra = [moments[int(i + (i >= gt))] for i in picks]
    inter: list[tuple[str, Moment]] = []
    if n_inter:
        end = example.moment.end_seg
        eligible = longer[end] if end < len(longer) else []
        # draw among the eligible videos other than the example's own
        own = bisect.bisect_left(eligible, example.video_id)
        has_own = own < len(eligible) and eligible[own] == example.video_id
        count = len(eligible) - has_own
        for _ in range(n_inter):
            if not count:
                break
            j = int(rng.integers(count))
            if has_own and j >= own:
                j += 1
            inter.append((eligible[j], example.moment))
    return Negatives(intra, inter)


@dataclass
class ExampleScores:
    """One example's fused scores, as entries of the score vector `scores`:
    its positive, its intra-video negatives and its inter-video negatives."""

    scores: Node
    positive: int
    intra: list[int]
    inter: list[int]


def _pinned_context(example: TemporalQuery, n_segments: int, cfg: ModelConfig) -> ContextMoment | None:
    """The context that every score of the example's hinge, negatives
    included, is pinned to in a video of `n_segments`. Strong supervision pins
    the stored ground-truth context (when it fits the video), so the loss
    compares moments under the same known context rather than letting each
    side pick its own. Examples without a stored context, and weak mode, get
    None: the max runs over the mode's candidate set. A stored context that
    does not fit the slot count is an error naming the example."""
    if cfg.context_supervision == "strong" and example.context is not None:
        if all(r.end_seg < n_segments for r in example.context.regions):
            check_query_context(example.context, example.moment, cfg.context_slots, n_segments,
                                example.video_id, example.sentence)
            return example.context
    return None


def batch_scores(
    tape: Tape,
    corpus: Corpus,
    batch: Sequence[TemporalQuery],
    negatives: Sequence[Negatives],
    cfg: ModelConfig,
    params: ModelParams,
    vocab: Vocabulary,
) -> list[ExampleScores]:
    """Positive and negative fused scores for every example of a batch, from
    one stacked encoding of the batch's queries and one score_grid call: a
    group per example over its own video (the positive and the intra-video
    negatives) and a group per inter-video negative, each compared with the
    example's query row. Every example's scores are entries of the call's one
    fused score vector."""
    groups = []
    for row, (example, negs) in enumerate(zip(batch, negatives)):
        n = corpus.n_segments(example.video_id)
        groups.append((corpus.features[example.video_id], row, [example.moment, *negs.intra],
                       _pinned_context(example, n, cfg)))
        for vid, neg in negs.inter:
            pinned = _pinned_context(example, corpus.n_segments(vid), cfg)
            groups.append((corpus.features[vid], row, [neg], pinned))
    fl = encode_queries(tape, [vocab.encode(example.tokens) for example in batch], params)
    fused, _ = score_grid(tape, fl, groups, cfg, params)
    scored, at = [], 0
    for negs in negatives:
        inter = at + 1 + len(negs.intra)
        end = inter + len(negs.inter)
        scored.append(ExampleScores(fused, at, list(range(at + 1, inter)), list(range(inter, end))))
        at = end
    return scored


def example_scores(
    tape: Tape,
    cache: dict,
    corpus: Corpus,
    example: TemporalQuery,
    negatives: Negatives,
    cfg: ModelConfig,
    params: ModelParams,
    vocab: Vocabulary,
) -> ExampleScores:
    """Positive and negative fused scores of one example, the one-example
    batch of `batch_scores`; `cache` is not read (the tape keeps the memo)."""
    return batch_scores(tape, corpus, [example], [negatives], cfg, params, vocab)[0]


def batch_loss(tape: Tape, scored: Sequence[ExampleScores], cfg: ModelConfig) -> Node:
    """Ranking: per-example hinge losses averaged over the batch. Log-logistic:
    positives and intra-video negatives pooled across the batch. Both read
    one vector of the batch's scores: the vector the examples share, as
    `batch_scores` gives them, or else their vectors concatenated."""
    if not scored:
        raise ValueError("empty batch")
    vectors = list({id(s.scores): s.scores for s in scored}.values())
    sizes = [len(v.value) for v in vectors]
    offset = {id(v): sum(sizes[:k]) for k, v in enumerate(vectors)}
    scores = vectors[0] if len(vectors) == 1 else tape.concat(vectors)

    def entries(s: ExampleScores, at: Sequence[int]) -> list[int]:
        return [offset[id(s.scores)] + i for i in at]

    positives = [offset[id(s.scores)] + s.positive for s in scored]
    if cfg.loss == "ranking":
        negatives = [(entries(s, s.intra), entries(s, s.inter)) for s in scored]
        return ranking_loss(tape, scores, positives, negatives, cfg.margin)
    intra = [i for s in scored for i in entries(s, s.intra)]
    return log_logistic_loss(tape, scores, positives, intra, cfg.tall_alpha_c, cfg.tall_alpha_w)


def train(
    corpus: Corpus,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    *,
    vocab: Vocabulary | None = None,
    init: ModelParams | None = None,
    start_epoch: int = 0,
    embedding: np.ndarray | None = None,
    log: Callable[[str], None] | None = None,
) -> tuple[ModelBundle, list[dict]]:
    """Run SGD to train_cfg.epochs; returns the bundle and the history of the
    epochs from `start_epoch` on.

    Resume a run stopped after `start_epoch` epochs by passing its params as
    `init`, with the same corpus, configs and `embedding`: the initial draws
    still run (only their frozen flags are kept) and the earlier epochs draw
    their shuffles and negatives without training, so the result equals one
    uninterrupted run. A batch whose loss, or a step that leaves a trainable
    parameter, not finite stops the run with a ValueError naming the epoch
    and the batch index.
    """
    if not corpus.queries:
        raise ValueError("corpus has no training queries")
    check_corpus(corpus, model_cfg)
    rng = np.random.default_rng(train_cfg.seed)
    if vocab is None:
        vocab = Vocabulary.from_token_lists(q.tokens for q in corpus.queries)
    cfg = replace(model_cfg, vocab_size=vocab.size)
    params = init_params(cfg, rng, embedding)
    if init is not None:
        for p in init.parameters():
            p.trainable = params[p.name].trainable
        params = init
    n_inter = 0 if cfg.loss == "tall" else train_cfg.negatives_inter
    examples = list(corpus.queries)
    longer = videos_longer_than(corpus)
    history: list[dict] = []
    for epoch in range(train_cfg.epochs):
        lr = lr_at(epoch, train_cfg)
        order = rng.permutation(len(examples))
        loss_sum = 0.0
        for b, lo in enumerate(range(0, len(order), train_cfg.batch_size)):
            batch = [examples[int(i)] for i in order[lo : lo + train_cfg.batch_size]]
            negatives = [
                sample_negatives(rng, corpus, ex, train_cfg.negatives_intra, n_inter, longer)
                for ex in batch
            ]
            if epoch < start_epoch:
                continue
            tape = Tape()
            scored = batch_scores(tape, corpus, batch, negatives, cfg, params, vocab)
            loss = batch_loss(tape, scored, cfg)
            if not np.isfinite(loss.value):
                raise ValueError(f"epoch {epoch} batch {b}: loss is not finite ({float(loss.value)})")
            backward(tape, loss)
            sgd_step(params.parameters(), lr)
            bad = [p.name for p in params.parameters()
                   if p.trainable and not np.all(np.isfinite(p.value))]
            if bad:
                raise ValueError(
                    f"epoch {epoch} batch {b}: parameters not finite after the "
                    f"SGD step: {', '.join(bad)}"
                )
            loss_sum += float(loss.value) * len(batch)
        if epoch < start_epoch:
            continue
        mean_loss = loss_sum / len(examples)
        history.append({"epoch": epoch, "loss": mean_loss, "lr": lr})
        if log is not None:
            log(f"epoch {epoch:4d}  loss {mean_loss:.6f}  lr {lr:g}")
    return ModelBundle(cfg, params, vocab), history


def check_corpus(corpus: Corpus, cfg: ModelConfig) -> None:
    """Reject a corpus that a model of `cfg` cannot score: a video without one
    of its modalities, or features that are not `visual_dim` wide."""
    corpus.validate()
    for vid, tables in corpus.features.items():
        if not set(cfg.modalities) <= set(tables):
            raise ValueError(
                f"config needs modalities {sorted(cfg.modalities)}, corpus has {sorted(tables)}"
            )
        for m in cfg.modalities:
            if tables[m].dim != cfg.visual_dim:
                raise ValueError(
                    f"video {vid!r} {m} features have dim {tables[m].dim}, "
                    f"config expects visual_dim={cfg.visual_dim}"
                )


HISTORY_FIELDS = ["epoch", "loss", "lr"]


def save_history(path: str, history: Sequence[dict]) -> None:
    with configio.atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_FIELDS)
        writer.writerows([row[k] for k in HISTORY_FIELDS] for row in history)


def load_history(path: str) -> list[dict]:
    """The rows `save_history` wrote. Row k must be epoch k, so a history
    records every epoch its model was trained for; errors name `file:line`."""
    history: list[dict] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != HISTORY_FIELDS:
            raise ValueError(f"{path}:1: expected the header {','.join(HISTORY_FIELDS)}")
        for fields in reader:
            where = f"{path}:{reader.line_num}"
            try:
                epoch, loss, lr = fields
                row = {"epoch": int(epoch), "loss": float(loss), "lr": float(lr)}
            except ValueError:
                raise ValueError(f"{where}: expected 'epoch,loss,lr', got {fields}") from None
            if row["epoch"] != len(history):
                raise ValueError(f"{where}: expected epoch {len(history)}, got {row['epoch']}")
            history.append(row)
    return history
