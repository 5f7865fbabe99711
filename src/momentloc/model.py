"""Latent-context moment scoring model.

A candidate moment is scored against a query by comparing a visual vector
(base moment + one context drawn from a mode-dependent candidate set) with the
encoded query, taking the max over the candidate contexts, and late-fusing the
per-modality maxima. Training backpropagates through the max, so only the
selected context receives gradient.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import configio
from .autodiff import (
    Node,
    Parameter,
    Tape,
    group_argmax,
    load_checkpoint,
    save_checkpoint,
)
from .encoders import (
    SegmentFeatureTable,
    Vocabulary,
    encode_query,
    fusion_weights,
    load_vocabulary,
    save_vocabulary,
    tef_length,
)
from .temporal import (
    CONTEXT_MODES,
    PAD_TEF,
    ContextMoment,
    Moment,
    context_set,
    context_slot_count,
    moment_index,
    moments_of,
)

SIMILARITIES = ("distance", "mult", "normalized_mult", "tall_sim")
LOSSES = ("ranking", "tall")
TEF_MODES = ("none", "tef", "contef")
SUPERVISION_MODES = ("weak", "strong")

CHECKPOINT_FILE = "checkpoint.bin"
CONFIG_FILE = "model.cfg"
VOCAB_FILE = "vocab.json"


@dataclass
class ModelConfig:
    """Every architectural and loss choice, serializable as flat key=value."""

    context_mode: str = "latent"
    tef_mode: str = "contef"
    similarity: str = "normalized_mult"
    loss: str = "ranking"
    context_supervision: str = "strong"
    modalities: tuple[str, ...] = ("rgb", "flow")
    fusion_lambda: float = 0.5
    margin: float = 0.1
    tall_alpha_c: float = 1.0
    tall_alpha_w: float = 1.0
    visual_dim: int = 16
    mlp_hidden: int = 128
    visual_out_dim: int = 64
    embed_dim: int = 32
    lstm_hidden: int = 64
    joint_dim: int = 64
    sim_hidden: int = 64
    vocab_size: int = 0

    def __post_init__(self) -> None:
        if self.context_mode not in CONTEXT_MODES:
            raise ValueError(f"context_mode must be one of {CONTEXT_MODES}, got {self.context_mode!r}")
        if self.tef_mode not in TEF_MODES:
            raise ValueError(f"tef_mode must be one of {TEF_MODES}, got {self.tef_mode!r}")
        if self.similarity not in SIMILARITIES:
            raise ValueError(f"similarity must be one of {SIMILARITIES}, got {self.similarity!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if self.context_supervision not in SUPERVISION_MODES:
            raise ValueError(
                f"context_supervision must be one of {SUPERVISION_MODES}, got {self.context_supervision!r}"
            )
        self.modalities = tuple(self.modalities)
        if not self.modalities or len(set(self.modalities)) != len(self.modalities):
            raise ValueError(f"modalities must be nonempty and unique, got {self.modalities}")
        fusion_weights(self.modalities, self.fusion_lambda)
        if self.margin <= 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        if self.tall_alpha_c < 0 or self.tall_alpha_w < 0:
            raise ValueError("loss weights must be non-negative")
        for name in ("visual_dim", "mlp_hidden", "visual_out_dim", "embed_dim",
                     "lstm_hidden", "joint_dim", "sim_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.vocab_size < 0:
            raise ValueError("vocab_size must be >= 0")

    @property
    def context_slots(self) -> int:
        return context_slot_count(self.context_mode)

    @property
    def tef_len(self) -> int:
        return tef_length(self.tef_mode, self.context_slots)

    def to_text(self) -> str:
        return configio.dataclass_to_text(self)

    @classmethod
    def from_text(cls, text: str, source: str = "<model config>") -> "ModelConfig":
        mapping = configio.parse_flat_config(text, source)
        # model.cfg files written before the field was dropped record an
        # unused `seed`; parameters are drawn from TrainConfig.seed.
        mapping.pop("seed", None)
        return configio.dataclass_from_mapping(cls, mapping, source)


class ModelParams:
    """Flat, name-addressed parameter collection."""

    def __init__(self, params: dict[str, Parameter]):
        self._params = dict(params)

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def names(self) -> list[str]:
        return sorted(self._params)

    def parameters(self) -> list[Parameter]:
        return [self._params[n] for n in self.names()]

    def arrays(self) -> dict[str, np.ndarray]:
        return {n: self._params[n].value for n in self.names()}


def expected_param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Single source of truth for parameter names and shapes."""
    if cfg.vocab_size < 1:
        raise ValueError("vocab_size must be set before building parameters")
    h, e, j = cfg.lstm_hidden, cfg.embed_dim, cfg.joint_dim
    shapes: dict[str, tuple[int, ...]] = {
        "lang.embed": (cfg.vocab_size, e),
        "lang.w": (4 * h, e),
        "lang.u": (4 * h, h),
        "lang.b": (4 * h,),
        "lang.proj_w": (j, h),
        "lang.proj_b": (j,),
    }
    slots = cfg.context_slots
    fv_dim = 2 * cfg.visual_out_dim + cfg.tef_len
    for m in cfg.modalities:
        shapes[f"{m}.base.w1"] = (cfg.mlp_hidden, cfg.visual_dim)
        shapes[f"{m}.base.b1"] = (cfg.mlp_hidden,)
        shapes[f"{m}.base.w2"] = (cfg.visual_out_dim, cfg.mlp_hidden)
        shapes[f"{m}.base.b2"] = (cfg.visual_out_dim,)
        shapes[f"{m}.ctx.w1"] = (cfg.mlp_hidden, cfg.visual_dim * slots)
        shapes[f"{m}.ctx.b1"] = (cfg.mlp_hidden,)
        shapes[f"{m}.ctx.w2"] = (cfg.visual_out_dim, cfg.mlp_hidden)
        shapes[f"{m}.ctx.b2"] = (cfg.visual_out_dim,)
        shapes[f"{m}.proj_w"] = (j, fv_dim)
        shapes[f"{m}.proj_b"] = (j,)
        if cfg.similarity != "distance":
            sim_in = 4 * j if cfg.similarity == "tall_sim" else j
            shapes[f"{m}.sim.w1"] = (cfg.sim_hidden, sim_in)
            shapes[f"{m}.sim.b1"] = (cfg.sim_hidden,)
            shapes[f"{m}.sim.w2"] = (cfg.sim_hidden,)
            shapes[f"{m}.sim.b2"] = ()
    return shapes


def init_params(
    cfg: ModelConfig,
    rng: np.random.Generator,
    embedding: np.ndarray | None = None,
) -> ModelParams:
    """Fresh parameters: biases zero, token embeddings uniform in [-0.5, 0.5]
    so distinct tokens start well separated, weight matrices fan-in-scaled
    uniform. A supplied embedding matrix is used verbatim and frozen."""
    shapes = expected_param_shapes(cfg)
    params: dict[str, Parameter] = {}
    for name in sorted(shapes):
        shape = shapes[name]
        if name == "lang.embed" and embedding is not None:
            if embedding.shape != shape:
                raise ValueError(
                    f"pretrained embedding shape {embedding.shape} does not match "
                    f"config ({shape[0]} tokens x {shape[1]} dims)"
                )
            params[name] = Parameter(name, embedding.copy(), trainable=False)
            continue
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("b", "b1", "b2", "proj_b"):
            value = np.zeros(shape)
        elif name == "lang.embed":
            value = rng.uniform(-0.5, 0.5, size=shape)
        else:
            fan_in = shape[-1] if shape else 1
            bound = 1.0 / np.sqrt(fan_in)
            value = rng.uniform(-bound, bound, size=shape)
        params[name] = Parameter(name, value)
    return ModelParams(params)


# -- scoring -------------------------------------------------------------------


@dataclass(frozen=True)
class ScoredMoment:
    moment: Moment
    score: float
    chosen_context: ContextMoment


def conform_context(context: ContextMoment, base: Moment, n_slots: int) -> ContextMoment:
    """Fit a stored context to the configured slot count.

    A single region is placed before/after the base by position when two slots
    are expected; surplus real regions cannot be dropped and raise.
    """
    if len(context.slots) == n_slots:
        return context
    regions = context.regions
    if n_slots == 2 and len(regions) <= 1:
        if not regions:
            return ContextMoment.pair(None, None)
        region = regions[0]
        if region.start_seg < base.start_seg:
            return ContextMoment.pair(region, None)
        return ContextMoment.pair(None, region)
    if n_slots == 1 and len(regions) == 1:
        return ContextMoment.single(regions[0])
    raise ValueError(
        f"context {context} does not fit a {n_slots}-slot configuration"
    )


def check_query_context(context: ContextMoment, base: Moment, n_slots: int, n_segments: int,
                        video_id: str, sentence: str) -> None:
    """Raise for a query's stored context that runs past the end of its video
    of `n_segments`, or that does not fit the slot count (`conform_context`'s
    error), naming the query's video and sentence. Whether a context fits
    does not depend on the base."""
    try:
        for region in context.regions:
            if region.end_seg >= n_segments:
                raise ValueError(f"context {region} exceeds video with {n_segments} segments")
        conform_context(context, base, n_slots)
    except ValueError as err:
        raise ValueError(f"video {video_id!r}, query {sentence!r}: {err}") from None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=None)
def _moment_tefs(n_segments: int) -> np.ndarray:
    """Endpoint features (start / n, (end + 1) / n) of every moment, in
    moments_of order; read-only."""
    return _read_only(np.array([(m.start_seg / n_segments, (m.end_seg + 1) / n_segments)
                                for m in moments_of(n_segments)]))


@functools.lru_cache(maxsize=None)
def _moment_lengths(n_segments: int) -> np.ndarray:
    """Segment count of every moment, in moments_of order, as a read-only
    (moments, 1) column."""
    return _read_only(np.array([[m.end_seg - m.start_seg + 1] for m in moments_of(n_segments)]))


def _slot_rows(candidates: Sequence[ContextMoment], n_segments: int) -> np.ndarray:
    """Each candidate's moment row per slot, -1 for a padded slot."""
    return np.array(
        [[-1 if m is None else moment_index(m, n_segments) for m in c.slots] for c in candidates],
        dtype=np.intp,
    )


@functools.lru_cache(maxsize=None)
def _candidate_table(context_mode: str, n_segments: int) -> tuple[tuple, np.ndarray]:
    """Every moment's context_set, in moments_of order, and their slot rows as
    one read-only (moments, candidates, slots) array. A mode gives every
    moment the same number of candidates."""
    sets = tuple(context_set(context_mode, b, n_segments) for b in moments_of(n_segments))
    return sets, _read_only(np.stack([_slot_rows(c, n_segments) for c in sets]))


def _grid_pairs(
    bases: Sequence[Moment],
    n_segments: int,
    cfg: ModelConfig,
    pinned: ContextMoment | None,
) -> tuple[np.ndarray, np.ndarray, list[Sequence[ContextMoment]]]:
    """The (base, context) pairs to score, base by base: each pair's base
    moment row and its context's moment row per slot (-1 for a padded slot),
    and the candidates of each base. These are the mode's context_set, read
    from the (context_mode, n_segments) table by the bases' rows, or, with
    `pinned`, that one context fitted to each base."""
    rows = np.array([moment_index(b, n_segments) for b in bases], dtype=np.intp)
    if pinned is None:
        sets, table = _candidate_table(cfg.context_mode, n_segments)
        candidates = [sets[r] for r in rows.tolist()]
        slots = table[rows]
    else:
        candidates = [[conform_context(pinned, b, cfg.context_slots)] for b in bases]
        slots = _slot_rows([c for (c,) in candidates], n_segments)[:, None]
    return np.repeat(rows, slots.shape[1]), slots.reshape(-1, cfg.context_slots), candidates


def _pool_stack(tables: Sequence[SegmentFeatureTable]) -> np.ndarray:
    """The (videos, moments, dim) pooled features of tables of one shape,
    each video's moments in moments_of order (see _pool_moments): one
    preallocated array that the running sums are written into and that is
    then divided in place."""
    n, dim = tables[0].features.shape
    if dim == 1:
        return np.array([[t.features[m.start_seg : m.end_seg + 1].mean(axis=0)
                          for m in moments_of(n)] for t in tables])
    feats = np.stack([t.features for t in tables])
    pooled = np.empty((len(tables), n * (n + 1) // 2, dim))
    at = 0
    for s in range(n):
        np.cumsum(feats[:, s:], axis=1, out=pooled[:, at : at + n - s])
        at += n - s
    pooled /= _moment_lengths(n)
    pooled += 0.0  # a run of -0.0 rows pools to +0.0, as mean gives
    return pooled


def _pool_moments(tables: Sequence[SegmentFeatureTable]) -> np.ndarray:
    """Mean-pooled features of every moment of each table, table after
    table and each table's moments in moments_of order, every row bit for
    bit `features[s:e + 1].mean(axis=0)`.

    For rows of two or more features that mean adds the rows one by one.
    Tables of one shape are stacked into one (videos, segments, dim) array,
    and one running sum per start segment along the segment axis (`np.cumsum`,
    which adds in the same order) gives the sums of every video's moments
    that start there. Each start segment's sums are written straight into its
    block of one preallocated (videos, moments, dim) array, and one in-place
    division by the moment lengths makes them means.
    The running sum starts from the first row and `mean` from +0.0, which
    differ only where every row added so far is -0.0; adding +0.0 to the
    means makes those +0.0 too. A single feature column is summed pairwise
    by numpy once a moment has 8 segments, which only `mean` itself
    reproduces."""
    groups: dict[tuple[int, int], list[SegmentFeatureTable]] = {}
    place = []
    for t in tables:
        group = groups.setdefault(t.features.shape, [])
        place.append((t.features.shape, len(group)))
        group.append(t)
    blocks = {shape: _pool_stack(group) for shape, group in groups.items()}
    if len(blocks) == 1:
        (block,) = blocks.values()
        return block.reshape(-1, block.shape[2])
    return np.concatenate([blocks[shape][k] for shape, k in place])


def _mlp_rows(tape, x, params, prefix):
    h = tape.relu(tape.linear_rows(
        x, tape.param(params[f"{prefix}.w1"]), tape.param(params[f"{prefix}.b1"]),
    ))
    return tape.linear_rows(h, tape.param(params[f"{prefix}.w2"]), tape.param(params[f"{prefix}.b2"]))


def _projected_rows(tape, videos, pair_counts, base_rows, slot_rows, cfg, params):
    """Projected (and, for normalized_mult, normalized) visual vectors of the
    pairs, one row each, per modality, for pairs from several videos:
    `pair_counts[g]` consecutive pairs come from `videos[g]`. Query-independent,
    so kept as one `tape.memo` entry per (groups' mappings, pair rows): a batch
    in training, a video's queries in evaluation. The entry holds the mappings,
    so their ids are not reused; on recording tapes reuse is subgraph sharing.

    The pair layout is built once for all modalities: the distinct videos get
    consecutive blocks of moment keys, and the base and context MLPs run over
    the distinct moments that the pairs reference. Per modality the distinct
    videos are pooled in one `_pool_moments` call. The projection input is
    one `gather_rows` of the MLP outputs and the endpoint features, the
    constant table of every moment key's (start, end) read by the base keys
    and, for contef, by each slot's keys, so the per-pair block is written
    once."""
    key = ("fv", tuple((id(video), k) for video, k in zip(videos, pair_counts)),
           base_rows.tobytes(), slot_rows.tobytes())
    if key in tape.memo:
        return tape.memo[key][1]
    # every distinct video gets its own block of moment keys, and key -1, the
    # last row, is a padded context slot: zero features, PAD_TEF
    first: dict[int, int] = {}
    distinct, video_tefs = [], []
    n_keys = 0
    for video in videos:
        if id(video) not in first:
            first[id(video)] = n_keys
            distinct.append(video)
            video_tefs.append(_moment_tefs(next(iter(video.values())).n_segments))
            n_keys += len(video_tefs[-1])
    offset = np.repeat([first[id(video)] for video in videos], pair_counts)
    base_keys = offset + base_rows
    slot_keys = np.where(slot_rows < 0, -1, offset[:, None] + slot_rows)
    branches = [("base", *np.unique(base_keys, return_inverse=True))]
    if cfg.context_slots == 1:
        branches.append(("ctx", *np.unique(slot_keys[:, 0], return_inverse=True)))
    else:
        branches.append(("ctx", slot_keys, None))
    tail = []
    if cfg.tef_mode != "none":
        tefs = tape.constant(np.concatenate(video_tefs + [[PAD_TEF]]))
        tail.append((tefs, base_keys))
        if cfg.tef_mode == "contef":
            tail.extend((tefs, keys) for keys in slot_keys.T)
    fvs = {}
    for m in cfg.modalities:
        tables = [video[m] for video in distinct]
        pooled = np.concatenate([_pool_moments(tables), np.zeros((1, tables[0].dim))])
        parts = [(_mlp_rows(tape, tape.constant(pooled[keys].reshape(len(keys), -1)), params,
                            f"{m}.{name}"), rows) for name, keys, rows in branches]
        fv = tape.linear_rows(tape.gather_rows(parts + tail),
                              tape.param(params[f"{m}.proj_w"]), tape.param(params[f"{m}.proj_b"]))
        fvs[m] = tape.l2_normalize_rows(fv) if cfg.similarity == "normalized_mult" else fv
    tape.memo[key] = (videos, fvs)
    return fvs


def _query_rows(tape, fl, groups, pair_counts, cfg):
    """The query vector that each pair is compared with, normalized for
    normalized_mult: row `query row` of the (queries, joint_dim) stack `fl`
    for the pairs of each group, or `fl` itself when it is one (joint_dim,)
    vector."""
    if fl.value.ndim == 1:
        if any(q != 0 for _, q, _, _ in groups):
            raise ValueError("a single query vector has only query row 0")
        return tape.l2_normalize(fl) if cfg.similarity == "normalized_mult" else fl
    if cfg.similarity == "normalized_mult":
        fl = tape.l2_normalize_rows(fl)
    return tape.gather_rows([(fl, np.repeat([q for _, q, _, _ in groups], pair_counts))])


def _similarity_rows(tape, fv, fl_ready, cfg, params, modality):
    m = modality
    kind = cfg.similarity
    if kind == "distance":
        return tape.scale(tape.squared_distance_rows(fv, fl_ready), -1.0)
    if kind in ("mult", "normalized_mult"):
        x = tape.hadamard_rows(fv, fl_ready)
    elif kind == "tall_sim":
        x = tape.gather_rows([
            (fv, None), (fl_ready, None),
            (tape.hadamard_rows(fv, fl_ready), None), (tape.add_rows(fv, fl_ready), None),
        ])
    else:
        raise ValueError(f"unknown similarity {kind!r}")
    return _mlp_rows(tape, x, params, f"{m}.sim")


def score_grid(
    tape: Tape,
    fl: Node,
    groups: Sequence[tuple[Mapping[str, SegmentFeatureTable], int, Sequence[Moment],
                           ContextMoment | None]],
    cfg: ModelConfig,
    params: ModelParams,
) -> tuple[Node, list[ContextMoment]]:
    """Score base moments from one or more videos, each against its
    candidate contexts.

    `fl` holds the encoded queries, a (queries, joint_dim) stack, or the
    (joint_dim,) vector of a single query. Each group is `(video, query row,
    bases, pinned)`: the group's bases are compared with row `query row` of
    `fl` (0 for a single vector), each against the mode's context_set, or,
    when `pinned` is a context, against that context alone, fitted to the
    base (`conform_context`). Every (base, context) pair of every group is
    one row of one stacked computation, each row bit-identical to scoring the
    pair alone, so a call records one base MLP, one context MLP, one
    projection, one similarity head and one group max per modality, however
    many groups it scores. The query-independent part, every modality's
    projected pairs, is one `tape.memo` entry (`_projected_rows`) that a later
    call on the same tape over the same mappings and pairs reads instead.

    Returns the fused scores, one entry per base in group order (late fusion
    of the per-modality maxima; the training loss backpropagates through it),
    and per base the candidate context that maximizes the fused per-context
    score (ties to the earliest candidate).
    """
    grids = [
        _grid_pairs(bases, next(iter(video.values())).n_segments, cfg, pinned)
        for video, _, bases, pinned in groups
    ]
    candidates = [c for _, _, per_base in grids for c in per_base]
    if not candidates:
        raise ValueError("score_grid needs at least one base")
    base_rows = np.concatenate([rows for rows, _, _ in grids])
    slot_rows = np.concatenate([slots for _, slots, _ in grids])
    sizes = np.array([len(c) for c in candidates], dtype=np.intp)
    pair_counts = [len(rows) for rows, _, _ in grids]
    fl_ready = _query_rows(tape, fl, groups, pair_counts, cfg)
    fvs = _projected_rows(tape, [video for video, _, _, _ in groups], pair_counts,
                          base_rows, slot_rows, cfg, params)
    weights = fusion_weights(cfg.modalities, cfg.fusion_lambda)
    fused: Node | None = None
    fused_per_pair = np.zeros(len(base_rows))
    for m in cfg.modalities:
        sims = _similarity_rows(tape, fvs[m], fl_ready, cfg, params, m)
        best, _ = tape.group_max(sims, sizes)
        weighted = tape.scale(best, weights[m])
        fused = weighted if fused is None else tape.add(fused, weighted)
        fused_per_pair += weights[m] * sims.value
    chosen = group_argmax(fused_per_pair, sizes) - (np.cumsum(sizes) - sizes)
    return fused, [c[i] for c, i in zip(candidates, chosen.tolist())]


def score_base(
    tape: Tape,
    video: Mapping[str, SegmentFeatureTable],
    fl: Node,
    base: Moment,
    pinned: ContextMoment | None,
    cfg: ModelConfig,
    params: ModelParams,
) -> tuple[Node, ContextMoment]:
    """Score one base moment against its candidate contexts (the mode's
    context_set, or `pinned` alone): `score_grid` for a single base and a
    single query vector `fl`. Returns the fused score node and the chosen
    context."""
    node, chosen = score_grid(tape, fl, [(video, 0, [base], pinned)], cfg, params)
    return tape.take_row(node, 0), chosen[0]


def score(
    video: Mapping[str, SegmentFeatureTable],
    token_ids: Sequence[int],
    base: Moment,
    cfg: ModelConfig,
    params: ModelParams,
    gt_context: ContextMoment | None = None,
) -> ScoredMoment:
    """Inference-mode score of one (video, query, moment) triple."""
    tape = Tape(recording=False)
    fl = encode_query(tape, token_ids, params)
    node, chosen = score_base(tape, video, fl, base, gt_context, cfg, params)
    return ScoredMoment(base, float(node.value), chosen)


# -- losses --------------------------------------------------------------------
#
# Both losses read the scores of a whole batch from one score vector, by
# index, as a few vector ops. Each mean adds its terms left to right
# (`segment_sums`) and then multiplies by 1 / count, exactly as a chain of
# scalar adds and one scale would, so the loss is bit for bit the per-score
# chain's.


def _mean(tape: Tape, x: Node) -> Node:
    """The mean of a vector's entries, as a scalar node."""
    n = x.value.shape[0]
    return tape.take_row(tape.scale(tape.segment_sums(x, [n]), 1.0 / n), 0)


def ranking_loss(
    tape: Tape,
    scores: Node,
    positive: Sequence[int],
    negatives: Sequence[Sequence[Sequence[int]]],
    margin: float,
) -> Node:
    """Hinge ranking loss averaged over examples. Example e compares entry
    `positive[e]` of the score vector with the entries of each of its
    negative classes `negatives[e]` (intra-video, inter-video): its loss is
    the sum over its non-empty classes of the class mean of
    relu(margin + negative - positive)."""
    neg_at: list[int] = []
    pos_at: list[int] = []
    class_sizes: list[int] = []
    n_classes: list[int] = []
    for pos, classes in zip(positive, negatives):
        present = [c for c in classes if len(c)]
        if not present:
            raise ValueError("ranking loss needs at least one negative")
        for c in present:
            neg_at.extend(c)
            pos_at.extend([pos] * len(c))
            class_sizes.append(len(c))
        n_classes.append(len(present))
    hinges = tape.relu(tape.add(
        tape.constant(np.full(len(neg_at), margin)),
        tape.sub(tape.take(scores, neg_at), tape.take(scores, pos_at)),
    ))
    sizes = np.array(class_sizes)
    class_means = tape.hadamard(tape.segment_sums(hinges, sizes), tape.constant(1.0 / sizes))
    return _mean(tape, tape.segment_sums(class_means, n_classes))


def log_logistic_loss(
    tape: Tape,
    scores: Node,
    positives: Sequence[int],
    negatives: Sequence[int],
    alpha_c: float,
    alpha_w: float,
) -> Node:
    """alpha_c * mean(softplus(-s_pos)) + alpha_w * mean(softplus(s_neg)) over
    the entries `positives` and `negatives` of the score vector.

    softplus(x) = log(1 + exp(x)) computed stably; no negatives drops that
    term, no positives is an error.
    """
    if not positives:
        raise ValueError("log-logistic loss needs at least one positive score")
    loss = tape.scale(_mean(tape, tape.softplus(tape.scale(tape.take(scores, positives), -1.0))), alpha_c)
    if negatives:
        loss = tape.add(
            loss, tape.scale(_mean(tape, tape.softplus(tape.take(scores, negatives))), alpha_w),
        )
    return loss


# -- persistence ---------------------------------------------------------------


@dataclass
class ModelBundle:
    config: ModelConfig
    params: ModelParams
    vocab: Vocabulary


def save_model(out_dir: str, bundle: ModelBundle) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(os.path.join(out_dir, CHECKPOINT_FILE), bundle.params.arrays())
    with configio.atomic_open(os.path.join(out_dir, CONFIG_FILE)) as fh:
        fh.write(bundle.config.to_text())
    save_vocabulary(os.path.join(out_dir, VOCAB_FILE), bundle.vocab)


def load_model(model_dir: str) -> ModelBundle:
    with open(os.path.join(model_dir, CONFIG_FILE), encoding="utf-8") as fh:
        cfg = ModelConfig.from_text(fh.read(), source=os.path.join(model_dir, CONFIG_FILE))
    vocab = load_vocabulary(os.path.join(model_dir, VOCAB_FILE))
    arrays = load_checkpoint(os.path.join(model_dir, CHECKPOINT_FILE))
    params = params_from_arrays(cfg, arrays)
    return ModelBundle(cfg, params, vocab)


def params_from_arrays(cfg: ModelConfig, arrays: Mapping[str, np.ndarray]) -> ModelParams:
    """Wrap raw checkpoint tensors, validating names and shapes against the
    configuration."""
    shapes = expected_param_shapes(cfg)
    missing = sorted(set(shapes) - set(arrays))
    surplus = sorted(set(arrays) - set(shapes))
    if missing or surplus:
        raise ValueError(
            f"checkpoint does not match config: missing {missing}, unexpected {surplus}"
        )
    bad = [
        f"{n}: checkpoint {arrays[n].shape} vs config {shapes[n]}"
        for n in sorted(shapes)
        if tuple(arrays[n].shape) != tuple(shapes[n])
    ]
    if bad:
        raise ValueError("checkpoint/config shape mismatch: " + "; ".join(bad))
    return ModelParams({n: Parameter(n, np.array(arrays[n])) for n in shapes})
