"""Query datasets: template-composed temporal queries and a synthetic corpus.

Two generators live here. `generate_template_queries` composes temporal
queries from pairs of base annotations whose moments are adjacent in the same
video, using a fixed set of surface templates per temporal word (two for
"before", two for "after", one for "then"). `generate_synthetic` builds a
fully verifiable corpus: every segment carries exactly one event token, query
sentences use those tokens, and `oracle_localize` recovers the unique correct
moment by brute force over the symbolic ground truth. The oracle never looks
at generator internals; it re-parses the sentence.
"""

from __future__ import annotations

import os
import string
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import configio
from .encoders import SegmentFeatureTable, load_features, save_features
from .temporal import ContextMoment, Moment, validate_moment

TEMPORAL_WORDS = ("before", "after", "then", "while")
QUERY_WORDS = ("none",) + TEMPORAL_WORDS

# Words counted by word_stats (whole-token, case-insensitive).
STAT_WORDS = TEMPORAL_WORDS + ("yet", "during", "until")

_PUNCT = string.punctuation


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase whitespace tokens with surrounding punctuation stripped."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_PUNCT)
        if tok:
            out.append(tok)
    return tuple(out)


@dataclass(frozen=True)
class BaseAnnotation:
    """A plain described moment, the raw material for template composition."""

    video_id: str
    sentence: str
    moment: Moment


@dataclass(frozen=True)
class TemporalQuery:
    """One query with its ground-truth base moment and, when known, the
    ground-truth context moment and the sentence fragment describing it."""

    video_id: str
    sentence: str
    moment: Moment
    temporal_word: str = "none"
    context: ContextMoment | None = None
    context_sentence: str | None = None

    def __post_init__(self) -> None:
        if self.temporal_word not in QUERY_WORDS:
            raise ValueError(
                f"temporal_word must be one of {QUERY_WORDS}, got {self.temporal_word!r}"
            )

    @property
    def tokens(self) -> tuple[str, ...]:
        return tokenize(self.sentence)


def word_stats(sentences: Iterable[str]) -> dict[str, int]:
    """Whole-token counts of the known temporal words across sentences."""
    counts = dict.fromkeys(STAT_WORDS, 0)
    for sentence in sentences:
        for tok in tokenize(sentence):
            if tok in counts:
                counts[tok] += 1
    return counts


# -- template composition --------------------------------------------------------


def _fragment(sentence: str) -> str:
    return sentence.strip().rstrip(".!?,; ").strip()


def _finish(sentence: str) -> str:
    sentence = sentence.strip()
    return sentence[0].upper() + sentence[1:] + "."


# The template grammar. Per temporal word: its surface templates over {x},
# the earlier description, and {y}, the later one; the pair members (0
# earlier, 1 later) whose span the query grounds to; and the member that is
# its context.
_GRAMMAR = {
    "before": (("{x} before {y}", "before {y}, {x}"), (0,), 1),
    "after": (("{y} after {x}", "after {x}, {y}"), (1,), 0),
    "then": (("{x} then {y}",), (0, 1), 1),
}


def template_sentences(kind: str, x: str, y: str) -> list[str]:
    """Surface templates for one temporal word. x describes the earlier
    moment, y the later one."""
    if kind not in _GRAMMAR:
        raise ValueError(f"no templates for kind {kind!r}")
    x, y = _fragment(x), _fragment(y)
    return [_finish(t.format(x=x, y=y)) for t in _GRAMMAR[kind][0]]


def adjacent_pairs(
    annotations: Sequence[BaseAnnotation],
) -> list[tuple[BaseAnnotation, BaseAnnotation]]:
    """Ordered pairs (earlier, later) from the same video whose moments touch:
    earlier.end_seg + 1 == later.start_seg."""
    by_video: dict[str, list[BaseAnnotation]] = {}
    for ann in annotations:
        by_video.setdefault(ann.video_id, []).append(ann)
    pairs = []
    for group in by_video.values():
        for a in group:
            for b in group:
                if a is not b and a.moment.end_seg + 1 == b.moment.start_seg:
                    pairs.append((a, b))
    return pairs


def _compose(kind: str, video_id: str, sentence: str,
             x: Moment, x_text: str, y: Moment, y_text: str) -> TemporalQuery:
    """One query over moments x (earlier) and y (later), described by x_text
    and y_text, grounded and given its context as `_GRAMMAR` says."""
    _, grounds, ctx = _GRAMMAR[kind]
    moments, texts = (x, y), (x_text, y_text)
    base = Moment(moments[grounds[0]].start_seg, moments[grounds[-1]].end_seg)
    return TemporalQuery(video_id, sentence, base, kind, ContextMoment.single(moments[ctx]), texts[ctx])


def _pair_queries(x: BaseAnnotation, y: BaseAnnotation) -> list[TemporalQuery]:
    """The five queries composed from one adjacent pair (x earlier, y later)."""
    x_text, y_text = _fragment(x.sentence), _fragment(y.sentence)
    return [
        _compose(kind, x.video_id, s, x.moment, x_text, y.moment, y_text)
        for kind in _GRAMMAR
        for s in template_sentences(kind, x.sentence, y.sentence)
    ]


def generate_template_queries(annotations: Sequence[BaseAnnotation]) -> list[TemporalQuery]:
    """Compose temporal queries from every adjacent ordered pair: per pair two
    "before", two "after", and one "then" query (a fixed 2:2:1 ratio)."""
    out: list[TemporalQuery] = []
    for x, y in adjacent_pairs(annotations):
        out.extend(_pair_queries(x, y))
    return out


# -- symbolic ground truth and the oracle ------------------------------------------


class OracleError(ValueError):
    """The sentence has no unique answer under the symbolic ground truth."""


@dataclass
class SymbolicGroundTruth:
    """One event token per segment per video."""

    events: dict[str, list[str]]

    def runs(self, video_id: str) -> list[tuple[str, Moment]]:
        """Maximal runs of equal consecutive tokens, in temporal order."""
        tokens = self.events[video_id]
        out = []
        start = 0
        for i in range(1, len(tokens) + 1):
            if i == len(tokens) or tokens[i] != tokens[start]:
                out.append((tokens[start], Moment(start, i - 1)))
                start = i
        return out


def _parse_event_sentence(query: TemporalQuery) -> tuple[str, str | None]:
    """Recover (base event, context event) from a single-event-per-fragment
    sentence; the grammar is the synthetic corpus's, nothing more."""
    tokens = list(query.tokens)
    word = query.temporal_word
    if word == "none":
        if len(tokens) != 1:
            raise OracleError(f"cannot parse simple query {query.sentence!r}")
        return tokens[0], None
    if word == "while":
        raise OracleError("'while' queries are unsatisfiable with one event per segment")
    if len(tokens) != 3 or word not in tokens:
        raise OracleError(f"cannot parse temporal query {query.sentence!r}")
    pos = tokens.index(word)
    if word in ("before", "after"):
        if pos == 1:
            mentioned_base, other = tokens[0], tokens[2]
        elif pos == 0:
            # leading-word template: "Before Y, X" / "After X, Y"
            mentioned_base, other = tokens[2], tokens[1]
        else:
            raise OracleError(f"cannot parse temporal query {query.sentence!r}")
        return mentioned_base, other
    if word == "then":
        if pos != 1:
            raise OracleError(f"cannot parse 'then' query {query.sentence!r}")
        return tokens[0], tokens[2]
    raise OracleError(f"unsupported temporal word {word!r}")


def oracle_localize(query: TemporalQuery, truth: SymbolicGroundTruth) -> Moment:
    """Brute-force unique localization of a synthetic query.

    Semantics per temporal word (runs are maximal; "strictly" means no
    overlap):
      none    the unique run of the event.
      before  the unique base run strictly preceding some context run.
      after   the unique base run strictly following some context run.
      then    the union of the unique consecutive (first, second) run pair.
    Zero or multiple answers raise OracleError.
    """
    if query.video_id not in truth.events:
        raise OracleError(f"unknown video {query.video_id!r}")
    base_tok, other_tok = _parse_event_sentence(query)
    base_tok = resolve_event(base_tok)
    other_tok = resolve_event(other_tok) if other_tok is not None else None
    runs = truth.runs(query.video_id)
    base_runs = [m for t, m in runs if t == base_tok]
    word = query.temporal_word
    if word == "none":
        candidates = base_runs
    elif word in ("before", "after"):
        other_runs = [m for t, m in runs if t == other_tok]
        if word == "before":
            candidates = [
                b for b in base_runs
                if any(b.end_seg < o.start_seg for o in other_runs)
            ]
        else:
            candidates = [
                b for b in base_runs
                if any(o.end_seg < b.start_seg for o in other_runs)
            ]
    else:  # then
        second_runs = [m for t, m in runs if t == other_tok]
        candidates = [
            Moment(x.start_seg, y.end_seg)
            for x in base_runs
            for y in second_runs
            if x.end_seg + 1 == y.start_seg
        ]
    if len(candidates) != 1:
        raise OracleError(
            f"query {query.sentence!r} on {query.video_id!r} has "
            f"{len(candidates)} answers, need exactly 1"
        )
    return candidates[0]


# -- synthetic corpus ----------------------------------------------------------


@dataclass
class SyntheticCorpusConfig:
    n_train_videos: int = 40
    n_test_videos: int = 10
    n_segments: int = 6
    n_events: int = 30
    feature_dim: int = 16
    noise_sigma: float = 0.1
    repeat_prob: float = 0.5
    queries_per_video: int = 4
    mix_simple: float = 0.4
    mix_before: float = 0.25
    mix_after: float = 0.25
    mix_then: float = 0.1
    ctx_alias_prob: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("n_train_videos", 1), ("n_test_videos", 0), ("seed", 0),
                            ("n_segments", 2), ("feature_dim", 1), ("queries_per_video", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if self.n_events <= self.n_segments:
            raise ValueError(f"n_events ({self.n_events}) must exceed n_segments "
                             f"({self.n_segments}) to vary videos")
        if not 0 <= self.repeat_prob <= 1:
            raise ValueError("repeat_prob must lie in [0, 1]")
        if not 0 <= self.ctx_alias_prob <= 1:
            raise ValueError("ctx_alias_prob must lie in [0, 1]")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        mix = ("mix_simple", "mix_before", "mix_after", "mix_then")
        for name in mix:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if sum(getattr(self, name) for name in mix) <= 0:
            raise ValueError("query mix weights must be non-negative and not all zero")


@dataclass
class Corpus:
    """Feature tables plus queries for one split."""

    features: dict[str, dict[str, SegmentFeatureTable]]
    queries: list[TemporalQuery]

    def video_ids(self) -> list[str]:
        return sorted(self.features)

    def modalities(self) -> tuple[str, ...]:
        first = self.features[next(iter(self.features))]
        return tuple(sorted(first))

    def n_segments(self, video_id: str) -> int:
        tables = self.features[video_id]
        return next(iter(tables.values())).n_segments

    def validate(self, record: str = "query") -> None:
        """Raise a ValueError for videos whose modalities disagree and for a
        query whose video is missing or whose moment or context runs past the
        video's end. A query's error starts with `{record} {i}:`, `i` its
        index; `load_corpus` passes `{file}: record`."""
        modalities = set(self.modalities()) if self.features else set()
        for vid, tables in self.features.items():
            lengths = {t.n_segments for t in tables.values()}
            if len(lengths) != 1:
                raise ValueError(f"video {vid!r}: modalities disagree on segment count")
            if set(tables) != modalities:
                raise ValueError(f"video {vid!r}: missing modalities, has {sorted(tables)}")
        for i, q in enumerate(self.queries):
            try:
                if q.video_id not in self.features:
                    raise ValueError(f"references missing video {q.video_id!r}")
                n = self.n_segments(q.video_id)
                validate_moment(q.moment, n)
                for region in q.context.regions if q.context is not None else ():
                    if region.end_seg >= n:
                        raise ValueError(f"context {region} exceeds video with {n} segments")
            except ValueError as exc:
                raise ValueError(f"{record} {i}: {exc}") from None


@dataclass
class SyntheticCorpus:
    train: Corpus
    test: Corpus
    truth: SymbolicGroundTruth


_EVENT_FMT = "ev{:03d}"
_ALIAS_FMT = "alt{:03d}"


def event_alias(token: str) -> str:
    """Secondary surface form of an event name ("ev007" -> "alt007").

    With ctx_alias_prob > 0, context constituents of temporal sentences
    use it, making context descriptions rarer words than base descriptions
    so grounding them is genuinely harder, as with human context references.
    """
    return _ALIAS_FMT.format(int(token[2:])) if token.startswith("ev") else token


def resolve_event(token: str) -> str:
    """Canonical event name for either surface form."""
    if token.startswith("alt") and token[3:].isdigit():
        return _EVENT_FMT.format(int(token[3:]))
    return token


def _sample_video_tokens(rng: np.random.Generator, cfg: SyntheticCorpusConfig) -> list[str]:
    """Distinct events per segment; with probability repeat_prob one event is
    duplicated at two non-adjacent positions (the planted ambiguity)."""
    names = [_EVENT_FMT.format(int(i)) for i in rng.choice(cfg.n_events, size=cfg.n_segments, replace=False)]
    if cfg.n_segments >= 3 and rng.random() < cfg.repeat_prob:
        for _ in range(100):
            i, j = sorted(int(v) for v in rng.choice(cfg.n_segments, size=2, replace=False))
            if j - i >= 2:
                names[j] = names[i]
                break
    return names


def _try_temporal_query(
    rng: np.random.Generator,
    kind: str,
    video_id: str,
    truth: SymbolicGroundTruth,
    runs: list[tuple[str, Moment]],
    counts: Counter,
    ctx_alias_prob: float,
) -> TemporalQuery | None:
    """Build one oracle-verified query of the given kind from the video's
    `runs` and their event `counts`, or give up.

    Pairs whose base event occurs more than once in the video are tried first
    most of the time: those queries are unanswerable without context. Pairs
    whose context event repeats are dropped so context fragments stay
    referring expressions. The context constituent surfaces as the event's
    alias form with probability ctx_alias_prob.
    """
    pairs = list(zip(runs, runs[1:]))
    _, grounds, ctx = _GRAMMAR[kind]
    pairs = [p for p in pairs if counts[p[ctx][0]] == 1] or pairs
    ambiguous = [p for p in pairs if counts[p[grounds[0]][0]] > 1]
    plain = [p for p in pairs if counts[p[grounds[0]][0]] <= 1]
    ordered = []
    for group in (ambiguous, plain) if (ambiguous and rng.random() < 0.8) else (plain, ambiguous):
        idx = rng.permutation(len(group))
        ordered.extend(group[i] for i in idx)
    alias_ctx = rng.random() < ctx_alias_prob
    for (tok_a, mom_a), (tok_b, mom_b) in ordered:
        surf = [tok_a, tok_b]
        if alias_ctx:
            surf[ctx] = event_alias(surf[ctx])
        sentences = template_sentences(kind, *surf)
        sentence = sentences[int(rng.integers(len(sentences)))]
        q = _compose(kind, video_id, sentence, mom_a, surf[0], mom_b, surf[1])
        try:
            answer = oracle_localize(q, truth)
        except OracleError:
            continue
        if answer == q.moment:
            return q
    return None


def _sample_queries(
    rng: np.random.Generator,
    video_id: str,
    truth: SymbolicGroundTruth,
    cfg: SyntheticCorpusConfig,
) -> list[TemporalQuery]:
    weights = np.array([cfg.mix_simple, cfg.mix_before, cfg.mix_after, cfg.mix_then])
    weights = weights / weights.sum()
    kinds = ("none", "before", "after", "then")
    runs = truth.runs(video_id)
    counts = Counter(t for t, _ in runs)
    unique = [(t, m) for t, m in runs if counts[t] == 1]
    out = []
    for _ in range(cfg.queries_per_video):
        kind = kinds[int(rng.choice(4, p=weights))]
        query = None
        if kind != "none":
            query = _try_temporal_query(rng, kind, video_id, truth, runs, counts, cfg.ctx_alias_prob)
        if query is None:
            tok, mom = unique[int(rng.integers(len(unique)))]
            query = TemporalQuery(video_id, _finish(tok), mom, "none")
        out.append(query)
    return out


def generate_synthetic(cfg: SyntheticCorpusConfig) -> SyntheticCorpus:
    """Deterministic verifiable corpus: event prototypes shared across videos,
    per-video Gaussian noise, oracle-checked queries, disjoint splits."""
    proto_rng = np.random.default_rng([cfg.seed, 11])
    prototypes = {
        mod: proto_rng.normal(size=(cfg.n_events, cfg.feature_dim))
        for mod in ("rgb", "flow")
    }
    truth = SymbolicGroundTruth({})
    splits: dict[str, Corpus] = {}
    for split_idx, (prefix, count) in enumerate((("tr", cfg.n_train_videos), ("te", cfg.n_test_videos))):
        features: dict[str, dict[str, SegmentFeatureTable]] = {}
        queries: list[TemporalQuery] = []
        for v in range(count):
            vid = f"{prefix}{v:04d}"
            rng = np.random.default_rng([cfg.seed, 13, split_idx, v])
            tokens = _sample_video_tokens(rng, cfg)
            truth.events[vid] = tokens
            ids = [int(t[2:]) for t in tokens]
            features[vid] = {}
            for mod in ("rgb", "flow"):
                noise = cfg.noise_sigma * rng.normal(size=(cfg.n_segments, cfg.feature_dim))
                features[vid][mod] = SegmentFeatureTable(vid, mod, prototypes[mod][ids] + noise)
            queries.extend(_sample_queries(rng, vid, truth, cfg))
        corpus = Corpus(features, queries)
        corpus.validate()
        splits[prefix] = corpus
    return SyntheticCorpus(splits["tr"], splits["te"], truth)


# -- on-disk corpus ---------------------------------------------------------------
#
# A corpus directory holds one feature file per modality, one annotation JSON
# per split, the symbolic truth JSON, and a plain-text manifest tying them
# together:
#     features rgb features_rgb.txt
#     annotations train queries_train.json
#     truth truth.json


def query_to_record(q: TemporalQuery) -> dict:
    rec: dict = {
        "video_id": q.video_id,
        "sentence": q.sentence,
        "start_seg": q.moment.start_seg,
        "end_seg": q.moment.end_seg,
    }
    if q.temporal_word != "none":
        rec["temporal_word"] = q.temporal_word
    if q.context is not None:
        rec["ctx_regions"] = [[r.start_seg, r.end_seg] for r in q.context.regions]
    if q.context_sentence is not None:
        rec["context_sentence"] = q.context_sentence
    return rec


def _text(value: object, key: str) -> str:
    """A sentence field that the query encoder can read: a string with at
    least one token."""
    if not isinstance(value, str) or not tokenize(value):
        raise ValueError(f"{key} must be a string with at least one token, got {value!r}")
    return value


def _segment(value: object, key: str) -> int:
    """A segment index field: an integer, a float with no fractional part, or
    a string of digits. A boolean or any other value is an error naming
    `key`; a string that is no integer keeps int()'s error."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)) \
            or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{key}: {value!r} is not a whole segment index")


def record_to_query(rec: dict, where: str) -> TemporalQuery:
    """One annotation record as a query; every malformed field raises a
    ValueError that starts with `where`."""
    if not isinstance(rec, dict):
        raise ValueError(f"{where}: expected an object, got {type(rec).__name__}")
    try:
        video_id = rec["video_id"]
        if not isinstance(video_id, str):
            raise ValueError(f"video_id must be a string, got {video_id!r}")
        moment = Moment(_segment(rec["start_seg"], "start_seg"),
                        _segment(rec["end_seg"], "end_seg"))
        pairs = rec.get("ctx_regions")
        if pairs is None:
            pairs = []
        if not isinstance(pairs, list) \
                or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
            raise ValueError(f"ctx_regions must be a list of [start_seg, end_seg] pairs, "
                             f"got {pairs!r}")
        regions = [Moment(_segment(s, "ctx_regions"), _segment(e, "ctx_regions")) for s, e in pairs]
        context = None
        if len(regions) == 1:
            context = ContextMoment.single(regions[0])
        elif len(regions) == 2:
            context = ContextMoment.pair(*regions)
        elif regions:
            raise ValueError(f"a context has 1 or 2 regions, got {len(regions)}")
        context_sentence = rec.get("context_sentence")
        return TemporalQuery(video_id, _text(rec["sentence"], "sentence"), moment,
                             rec.get("temporal_word", "none"), context,
                             None if context_sentence is None
                             else _text(context_sentence, "context_sentence"))
    except KeyError as exc:
        raise ValueError(f"{where}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def save_annotations(path: str, queries: Sequence[TemporalQuery]) -> None:
    configio.write_json(path, {"schema": 1, "records": [query_to_record(q) for q in queries]})


def load_annotations(path: str) -> list[TemporalQuery]:
    doc = configio.read_json(path)
    records = doc.get("records") if isinstance(doc, dict) else doc
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a record array")
    return [record_to_query(rec, f"{path}: record {i}") for i, rec in enumerate(records)]


def save_truth(path: str, truth: SymbolicGroundTruth) -> None:
    doc = {"schema": 1, "videos": {v: list(toks) for v, toks in sorted(truth.events.items())}}
    configio.write_json(path, doc)


def load_truth(path: str) -> SymbolicGroundTruth:
    doc = configio.read_json(path)
    videos = doc["videos"] if isinstance(doc, dict) and "schema" in doc and "videos" in doc else doc
    if not isinstance(videos, dict):
        raise ValueError(f"{path}: expected a video -> event list mapping")
    for v, toks in videos.items():
        if not isinstance(toks, list) or not all(isinstance(t, str) for t in toks):
            raise ValueError(f"{path}: video {v!r}: expected a list of event names")
    return SymbolicGroundTruth({v: list(toks) for v, toks in videos.items()})


MANIFEST_NAME = "corpus.manifest"


def save_corpus(out_dir: str, synthetic: SyntheticCorpus) -> str:
    """Write every corpus artifact plus the manifest; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    all_features: dict[str, dict[str, SegmentFeatureTable]] = {}
    all_features.update(synthetic.train.features)
    all_features.update(synthetic.test.features)
    modalities = synthetic.train.modalities()
    lines = []
    for mod in modalities:
        fname = f"features_{mod}.txt"
        save_features(os.path.join(out_dir, fname), {v: t[mod] for v, t in all_features.items()})
        lines.append(f"features {mod} {fname}")
    for split, corpus in (("train", synthetic.train), ("test", synthetic.test)):
        fname = f"queries_{split}.json"
        save_annotations(os.path.join(out_dir, fname), corpus.queries)
        lines.append(f"annotations {split} {fname}")
    save_truth(os.path.join(out_dir, "truth.json"), synthetic.truth)
    lines.append("truth truth.json")
    manifest = os.path.join(out_dir, MANIFEST_NAME)
    with configio.atomic_open(manifest) as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def _read_manifest(manifest_path: str) -> list[tuple[str, str | None, str, int]]:
    """The entries of a corpus manifest as (kind, key, file, line) tuples:
    `key` is the modality of a features line, the split of an annotations
    line and None for the truth line; `file` is relative to the manifest's
    directory; `line` is the entry's line number.
    Blank and `#` lines are skipped; any other line, or a second line for
    the same modality, split or truth, is a `file:line` error."""
    entries = []
    with configio.open_text(manifest_path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] in ("features", "annotations") and len(parts) == 3:
                entry = (parts[0], parts[1], parts[2], lineno)
            elif parts[0] == "truth" and len(parts) == 2:
                entry = ("truth", None, parts[1], lineno)
            else:
                raise ValueError(f"{manifest_path}:{lineno}: cannot parse {line!r}")
            if any(e[:2] == entry[:2] for e in entries):
                raise ValueError(f"{manifest_path}:{lineno}: repeats an earlier "
                                 f"{' '.join(parts[:-1])!r} line")
            entries.append(entry)
    return entries


def corpus_files(manifest_path: str) -> list[str]:
    """The manifest's file name and every file it lists, as `save_corpus`
    wrote them (relative to the manifest's directory)."""
    return [os.path.basename(manifest_path)] + [f for _, _, f, _ in _read_manifest(manifest_path)]


def load_corpus(manifest_path: str, split: str = "train") -> Corpus:
    """Load one split through the manifest, keeping only the videos that the
    split's queries reference: the feature files are parsed and checked in
    full, but only those videos get tables. Videos of the split that no
    query names are dropped, so inter-video training negatives come from
    the referenced videos alone. A feature file, or the split's annotation
    file, that does not exist is a `manifest:line` error; an annotation file
    without queries is an error naming it."""
    base = os.path.dirname(manifest_path)
    entries = _read_manifest(manifest_path)
    feature_paths = {k: os.path.join(base, f) for kind, k, f, _ in entries if kind == "features"}
    annotation_paths = {k: os.path.join(base, f) for kind, k, f, _ in entries if kind == "annotations"}
    if not feature_paths:
        raise ValueError(f"{manifest_path}: no feature files listed")
    if split not in annotation_paths:
        raise ValueError(
            f"{manifest_path}: no annotations for split {split!r}, "
            f"have {sorted(annotation_paths)}"
        )
    for kind, key, f, lineno in entries:
        listed = os.path.join(base, f)
        if (kind == "features" or (kind, key) == ("annotations", split)) and not os.path.exists(listed):
            raise ValueError(f"{manifest_path}:{lineno}: {kind} file {listed} does not exist")
    path = annotation_paths[split]
    queries = load_annotations(path)
    if not queries:
        raise ValueError(f"{path}: split {split!r} has no queries")
    videos = {q.video_id for q in queries}
    per_mod = {mod: load_features(p, mod, videos) for mod, p in feature_paths.items()}
    for i, q in enumerate(queries):
        if not any(q.video_id in tables for tables in per_mod.values()):
            raise ValueError(f"{path}: record {i}: no feature file has video {q.video_id!r}")
    features: dict[str, dict[str, SegmentFeatureTable]] = {}
    for vid in sorted(videos):
        features[vid] = {}
        for mod, tables in per_mod.items():
            if vid not in tables:
                raise ValueError(f"video {vid!r} has no {mod} features in {feature_paths[mod]}")
            features[vid][mod] = tables[vid]
        counts = {feature_paths[mod]: t.n_segments for mod, t in features[vid].items()}
        if len(set(counts.values())) > 1:
            raise ValueError(f"video {vid!r}: modalities disagree on segment count: "
                             + ", ".join(f"{p} gives {n}" for p, n in counts.items()))
    corpus = Corpus(features, queries)
    corpus.validate(f"{path}: record")
    return corpus

