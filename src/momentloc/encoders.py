"""Per-video segment features, the query encoder, and their on-disk formats.

A video arrives as one table of per-segment feature rows per modality; the
pooling of moments, the branch MLPs and the endpoint features that turn those
rows into visual vectors live in the model's grid scorer. The language side
is a single-layer LSTM over learned (or pretrained, frozen) token embeddings
whose final hidden state is projected into the joint space; it runs a whole
batch of queries as one stack.
"""

from __future__ import annotations

import warnings
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .autodiff import Node, Parameter, Tape, as_array
from .configio import atomic_open, open_text, read_json, write_json

UNK_TOKEN = "<unk>"


@dataclass
class SegmentFeatureTable:
    """Per-segment feature rows for one video in one modality."""

    video_id: str
    modality: str
    features: np.ndarray

    def __post_init__(self) -> None:
        # C order: a moment's pooled mean then adds its rows one by one
        self.features = np.ascontiguousarray(as_array(self.features))
        if self.features.ndim != 2 or 0 in self.features.shape:
            raise ValueError(
                f"features for {self.video_id!r}/{self.modality} must be "
                f"(n_segments, dim), got shape {self.features.shape}"
            )

    @property
    def n_segments(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


# -- language ----------------------------------------------------------------


class Vocabulary:
    """Token index with a reserved unknown slot at 0."""

    def __init__(self, tokens: Sequence[str]):
        self._tokens: list[str] = []
        self._index: dict[str, int] = {}
        for tok in tokens:
            if tok not in self._index and tok != UNK_TOKEN:
                self._index[tok] = len(self._tokens) + 1
                self._tokens.append(tok)

    @classmethod
    def from_token_lists(cls, token_lists: Iterable[Sequence[str]]) -> "Vocabulary":
        return cls([tok for toks in token_lists for tok in toks])

    @property
    def size(self) -> int:
        return len(self._tokens) + 1

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self._tokens)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self._index.get(tok, 0) for tok in tokens]

    def to_json(self) -> dict:
        return {"schema": 1, "tokens": list(self._tokens)}

    @classmethod
    def from_json(cls, doc: dict, where: str = "vocabulary") -> "Vocabulary":
        tokens = doc.get("tokens") if isinstance(doc, dict) else doc
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ValueError(f"{where}: expected a 'tokens' list of strings")
        return cls(tokens)


# Gates are stacked [input, forget, output, cell] along the first axis of the
# (4H, E) input and (4H, H) recurrent matrices.
def encode_queries(
    tape: Tape, token_lists: Sequence[Sequence[int]], params: Mapping[str, Parameter]
) -> Node:
    """LSTM over a batch of token sequences, one row per sequence; each final
    hidden state is projected into the joint embedding space, giving a
    (sequences, joint_dim) stack.

    The sequences run side by side over a padded token matrix, one step per
    token position: one `linear_rows` forms `W x` of every step, and the
    recurrence is one `Tape.lstm` node. A row whose sequence has ended
    keeps its state, so each row is bit for bit the encoding of its
    sequence alone: the gate pre-activations are `(W x + U h) + b`, each
    product a stack of gemv calls and `b` the one row added to every row of
    the stack, every other step is elementwise, and the gates take sigmoid
    and tanh of all of the pre-activations and keep their own columns.
    """
    vocab_size = params["lang.embed"].value.shape[0]
    for ids in token_lists:
        if not ids:
            raise ValueError("cannot encode an empty query")
        for t in ids:
            if not 0 <= t < vocab_size:
                raise ValueError(f"token id {t} out of range for vocabulary of {vocab_size}")
    lengths = np.array([len(ids) for ids in token_lists])
    n_rows, n_steps = len(token_lists), int(lengths.max())
    # step-major token ids; id 0 pads an ended row, whose steps are not kept
    tokens = np.zeros((n_steps, n_rows), dtype=np.intp)
    for row, ids in enumerate(token_lists):
        tokens[: len(ids), row] = ids
    hidden = params["lang.u"].value.shape[1]
    # W x of every step at once, row t * n_rows + i for row i's token t
    wx = tape.linear_rows(
        tape.gather_rows([(tape.param(params["lang.embed"]), tokens.ravel())]),
        tape.param(params["lang.w"]), tape.constant(np.zeros(4 * hidden)),
    )
    h = tape.lstm(wx, lengths, tape.param(params["lang.u"]), tape.param(params["lang.b"]))
    return tape.linear_rows(h, tape.param(params["lang.proj_w"]), tape.param(params["lang.proj_b"]))


def encode_query(
    tape: Tape, token_ids: Sequence[int], params: Mapping[str, Parameter]
) -> Node:
    """The joint-space vector of one token sequence: `encode_queries` of a
    one-row batch."""
    return tape.take_row(encode_queries(tape, [token_ids], params), 0)


def fusion_weights(modalities: Sequence[str], fusion_lambda: float) -> dict[str, float]:
    """Per-modality late-fusion weights: lambda for the first modality and
    1 - lambda for the second; a single modality gets weight 1."""
    if not 0.0 <= fusion_lambda <= 1.0:
        raise ValueError(f"fusion_lambda must lie in [0, 1], got {fusion_lambda}")
    if len(modalities) == 1:
        return {modalities[0]: 1.0}
    if len(modalities) == 2:
        return {modalities[0]: fusion_lambda, modalities[1]: 1.0 - fusion_lambda}
    raise ValueError(f"modalities must be 1 or 2 for late fusion, got {len(modalities)}")


# -- file formats --------------------------------------------------------------
#
# Feature files are plain text, one block per video:
#   <video_id> <n_segments> <dim>
#   <dim floats> ... one line per segment
# Embedding files are one token per line followed by its vector components.


def save_features(path: str, tables: Mapping[str, SegmentFeatureTable]) -> None:
    """One block per video in id order, each written as one string: the
    header, then a line of `repr` values per segment (`tolist` gives the
    Python floats, so every value round-trips)."""
    with atomic_open(path) as fh:
        for vid in sorted(tables):
            t = tables[vid]
            rows = "\n".join(" ".join(map(repr, row)) for row in t.features.tolist())
            fh.write(f"{t.video_id} {t.n_segments} {t.dim}\n{rows}\n")


def load_features(
    path: str, modality: str, videos: Collection[str] | None = None
) -> dict[str, SegmentFeatureTable]:
    """The tables of a `save_features` file, in file order: of every video,
    or of those in `videos` that the file holds. Every row of every block
    is parsed and checked either way.

    The walk steps from header to header, one step per video; the rows of
    every block of one width are then parsed by one `np.loadtxt` call,
    numpy's C reader, which rounds as `float()` does. A malformed file fails
    at its first faulty line as `path:line: ...`: a header fault stops the
    walk, but a faulty row above it is reported first, and the row checks
    (width, numeric, finite) read the rows one by one only once a width's
    parse has failed. Lines end at `\n`, `\r\n` or `\r`, as an editor
    counts them; `readlines` never holds the whole text at once.
    """
    with open_text(path) as fh:
        lines = fh.readlines()
    # video id -> (index of its first row line, n_segments, dim, offset of
    # its first row in the stack of its width)
    blocks: dict[str, tuple[int, int, int, int]] = {}
    rows_of: dict[int, list[str]] = {}
    walk_error = None
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        try:
            vid, n, d = _feature_header(lines[i].split(), blocks)
        except ValueError as exc:
            walk_error = f"{path}:{i + 1}: {exc}"
            break
        rows = rows_of.setdefault(d, [])
        blocks[vid] = (i + 1, n, d, len(rows))
        rows += lines[i + 1:i + 1 + n]
        i += 1 + n
        if i > len(lines):
            walk_error = f"{path}: truncated block for video {vid!r}"
    stacks = {d: _parse_rows(rows, d) for d, rows in rows_of.items()}
    if any(stack is None for stack in stacks.values()):
        for start, n, d, _ in blocks.values():
            for lineno in range(start + 1, min(start + n, len(lines)) + 1):
                fault = _row_fault(lines[lineno - 1], d)
                if fault:
                    raise ValueError(f"{path}:{lineno}: {fault}")
    if walk_error:
        raise ValueError(walk_error)
    # one copy per video, so that a split which keeps a few of the file's
    # videos does not hold the whole stack of their width
    return {
        vid: SegmentFeatureTable(vid, modality, stacks[d][offset:offset + n].copy())
        for vid, (_, n, d, offset) in blocks.items() if videos is None or vid in videos
    }


def _feature_header(fields: list[str], seen: Mapping[str, object]) -> tuple[str, int, int]:
    if len(fields) != 3:
        raise ValueError("expected 'video_id n_segments dim'")
    vid, n_str, d_str = fields
    try:
        n, d = int(n_str), int(d_str)
    except ValueError:
        raise ValueError("non-integer header fields") from None
    if n < 1 or d < 1:
        raise ValueError(f"n_segments and dim must be >= 1, got {n} and {d}")
    if vid in seen:
        raise ValueError(f"duplicate video id {vid!r}")
    return vid, n, d


def _parse_rows(rows: list[str], d: int) -> np.ndarray | None:
    """`rows` as a (len(rows), d) array of finite values, or None if any row
    is faulty. `np.loadtxt` skips blank lines (hence the row count check) and
    warns, rather than fails, when every line is blank."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            values = np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)
    except (ValueError, UserWarning):
        return None
    if values.shape != (len(rows), d) or not np.isfinite(values).all():
        return None
    return values


def _row_fault(line: str, d: int, value: str = "feature value") -> str | None:
    """What is wrong with one row line of a width-`d` block, if anything;
    `value` names one entry of the row in the message."""
    fields = line.split()
    if len(fields) != d:
        return f"expected {d} values, got {len(fields)}"
    try:
        values = np.loadtxt([line], dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return f"non-numeric {value}"
    if not np.isfinite(values).all():
        return f"non-finite {value}"
    return None


def load_embeddings(path: str) -> tuple[Vocabulary, np.ndarray]:
    """Pretrained embedding text file -> (vocabulary, matrix).

    Row 0 of the matrix is the all-zero unknown vector, so the file may not
    hold a `<unk>` line; row k embeds the k-th token of the file. The caller
    freezes the resulting parameter.

    Components follow the number rule of `load_features`: the walk checks
    each line's token and component count and stops at the first faulty
    line, and the components of the lines above it are parsed by one
    `_parse_rows` call. A faulty component above the stop is reported
    first, so the first faulty line is named, with a line's token faults
    before its component faults.
    """
    line_of: dict[str, int] = {}
    rows: list[str] = []
    dim = walk_error = None
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            tok, comps = parts[0], parts[1:]
            if tok == UNK_TOKEN:
                fault = f"token {UNK_TOKEN!r} is reserved"
            elif not comps:
                fault = f"token {tok!r} has no vector"
            elif dim is not None and len(comps) != dim:
                fault = f"expected {dim} components, got {len(comps)}"
            elif tok in line_of:
                fault = f"duplicate token {tok!r}"
            else:
                dim, line_of[tok] = len(comps), lineno
                rows.append(" ".join(comps))
                continue
            walk_error = f"{path}:{lineno}: {fault}"
            break
    if not rows:
        raise ValueError(walk_error or f"{path}: empty embedding file")
    matrix = _parse_rows(rows, dim)
    if matrix is None:
        for row, lineno in zip(rows, line_of.values()):
            fault = _row_fault(row, dim, "component")
            if fault:
                raise ValueError(f"{path}:{lineno}: {fault}")
    if walk_error:
        raise ValueError(walk_error)
    return Vocabulary(list(line_of)), np.vstack([np.zeros((1, dim)), matrix])


def save_vocabulary(path: str, vocab: Vocabulary) -> None:
    write_json(path, vocab.to_json(), indent=0)


def load_vocabulary(path: str) -> Vocabulary:
    return Vocabulary.from_json(read_json(path), path)
