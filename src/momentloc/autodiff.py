"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Design, in brief:

- ``Parameter`` is a named leaf tensor with a persistent gradient buffer.
- ``Tape`` records every operation as a ``Node`` in creation order; scalars are
  0-d arrays so every value is an ndarray. Creation order is a topological
  order of the DAG, so ``backward`` is a single reverse sweep.
- A tape built with ``recording=False`` runs the identical forward expressions
  without recording anything. Inference uses this mode and produces values
  bit-identical to a recording tape, because there is exactly one code path
  for the math.
- ``Tape.memo`` holds what a caller computes once per tape and reads again
  (``model._projected_rows``' visual rows); it lives as long as the tape.
- No implicit broadcasting: elementwise ops require equal shapes, matmul
  supports the (m,k)@(k,n), (m,k)@(k,) and (k,)@(k,) cases only. The row ops
  (``linear_rows``, ``add_rows``, ...) take a stack of row vectors and apply
  one vector to every row, or pair row i with row i of a second stack, by
  name. Shape mismatches raise immediately with the shapes in the message.
- Row ops are exact per row: each forward product is a stack of
  matrix-vector products (``w[None] @ x[:, :, None]``) or of dot products
  (``x[:, None, :] @ y[:, :, None]``), which numpy runs as one gemv or dot
  call per row, the same BLAS call a single-vector ``matmul`` makes. A row of
  the stack is therefore bit-identical to the same vector computed alone. One
  gemm (``x @ w.T``) would round differently. Backward passes use gemm.
- ``gather_rows`` builds a stack from parts (indexed rows of a table, a
  stack as it is, one vector in every row) by writing each part in turn
  into its columns of one preallocated output, so a per-pair stack is
  written once and at most one part's indexed rows are held beside it.
- Stacked reductions that stand for a chain of scalar adds (``segment_sums``,
  and the scatter of repeated rows' gradients) add left to right, so their
  values equal the chain's bit for bit: they sum zero-padded slabs over a
  non-contiguous axis (``_run_sums``). ``np.sum`` over a contiguous axis and
  ``np.add.reduceat`` sum pairwise, which reorders the additions.

Backward closures hold their input nodes but never the tape, so a dropped
tape and its graph are freed by reference counting, without waiting for the
cycle collector.

Gradients are lazy. A node's gradient buffer is allocated by the first
backward write that reaches it, and ``backward`` skips every node that no
gradient reached, so a branch that does not lead to the root costs nothing.
A recorded node that no gradient reached reads zeros; a node of an inference
tape has ``grad`` None. ``gather_rows`` writes no gradient to a constant part
at all: nothing upstream of a constant reads it. The gradient of a row read
several times is summed left to right, as ``np.add.at`` would sum it.

Gradient conventions: ``backward`` accumulates, so shared subtrees sum
naturally; ``max_select`` and ``group_max`` route the gradient to the first
argmax on ties; ``relu`` has zero gradient at exactly zero.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from .configio import atomic_open

NORMALIZE_EPS = 1e-8

CHECKPOINT_MAGIC = b"MLLC1"


def as_array(value: object) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite values")
    return arr


def group_argmax(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Index into `values` of the first maximum of each group, where the
    groups are consecutive runs of `sizes[g]` entries (np.argmax semantics
    within a group: ties go to the earliest). Equal groups are one reshape;
    others are padded with -inf to the largest."""
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    if sizes.min() == sizes.max():
        return starts + values.reshape(len(sizes), -1).argmax(axis=1)
    padded = np.full((len(sizes), int(sizes.max())), -np.inf)
    padded[np.repeat(np.arange(len(sizes)), sizes),
           np.arange(len(values)) - np.repeat(starts, sizes)] = values
    return starts + padded.argmax(axis=1)


def _accumulate(node: "Node", g: np.ndarray) -> None:
    """Add `g` to the gradient of `node`. The first write copies `g`, so a
    buffer never aliases an array that something else holds."""
    if node._grad is None:
        node._grad = np.array(g, dtype=np.float64)
    else:
        node._grad += g


def _accumulate_owned(node: "Node", g: np.ndarray) -> None:
    """`_accumulate` for a `g` of the node's shape that was computed for this
    write alone: the first write keeps it as the buffer."""
    if node._grad is None:
        node._grad = g
    else:
        node._grad += g


def _buffer(node: "Node") -> np.ndarray:
    """The gradient buffer of `node`, allocated as zeros on first use, for
    writes into part of it."""
    if node._grad is None:
        node._grad = np.zeros_like(node.value)
    return node._grad


def _add_row_grad(v: "Node", g: np.ndarray, owned: bool) -> None:
    """Add the gradient `g` of a stack's rows to the node `v` that a row op
    paired them with: summed over the rows when `v` is the one vector every
    row used."""
    if v.value.ndim == 1:
        _accumulate_owned(v, g.sum(axis=0))
    elif owned:
        _accumulate_owned(v, g)
    else:
        _accumulate(v, g)


def _scatter_rows(node: "Node", rows: np.ndarray, g: np.ndarray) -> None:
    """Add row k of `g` to row `rows[k]` of the gradient of `node`, for
    unsorted indices with repeats: a stable sort groups the repeats in index
    order and `_run_sums` adds each group. Into a fresh buffer this makes
    the same additions in the same order as ``np.add.at``, which adds row by
    row and is several times slower."""
    if not len(rows):
        return
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    sizes = np.diff(np.append(starts, len(rows)))
    _buffer(node)[ordered[starts]] += _run_sums(g[order], sizes)


def _run_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sum of each run of `sizes[r]` consecutive entries (or rows) of
    `values`, added one by one from the left. Entry k of every run fills
    slab k of a zero-padded (longest run, runs, ...) array, and summing over
    the slab axis adds slab after slab: numpy sums pairwise only along the
    contiguous innermost axis, which the slab axis is only when a slab holds
    one number, so that case goes through ``np.cumsum``."""
    if values.size == len(values) and len(sizes) == 1:
        return np.cumsum(values, axis=0)[-1:]
    starts = np.cumsum(sizes) - sizes
    padded = np.zeros((int(sizes.max()), len(sizes)) + values.shape[1:])
    padded[np.arange(len(values)) - np.repeat(starts, sizes), np.repeat(np.arange(len(sizes)), sizes)] = values
    return padded.sum(axis=0)


def _partition(x: "Node", sizes: Sequence[int], op: str) -> np.ndarray:
    """`sizes` as an index array, checked to split the vector `x` into
    consecutive non-empty groups."""
    sizes = np.asarray(sizes, dtype=np.intp)
    if x.value.ndim != 1 or sizes.ndim != 1 or sizes.size == 0 or np.any(sizes < 1) \
            or int(sizes.sum()) != x.value.shape[0]:
        raise ValueError(f"{op}: group sizes {sizes.tolist()} do not partition shape {x.value.shape}")
    return sizes


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument only, so no overflow on either branch
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class Parameter:
    """Named leaf tensor. ``trainable=False`` freezes it under sgd_step."""

    __slots__ = ("name", "value", "grad", "trainable")

    def __init__(self, name: str, value: object, trainable: bool = True):
        self.name = name
        self.value = as_array(value)
        self.grad = np.zeros_like(self.value)
        self.trainable = trainable

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape}, trainable={self.trainable})"


class Node:
    """One value of a tape. Its gradient buffer is allocated by the first
    backward write (module notes)."""

    __slots__ = ("value", "_grad", "_backward", "_recorded")

    def __init__(self, value: np.ndarray):
        self.value = value
        self._grad = None
        self._backward = None
        self._recorded = False

    @property
    def grad(self) -> np.ndarray | None:
        """d(root)/d(node) after a backward sweep: zeros where no gradient
        reached the node, None on an inference tape."""
        if self._grad is None and self._recorded:
            return np.zeros_like(self.value)
        return self._grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


class Tape:
    """Operation recorder. All ops are methods so the graph has one owner."""

    def __init__(self, recording: bool = True):
        self.recording = recording
        self.nodes: list[Node] = []
        self._swept = False
        self._params: dict[Parameter, Node] = {}
        self.memo: dict = {}

    def _make(self, value: np.ndarray, backward=None) -> Node:
        node = Node(value)
        if self.recording:
            node._recorded = True
            node._backward = backward
            self.nodes.append(node)
        return node

    # -- leaves ------------------------------------------------------------

    def constant(self, value: object) -> Node:
        return self._make(as_array(value))

    def param(self, p: Parameter) -> Node:
        """The leaf node of a parameter: one per parameter and tape, so each
        parameter's gradient reaches ``p.grad`` in one addition."""
        node = self._params.get(p)
        if node is None:

            def back(node: Node) -> None:
                p.grad += node._grad

            node = self._params[p] = self._make(p.value, back)
        return node

    # -- elementwise -------------------------------------------------------

    def _binary_elementwise(self, a: Node, b: Node, op: str) -> None:
        if a.value.shape != b.value.shape:
            raise ValueError(f"{op}: shape mismatch {a.value.shape} vs {b.value.shape}")

    def add(self, a: Node, b: Node) -> Node:
        self._binary_elementwise(a, b, "add")

        def back(node: Node) -> None:
            _accumulate(a, node._grad)
            _accumulate(b, node._grad)

        return self._make(a.value + b.value, back)

    def sub(self, a: Node, b: Node) -> Node:
        self._binary_elementwise(a, b, "sub")

        def back(node: Node) -> None:
            _accumulate(a, node._grad)
            _accumulate_owned(b, -node._grad)

        return self._make(a.value - b.value, back)

    def hadamard(self, a: Node, b: Node) -> Node:
        self._binary_elementwise(a, b, "hadamard")

        def back(node: Node) -> None:
            _accumulate_owned(a, node._grad * b.value)
            _accumulate_owned(b, node._grad * a.value)

        return self._make(a.value * b.value, back)

    def scale(self, a: Node, c: float) -> Node:
        c = float(c)

        def back(node: Node) -> None:
            _accumulate_owned(a, node._grad * c)

        return self._make(a.value * c, back)

    def tanh(self, a: Node) -> Node:
        out = np.tanh(a.value)

        def back(node: Node) -> None:
            _accumulate_owned(a, node._grad * (1.0 - out * out))

        return self._make(out, back)

    def sigmoid(self, a: Node) -> Node:
        out = _sigmoid(a.value)

        def back(node: Node) -> None:
            _accumulate_owned(a, node._grad * out * (1.0 - out))

        return self._make(out, back)

    def relu(self, a: Node) -> Node:
        def back(node: Node) -> None:
            _accumulate_owned(a, node._grad * (a.value > 0))

        return self._make(np.maximum(a.value, 0.0), back)

    def softplus(self, a: Node) -> Node:
        def back(node: Node) -> None:
            _accumulate_owned(a, node._grad * _sigmoid(a.value))

        return self._make(np.logaddexp(0.0, a.value), back)

    # -- linear algebra ------------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        av, bv = a.value, b.value
        if av.ndim == 2 and bv.ndim == 2 and av.shape[1] == bv.shape[0]:

            def back(node: Node) -> None:
                _accumulate_owned(a, node._grad @ bv.T)
                _accumulate_owned(b, av.T @ node._grad)

        elif av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:

            def back(node: Node) -> None:
                _accumulate_owned(a, np.outer(node._grad, bv))
                _accumulate_owned(b, av.T @ node._grad)

        elif av.ndim == 1 and bv.ndim == 1 and av.shape == bv.shape:

            def back(node: Node) -> None:
                _accumulate_owned(a, node._grad * bv)
                _accumulate_owned(b, node._grad * av)

        else:
            raise ValueError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")
        return self._make(np.asarray(av @ bv), back)

    def concat(self, parts: Sequence[Node]) -> Node:
        if not parts:
            raise ValueError("concat of zero vectors")
        for p in parts:
            if p.value.ndim != 1:
                raise ValueError(f"concat needs 1-d inputs, got shape {p.value.shape}")
        sizes = [p.value.shape[0] for p in parts]
        offsets = np.cumsum([0] + sizes)

        def back(node: Node) -> None:
            for p, lo, hi in zip(parts, offsets, offsets[1:]):
                _accumulate(p, node._grad[lo:hi])

        return self._make(np.concatenate([p.value for p in parts]), back)

    def slice1d(self, a: Node, lo: int, hi: int) -> Node:
        if a.value.ndim != 1 or not 0 <= lo <= hi <= a.value.shape[0]:
            raise ValueError(f"slice1d: bad range [{lo}, {hi}) for shape {a.value.shape}")

        def back(node: Node) -> None:
            _buffer(a)[lo:hi] += node._grad

        return self._make(a.value[lo:hi].copy(), back)

    def take_row(self, a: Node, row: int) -> Node:
        """Row `row` of a matrix, or entry `row` of a vector as a scalar."""
        if a.value.ndim not in (1, 2) or not 0 <= row < a.value.shape[0]:
            raise ValueError(f"take_row: row {row} out of range for shape {a.value.shape}")

        def back(node: Node) -> None:
            _buffer(a)[row] += node._grad

        return self._make(a.value[row].copy(), back)

    def take(self, x: Node, index: Sequence[int]) -> Node:
        """Entries `index` of a vector, repeats allowed, as a vector. The
        gradient of a repeated entry is summed from the last repeat to the
        first, as the backward sweep over one ``take_row`` per entry would
        sum it."""
        index = np.asarray(index, dtype=np.intp)
        n = x.value.shape[0] if x.value.ndim == 1 else 0
        if x.value.ndim != 1 or index.ndim != 1 or np.any((index < 0) | (index >= n)):
            raise ValueError(f"take: need a vector and indices into it, got shape {x.value.shape}")

        def back(node: Node) -> None:
            _scatter_rows(x, index[::-1], node._grad[::-1])

        return self._make(x.value[index], back)

    def sum_all(self, a: Node) -> Node:
        def back(node: Node) -> None:
            _accumulate_owned(a, np.full(a.value.shape, node._grad))

        return self._make(np.asarray(a.value.sum()), back)

    # -- similarity building blocks -----------------------------------------

    def l2_normalize(self, a: Node, eps: float = NORMALIZE_EPS) -> Node:
        if a.value.ndim != 1:
            raise ValueError(f"l2_normalize needs a vector, got shape {a.value.shape}")
        norm = float(np.sqrt(np.dot(a.value, a.value)))
        denom = max(norm, eps)
        out = a.value / denom

        def back(node: Node) -> None:
            if norm >= eps:
                _accumulate_owned(a, (node._grad - np.dot(node._grad, out) * out) / denom)
            else:
                _accumulate_owned(a, node._grad / denom)

        return self._make(out, back)

    def squared_distance(self, a: Node, b: Node) -> Node:
        self._binary_elementwise(a, b, "squared_distance")
        diff = a.value - b.value

        def back(node: Node) -> None:
            g = 2.0 * node._grad * diff
            _accumulate_owned(b, -g)
            _accumulate_owned(a, g)

        return self._make(np.asarray(np.dot(diff, diff)), back)

    def max_select(self, scores: Sequence[Node]) -> tuple[Node, int]:
        """Max over scalar nodes; ties go to the earliest. Subgradient routes
        entirely to the selected input."""
        if not scores:
            raise ValueError("max_select over an empty set")
        for s in scores:
            if s.value.shape != ():
                raise ValueError(f"max_select needs scalars, got shape {s.value.shape}")
        idx = int(np.argmax([s.value for s in scores]))
        chosen = scores[idx]

        def back(node: Node) -> None:
            _accumulate(chosen, node._grad)

        return self._make(chosen.value.copy(), back), idx

    # -- row stacks ------------------------------------------------------------
    #
    # A stack is an (n, d) node whose rows are independent vectors; a row op
    # computes each row exactly as the single-vector op would (module notes).

    def linear_rows(self, x: Node, w: Node, b: Node) -> Node:
        """``w @ x_i + b`` for every row: x (n, k) with w (m, k) and b (m,)
        gives (n, m); a vector w (k,) with a scalar b gives (n,)."""
        xv, wv, bv = x.value, w.value, b.value
        if xv.ndim != 2 or wv.ndim not in (1, 2) or wv.shape[-1] != xv.shape[1] \
                or bv.shape != wv.shape[:-1]:
            raise ValueError(
                f"linear_rows: incompatible shapes x {xv.shape}, w {wv.shape}, b {bv.shape}"
            )
        xc, wc = np.ascontiguousarray(xv), np.ascontiguousarray(wv)
        if wv.ndim == 2:
            prod = (wc[None] @ xc[:, :, None])[:, :, 0]

            def back(node: Node) -> None:
                g = node._grad
                _accumulate_owned(x, g @ wv)
                _accumulate_owned(w, g.T @ xv)
                _accumulate_owned(b, g.sum(axis=0))

        else:
            prod = (wc[None, None, :] @ xc[:, :, None])[:, 0, 0]

            def back(node: Node) -> None:
                g = node._grad
                _accumulate_owned(x, np.outer(g, wv))
                _accumulate_owned(w, g @ xv)
                _accumulate_owned(b, np.asarray(g.sum()))

        # the product is a fresh array, so the bias goes in place
        prod += bv
        return self._make(prod, back)

    def _rows_and_row(self, x: Node, v: Node, op: str) -> None:
        if x.value.ndim != 2 or v.value.shape not in (x.value.shape[1:], x.value.shape):
            raise ValueError(
                f"{op}: need an (n, d) stack and a (d,) vector or another (n, d) "
                f"stack, got {x.value.shape} and {v.value.shape}"
            )

    def add_rows(self, x: Node, v: Node) -> Node:
        """``x_i + v`` (or ``x_i + v_i``) for every row."""
        self._rows_and_row(x, v, "add_rows")

        def back(node: Node) -> None:
            _accumulate(x, node._grad)
            _add_row_grad(v, node._grad, owned=False)

        return self._make(x.value + v.value, back)

    def hadamard_rows(self, x: Node, v: Node) -> Node:
        """``x_i * v`` (or ``x_i * v_i``) for every row."""
        self._rows_and_row(x, v, "hadamard_rows")

        def back(node: Node) -> None:
            _accumulate_owned(x, node._grad * v.value)
            _add_row_grad(v, node._grad * x.value, owned=True)

        return self._make(x.value * v.value, back)

    def squared_distance_rows(self, x: Node, v: Node) -> Node:
        """``|x_i - v|^2`` (or ``|x_i - v_i|^2``) for every row, shape (n,)."""
        self._rows_and_row(x, v, "squared_distance_rows")
        diff = x.value - v.value

        def back(node: Node) -> None:
            g = 2.0 * node._grad[:, None] * diff
            _add_row_grad(v, -g, owned=True)
            _accumulate_owned(x, g)

        return self._make((diff[:, None, :] @ diff[:, :, None])[:, 0, 0], back)

    def slice_rows(self, x: Node, lo: int, hi: int) -> Node:
        """Rows [lo, hi) of a stack."""
        if x.value.ndim != 2 or not 0 <= lo <= hi <= x.value.shape[0]:
            raise ValueError(f"slice_rows: bad range [{lo}, {hi}) for shape {x.value.shape}")

        def back(node: Node) -> None:
            _buffer(x)[lo:hi] += node._grad

        return self._make(x.value[lo:hi].copy(), back)

    def slice_cols(self, x: Node, lo: int, hi: int) -> Node:
        """Columns [lo, hi) of every row of a stack."""
        if x.value.ndim != 2 or not 0 <= lo <= hi <= x.value.shape[1]:
            raise ValueError(f"slice_cols: bad range [{lo}, {hi}) for shape {x.value.shape}")

        def back(node: Node) -> None:
            _buffer(x)[:, lo:hi] += node._grad

        return self._make(x.value[:, lo:hi].copy(), back)

    def select_rows(self, mask: np.ndarray, a: Node, b: Node) -> Node:
        """Row i of `a` where `mask[i]`, else row i of `b`."""
        mask = np.asarray(mask, dtype=bool)
        if a.value.ndim != 2 or a.value.shape != b.value.shape or mask.shape != a.value.shape[:1]:
            raise ValueError(
                f"select_rows: need two equal (n, d) stacks and an (n,) mask, got "
                f"{a.value.shape}, {b.value.shape} and {mask.shape}"
            )
        keep = mask[:, None]

        def back(node: Node) -> None:
            _accumulate_owned(a, np.where(keep, node._grad, 0.0))
            _accumulate_owned(b, np.where(keep, 0.0, node._grad))

        return self._make(np.where(keep, a.value, b.value), back)

    def l2_normalize_rows(self, x: Node, eps: float = NORMALIZE_EPS) -> Node:
        """``l2_normalize`` of every row."""
        if x.value.ndim != 2:
            raise ValueError(f"l2_normalize_rows needs an (n, d) stack, got shape {x.value.shape}")
        xc = np.ascontiguousarray(x.value)
        norm = np.sqrt((xc[:, None, :] @ xc[:, :, None])[:, 0, 0])
        denom = np.maximum(norm, eps)[:, None]
        out = xc / denom
        big = (norm >= eps)[:, None]

        def back(node: Node) -> None:
            g = node._grad
            radial = np.where(big, (g * out).sum(axis=1, keepdims=True) * out, 0.0)
            _accumulate_owned(x, (g - radial) / denom)

        return self._make(out, back)

    def gather_rows(self, parts: Sequence[tuple[Node, np.ndarray | None]]) -> Node:
        """Stack of n rows, each the concatenation of one row from every
        part. A part is (node, rows): an (m, d) node with an index array of
        length n gives its indexed rows (repeats allowed); an (n, d) node
        with None gives its rows as they are; a (d,) node with None gives
        itself in every row. The parts' shapes are checked first; then each
        part in turn is written into its columns of the one (n, total width)
        output, so at most one part's indexed rows are held beside it."""
        if not parts:
            raise ValueError("gather_rows of zero parts")
        shapes = []
        for node, rows in parts:
            v = node.value
            if rows is not None and v.ndim == 2:
                shapes.append((len(rows), v.shape[1]))
            elif rows is None and v.ndim in (1, 2):
                shapes.append(v.shape)
            else:
                index = "an index" if rows is not None else "no index"
                raise ValueError(f"gather_rows: a part of shape {v.shape} cannot take {index}")
        n_rows = {s[0] for s in shapes if len(s) == 2}
        if len(n_rows) != 1:
            raise ValueError(f"gather_rows: parts disagree on the row count: {shapes}")
        (n,) = n_rows
        offsets = np.cumsum([0] + [s[-1] for s in shapes])
        out = np.empty((n, int(offsets[-1])))
        for (p, rows), lo, hi in zip(parts, offsets, offsets[1:]):
            out[:, lo:hi] = p.value if rows is None else p.value.take(rows, axis=0)

        def back(node: Node) -> None:
            for (p, rows), lo, hi in zip(parts, offsets, offsets[1:]):
                if p._backward is None:  # a constant
                    continue
                g = node._grad[:, lo:hi]
                if rows is not None:
                    _scatter_rows(p, rows, g)
                elif p.value.ndim == 1:
                    _accumulate_owned(p, g.sum(axis=0))
                else:
                    _accumulate(p, g)

        return self._make(out, back)

    def group_max(self, x: Node, sizes: Sequence[int]) -> tuple[Node, np.ndarray]:
        """Max over each group of a vector's entries, the groups being
        consecutive runs of `sizes[g]` entries. Ties go to the earliest entry
        of the group, which alone receives the gradient. Returns the (groups,)
        node and the index of each group's chosen entry."""
        sizes = _partition(x, sizes, "group_max")
        rows = group_argmax(x.value, sizes)

        def back(node: Node) -> None:
            _buffer(x)[rows] += node._grad

        return self._make(x.value[rows], back), rows

    def segment_sums(self, x: Node, sizes: Sequence[int]) -> Node:
        """Sum of each group of a vector's entries, the groups being
        consecutive runs of `sizes[g]` entries, added left to right as a
        chain of ``add`` calls adds them (module notes). Shape (groups,)."""
        sizes = _partition(x, sizes, "segment_sums")

        def back(node: Node) -> None:
            _accumulate_owned(x, np.repeat(node._grad, sizes))

        return self._make(_run_sums(x.value, sizes), back)


def backward(tape: Tape, root: Node) -> None:
    """Reverse sweep from a scalar root; every node ends with d(root)/d(node).

    A second sweep on the same tape is an error: gradients would silently
    double. Build a fresh tape per loss evaluation.
    """
    if not tape.recording:
        raise ValueError("cannot run backward on a non-recording tape")
    if root.value.shape != ():
        raise ValueError(f"backward root must be scalar, got shape {root.value.shape}")
    if tape._swept:
        raise RuntimeError("backward already ran on this tape")
    tape._swept = True
    root._grad = np.ones_like(root.value)
    for node in reversed(tape.nodes):
        if node._grad is not None and node._backward is not None:
            node._backward(node)


def sgd_step(params: Iterable[Parameter], lr: float) -> None:
    """In-place SGD update on trainable parameters; zeroes every gradient."""
    for p in params:
        if p.trainable:
            p.value -= lr * p.grad
        p.grad[...] = 0.0


# -- checkpoint wire format ---------------------------------------------------
#
# magic "MLLC1"; u64 little-endian tensor count; then per tensor (sorted by
# name): u64 name length, UTF-8 name, u64 rank, u64 dims, float64 LE data in
# row-major order.


def save_checkpoint(path: str, tensors: Mapping[str, np.ndarray]) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(tensors)))
        for name in sorted(tensors):
            # asarray (not ascontiguousarray) keeps 0-d tensors 0-d
            arr = np.asarray(tensors[name], dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes(order="C"))


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    def read_exact(fh, n: int) -> bytes:
        buf = fh.read(n)
        if len(buf) != n:
            raise ValueError(f"truncated checkpoint {path!r}")
        return buf

    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path!r} is not a checkpoint (bad magic)")
        (count,) = struct.unpack("<Q", read_exact(fh, 8))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<Q", read_exact(fh, 8))
            name = read_exact(fh, name_len).decode("utf-8")
            (rank,) = struct.unpack("<Q", read_exact(fh, 8))
            shape = struct.unpack(f"<{rank}Q", read_exact(fh, 8 * rank)) if rank else ()
            n_items = int(np.prod(shape, dtype=np.int64)) if shape else 1
            data = np.frombuffer(read_exact(fh, 8 * n_items), dtype="<f8")
            tensors[name] = data.reshape(shape).astype(np.float64)
        if fh.read(1):
            raise ValueError(f"trailing bytes after {count} tensors in {path!r}")
    return tensors
