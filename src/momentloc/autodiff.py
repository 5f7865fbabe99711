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
- One broadcasting rule: a binary elementwise op takes two operands of
  equal shape, or an (n, d) stack and one (d,) row that every row of the
  stack uses. matmul supports the (m,k)@(k,n), (m,k)@(k,) and (k,)@(k,)
  cases only. Shape mismatches raise immediately with the shapes in the
  message.
- An op that takes a vector also takes a stack of row vectors and is exact
  per row: each forward product is a stack of matrix-vector products
  (``w[None] @ x[:, :, None]``) or of dot products
  (``x[..., None, :] @ y[..., :, None]``), which numpy runs as one gemv or
  dot call per row, the same BLAS call a single-vector ``matmul`` makes. A
  row of the stack is therefore bit-identical to the same vector computed
  alone. One gemm (``x @ w.T``) would round differently. Backward passes
  use gemm.
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
cycle collector. Every op but four is built by ``Tape._op`` from its value
and one gradient expression per operand, and its one backward adds each
operand's expression of the output gradient in turn. The four write their
own: ``_read`` adds into part of a buffer, ``take`` and ``gather_rows``
scatter repeated rows in a fixed order, and ``lstm``, one node for a whole
recurrence, applies each gate activation to its own block of columns (an
elementwise function gives a block the whole array's bits) and builds each
step's pre-activation gradient as one expression per block, last step
first. A nonzero sum or product does not depend on the sign of a zero, so
that gradient plus 0.0 (which turns -0.0 into +0.0 and changes nothing
else) equals bit for bit what one tape op per gate slice, product and sum
would add up.

Gradients are lazy. A node's gradient buffer is allocated by the first
backward write that reaches it, and ``backward`` skips every node that no
gradient reached, so a branch that does not lead to the root costs nothing.
An op adds an operand's whole gradient through ``_add_grad``, whose first
write keeps the op's array as the buffer unless it shares memory with the
op's output gradient (an identity gradient or a slice of it), which it
then copies; later writes add in place.
A trainable parameter's recorded leaves all hold its ``Parameter.grad``, so
each write reaching it adds there in reverse-sweep order, and successive
tapes' writes add up one write at a time until ``sgd_step`` zeroes it.
A recorded node that no gradient reached reads zeros; a node of an inference
tape has ``grad`` None. ``gather_rows`` writes no gradient to a constant part
at all, nor to a frozen parameter's leaf, which has no buffer: nothing
upstream of either reads it. The gradient of a row read several times is
summed left to right, as ``np.add.at`` would sum it.

Gradient conventions: ``backward`` accumulates, so shared subtrees sum
naturally; ``max_select`` and ``group_max`` route the gradient to the first
argmax on ties; ``relu`` has zero gradient at exactly zero.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Callable, Iterable, Mapping, Sequence

import numpy as np

from .configio import atomic_open

NORMALIZE_EPS = 1e-8

CHECKPOINT_MAGIC = b"MLLC1"


def all_finite(arr: np.ndarray) -> bool:
    # min and max carry any NaN or infinity on, without a boolean temporary
    return not arr.size or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def as_array(value: object) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if not all_finite(arr):
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


def _add_grad(node: "Node", g: np.ndarray, out: np.ndarray) -> None:
    """Add `g`, one operand's share of an op's output gradient `out`, to the
    gradient of that operand `node`, summed over the rows when `node` is the
    one row that every row of a stack used. The first write keeps `g` as the
    buffer unless it shares memory with `out` (an identity gradient or a
    slice of `out`), which it then copies, so only the leaves of one
    parameter share a buffer: its ``Parameter.grad``."""
    if node.value.ndim < g.ndim:
        g = g.sum(axis=0)
    if node._grad is None:
        node._grad = np.array(g) if np.may_share_memory(g, out) else g
    else:
        node._grad += g


def _buffer(node: "Node") -> np.ndarray:
    """The gradient buffer of `node`, allocated as zeros on first use, for
    writes into part of it."""
    if node._grad is None:
        node._grad = np.zeros_like(node.value)
    return node._grad


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
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


class Parameter:
    """Named leaf tensor; ``grad`` is the one buffer its recorded leaves
    write into (``Tape.param``). ``trainable=False`` freezes it: it holds no
    gradient (``grad`` is None), and sgd_step leaves it alone."""

    __slots__ = ("name", "value", "grad", "trainable")

    def __init__(self, name: str, value: object, trainable: bool = True):
        self.name = name
        self.value = as_array(value)
        # np.zeros leaves its pages unwritten until a gradient reaches them
        self.grad = np.zeros(self.value.shape) if trainable else None
        self.trainable = trainable

    def freeze(self) -> None:
        self.trainable, self.grad = False, None

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


class Tape:
    """Operation recorder. All ops are methods so the graph has one owner."""

    def __init__(self, recording: bool = True):
        self.recording = recording
        self.nodes: list[Node] = []
        self._swept = False
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
        """A fresh leaf of `p`, which on a recording tape holds ``p.grad``
        itself as its gradient buffer if `p` is trainable (module notes)."""
        node = self._make(p.value)
        if self.recording and p.trainable:
            node._grad = p.grad
        return node

    # -- elementwise -------------------------------------------------------

    def _binary_elementwise(self, a: Node, b: Node, op: str) -> None:
        """`b` has `a`'s shape, or `a` is an (n, d) stack and `b` one (d,) row."""
        sa, sb = a.value.shape, b.value.shape
        if sa != sb and not (len(sa) == 2 and sb == sa[1:]):
            raise ValueError(f"{op}: shape mismatch {sa} vs {sb}")

    def _op(self, out: np.ndarray, *operands: tuple[Node, Callable[[np.ndarray], np.ndarray]]) -> Node:
        """A node of value `out` whose backward adds `grad_of(g)` to the
        gradient of each `(operand, grad_of)` in turn, `g` being the node's
        gradient."""

        def back(node: Node) -> None:
            g = node._grad
            for a, grad_of in operands:
                _add_grad(a, grad_of(g), g)

        return self._make(out, back)

    def add(self, a: Node, b: Node) -> Node:
        self._binary_elementwise(a, b, "add")
        return self._op(a.value + b.value, (a, lambda g: g), (b, lambda g: g))

    def sub(self, a: Node, b: Node) -> Node:
        self._binary_elementwise(a, b, "sub")
        return self._op(a.value - b.value, (a, lambda g: g), (b, lambda g: -g))

    def hadamard(self, a: Node, b: Node) -> Node:
        self._binary_elementwise(a, b, "hadamard")
        return self._op(a.value * b.value, (a, lambda g: g * b.value), (b, lambda g: g * a.value))

    def scale(self, a: Node, c: float) -> Node:
        c = float(c)
        return self._op(a.value * c, (a, lambda g: g * c))

    def tanh(self, a: Node) -> Node:
        out = np.tanh(a.value)
        return self._op(out, (a, lambda g: g * (1.0 - out * out)))

    def sigmoid(self, a: Node) -> Node:
        out = _sigmoid(a.value)
        return self._op(out, (a, lambda g: g * out * (1.0 - out)))

    def relu(self, a: Node) -> Node:
        return self._op(np.maximum(a.value, 0.0), (a, lambda g: g * (a.value > 0)))

    def softplus(self, a: Node) -> Node:
        return self._op(np.logaddexp(0.0, a.value), (a, lambda g: g * _sigmoid(a.value)))

    # -- linear algebra ------------------------------------------------------

    def matmul(self, a: Node, b: Node) -> Node:
        av, bv = a.value, b.value
        if not ((av.ndim == 2 and bv.ndim in (1, 2) and av.shape[1] == bv.shape[0])
                or (av.ndim == 1 and bv.ndim == 1 and av.shape == bv.shape)):
            raise ValueError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")
        return self._op(np.asarray(av @ bv),
                        (a, lambda g: g @ bv.T if bv.ndim == 2 else np.multiply.outer(g, bv)),
                        (b, lambda g: av.T @ g if av.ndim == 2 else g * av))

    def _read(self, a: Node, key) -> Node:
        """A copy of `a.value[key]`, whose gradient adds into the same
        entries of `a`'s gradient."""

        def back(node: Node) -> None:
            _buffer(a)[key] += node._grad

        return self._make(a.value[key].copy(), back)

    def concat(self, parts: Sequence[Node]) -> Node:
        if not parts:
            raise ValueError("concat of zero vectors")
        for p in parts:
            if p.value.ndim != 1:
                raise ValueError(f"concat needs 1-d inputs, got shape {p.value.shape}")
        offsets = np.cumsum([0] + [p.value.shape[0] for p in parts])
        return self._op(np.concatenate([p.value for p in parts]),
                        *[(p, lambda g, lo=lo, hi=hi: g[lo:hi])
                          for p, lo, hi in zip(parts, offsets, offsets[1:])])

    def slice1d(self, a: Node, lo: int, hi: int) -> Node:
        """Entries [lo, hi) of a vector, or rows [lo, hi) of a stack."""
        if a.value.ndim not in (1, 2) or not 0 <= lo <= hi <= a.value.shape[0]:
            raise ValueError(f"slice1d: bad range [{lo}, {hi}) for shape {a.value.shape}")
        return self._read(a, slice(lo, hi))

    def take_row(self, a: Node, row: int) -> Node:
        """Row `row` of a matrix, or entry `row` of a vector as a scalar."""
        if a.value.ndim not in (1, 2) or not 0 <= row < a.value.shape[0]:
            raise ValueError(f"take_row: row {row} out of range for shape {a.value.shape}")
        return self._read(a, row)

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
        return self._op(np.asarray(a.value.sum()), (a, lambda g: np.full(a.value.shape, g)))

    # -- similarity building blocks -----------------------------------------

    def l2_normalize(self, a: Node) -> Node:
        """A vector, or every row of a stack, divided by its norm; a norm
        below ``NORMALIZE_EPS`` divides by the guard instead."""
        if a.value.ndim not in (1, 2):
            raise ValueError(f"l2_normalize needs a vector or an (n, d) stack, got shape {a.value.shape}")
        x = np.ascontiguousarray(a.value)
        norm = np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0])
        denom = np.maximum(norm, NORMALIZE_EPS)
        out = x / denom
        big = norm >= NORMALIZE_EPS

        def grad_of(g: np.ndarray) -> np.ndarray:
            radial = np.where(big, (g * out).sum(axis=-1, keepdims=True) * out, 0.0)
            return (g - radial) / denom

        return self._op(out, (a, grad_of))

    def squared_distance(self, a: Node, b: Node) -> Node:
        """``|a - b|^2``: a scalar for two vectors, (n,) for a stack."""
        self._binary_elementwise(a, b, "squared_distance")
        if a.value.ndim not in (1, 2):
            raise ValueError(f"squared_distance needs vectors or (n, d) stacks, got shape {a.value.shape}")
        diff = a.value - b.value
        return self._op(np.asarray((diff[..., None, :] @ diff[..., :, None])[..., 0, 0]),
                        (b, lambda g: -2.0 * g[..., None] * diff),
                        (a, lambda g: 2.0 * g[..., None] * diff))

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
        return self._op(chosen.value.copy(), (chosen, lambda g: g)), idx

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
            grads = ((x, lambda g: g @ wv), (w, lambda g: g.T @ xv), (b, lambda g: g.sum(axis=0)))
        else:
            prod = (wc[None, None, :] @ xc[:, :, None])[:, 0, 0]
            grads = ((x, lambda g: np.outer(g, wv)), (w, lambda g: g @ xv),
                     (b, lambda g: np.asarray(g.sum())))
        # the product is a fresh array, so the bias goes in place
        prod += bv
        return self._op(prod, *grads)

    def lstm(self, wx: Node, lengths: Sequence[int], u: Node, b: Node) -> Node:
        """Final hidden state (n, H) of an LSTM run over n sequences side by
        side, as one node. `wx` holds the input products `W x` of every step,
        step-major: row t * n + i is sequence i's at step t, for
        max(lengths) steps. Gates are stacked [input, forget, output, cell]
        along the 4H columns of `wx`, of `u` (4H, H) and of `b` (4H,).

        Step t computes the pre-activations `z = (wx_t + (U h + 0.0)) + b`,
        with `U h` a stack of gemv calls as in `linear_rows`; `_sigmoid` of
        the input, forget and output blocks and `np.tanh` of the cell block
        only; then `c' = f*c + i*g` and `h' = o*tanh(c')`. A row whose
        sequence has ended keeps its h and c. The backward builds each
        step's gradient of `z` directly, from the last step to the first,
        plus 0.0 (module notes); `b` and `U` get one write per step and `wx`
        the step's rows. The value and every gradient are bit for bit the
        plain-numpy reference recurrence's that the tests compare with. Only
        a recording tape keeps the per-step arrays."""
        lengths = np.asarray(lengths, dtype=np.intp)
        wv, uv, bv = wx.value, u.value, b.value
        hidden = uv.shape[-1] if uv.ndim else 0
        n = len(lengths)
        if lengths.ndim != 1 or not n or lengths.min() < 1 or uv.shape != (4 * hidden, hidden) \
                or wv.shape != (n * int(lengths.max()), 4 * hidden) or bv.shape != (4 * hidden,):
            raise ValueError(f"lstm: incompatible shapes wx {wv.shape}, u {uv.shape}, b {bv.shape} "
                             f"for lengths {lengths.tolist()}")
        n_steps, shortest = int(lengths.max()), int(lengths.min())
        uc = np.ascontiguousarray(uv)
        i, f, o = (slice(k * hidden, (k + 1) * hidden) for k in range(3))
        h = c = np.zeros((n, hidden))
        steps = []
        for t in range(n_steps):
            z = (uc[None] @ h[:, :, None])[:, :, 0]
            z += 0.0
            z = wv[t * n:(t + 1) * n] + z
            z += bv
            sig, cand = _sigmoid(z[:, :3 * hidden]), np.tanh(z[:, 3 * hidden:])
            c_next = sig[:, f] * c + sig[:, i] * cand
            tanh_c = np.tanh(c_next)
            h_next = sig[:, o] * tanh_c
            running = None if t < shortest else (lengths > t)[:, None]
            if self.recording:
                steps.append((h, c, sig, cand, tanh_c, running))
            if running is None:
                h, c = h_next, c_next
            else:
                h, c = np.where(running, h_next, h), np.where(running, c_next, c)

        def back(node: Node) -> None:
            # gh, gc: the gradients of the state after step t
            gh, gc = node._grad, np.zeros((n, hidden))
            for t in range(n_steps - 1, -1, -1):
                h, c, sig, cand, tanh_c, running = steps[t]
                dh, dc = gh, gc
                if running is not None:  # an ended row's gradients skip the step
                    dh, dc = np.where(running, gh, 0.0), np.where(running, gc, 0.0)
                dc = dc + dh * sig[:, o] * (1.0 - tanh_c * tanh_c)
                d_sig = np.concatenate([dc * cand, dc * c, dh * tanh_c], axis=1)
                dz = np.concatenate([d_sig * sig * (1.0 - sig),
                                     dc * sig[:, i] * (1.0 - cand * cand)], axis=1)
                dz += 0.0
                _add_grad(b, dz, dz)
                _add_grad(u, dz.T @ h, dz)
                _buffer(wx)[t * n:(t + 1) * n] += dz
                if t:
                    dh, dc = dz @ uv, dc * sig[:, f]
                    if running is not None:
                        dh, dc = np.where(running, dh, gh), np.where(running, dc, gc)
                    gh, gc = dh, dc

        return self._make(h, back)

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
                if p._backward is None and p._grad is None:  # a constant or frozen leaf
                    continue
                g = node._grad[:, lo:hi]
                if rows is not None:
                    _scatter_rows(p, rows, g)
                else:
                    _add_grad(p, g, node._grad)

        return self._make(out, back)

    def group_max(self, x: Node, sizes: Sequence[int]) -> tuple[Node, np.ndarray]:
        """Max over each group of a vector's entries, the groups being
        consecutive runs of `sizes[g]` entries. Ties go to the earliest entry
        of the group, which alone receives the gradient. Returns the (groups,)
        node and the index of each group's chosen entry."""
        sizes = _partition(x, sizes, "group_max")
        rows = group_argmax(x.value, sizes)
        return self._read(x, rows), rows

    def segment_sums(self, x: Node, sizes: Sequence[int]) -> Node:
        """Sum of each group of a vector's entries, the groups being
        consecutive runs of `sizes[g]` entries, added left to right as a
        chain of ``add`` calls adds them (module notes). Shape (groups,)."""
        sizes = _partition(x, sizes, "segment_sums")
        return self._op(_run_sums(x.value, sizes), (x, lambda g: np.repeat(g, sizes)))


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
    # a parameter's leaf as the root already holds its buffer
    _add_grad(root, np.ones_like(root.value), root.value)
    for node in reversed(tape.nodes):
        if node._grad is not None and node._backward is not None:
            node._backward(node)


def sgd_step(params: Iterable[Parameter], lr: float) -> None:
    """In-place SGD update on the trainable parameters, which zeroes their
    gradients; a frozen parameter has none."""
    for p in params:
        if p.trainable:
            p.grad *= lr
            p.value -= p.grad
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
    """The tensors of a checkpoint, each read straight into its own writable
    float64 array."""

    def check_left(fh, n: int) -> None:
        # checked before reading, so a corrupt length fails without allocating
        if n > size - fh.tell():
            raise ValueError(f"truncated checkpoint {path!r}")

    def read_exact(fh, n: int) -> bytes:
        check_left(fh, n)
        return fh.read(n)

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path!r} is not a checkpoint (bad magic)")
        (count,) = struct.unpack("<Q", read_exact(fh, 8))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<Q", read_exact(fh, 8))
            try:
                name = read_exact(fh, name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path!r}: a tensor name is not UTF-8") from None
            if name in tensors:
                raise ValueError(f"{path!r}: tensor {name!r} appears twice")
            (rank,) = struct.unpack("<Q", read_exact(fh, 8))
            shape = struct.unpack(f"<{rank}Q", read_exact(fh, 8 * rank)) if rank else ()
            count_f8 = math.prod(shape)
            check_left(fh, 8 * count_f8)
            data = np.fromfile(fh, dtype="<f8", count=count_f8)
            tensors[name] = data.reshape(shape).astype(np.float64, copy=False)
        if fh.read(1):
            raise ValueError(f"trailing bytes after {count} tensors in {path!r}")
    return tensors
