"""Unit coverage for the tape engine: op semantics, backward rules against
finite differences, SGD mechanics, and the checkpoint wire format."""

import ast
import inspect
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import assert_gradients_close, numeric_gradients
from momentloc.autodiff import (
    CHECKPOINT_MAGIC,
    Parameter,
    Tape,
    backward,
    group_argmax,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        Parameter("p", [1.0, np.inf])
    with pytest.raises(ValueError):
        Tape().constant([np.nan])
    for bad in ([[0.0, 1.0], [-np.inf, 2.0]], [3.0, np.nan, 1e308], np.nan):
        with pytest.raises(ValueError, match="non-finite"):
            Parameter("p", bad)
    assert Parameter("p", np.zeros((0, 3))).value.shape == (0, 3)


def test_shape_mismatch_errors():
    tape = Tape()
    a = tape.constant([1.0, 2.0])
    b = tape.constant([1.0, 2.0, 3.0])
    for op in (tape.add, tape.sub, tape.hadamard, tape.squared_distance):
        with pytest.raises(ValueError):
            op(a, b)
    with pytest.raises(ValueError):
        tape.matmul(a, tape.constant(np.ones((3, 2))))
    with pytest.raises(ValueError):
        tape.concat([a, tape.constant(np.ones((2, 2)))])
    with pytest.raises(ValueError, match="concat of zero vectors"):
        tape.concat([])
    for lo, hi in ((1, 3), (2, 1), (-1, 1)):
        with pytest.raises(ValueError, match="slice1d"):
            tape.slice1d(a, lo, hi)
    cube = tape.constant(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="slice1d"):
        tape.slice1d(cube, 0, 1)
    with pytest.raises(ValueError, match="l2_normalize needs a vector or an"):
        tape.l2_normalize(cube)
    with pytest.raises(ValueError, match="max_select over an empty set"):
        tape.max_select([])
    with pytest.raises(ValueError, match="max_select needs scalars"):
        tape.max_select([tape.constant(1.0), a])


def test_relu_zero_gradient_at_negative_and_zero():
    tape = Tape()
    x = tape.constant([-3.0, 0.0, 2.0])
    y = tape.relu(x)
    assert np.array_equal(y.value, [0.0, 0.0, 2.0])
    root = tape.sum_all(y)
    backward(tape, root)
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


def test_max_select_first_occurrence_tie():
    tape = Tape()
    nodes = [tape.constant(1.0), tape.constant(3.0), tape.constant(3.0)]
    best, idx = tape.max_select(nodes)
    assert idx == 1
    assert float(best.value) == 3.0
    backward(tape, best)
    assert float(nodes[1].grad) == 1.0
    assert float(nodes[2].grad) == 0.0


def test_max_select_gradient_routes_to_argmax_only():
    p = Parameter("p", [0.5, 2.0, -1.0])
    tape = Tape()
    node = tape.param(p)
    scores = [tape.matmul(node, tape.constant(onehot)) for onehot in np.eye(3)]
    best, idx = tape.max_select(scores)
    assert idx == 1
    backward(tape, best)
    assert np.array_equal(p.grad, [0.0, 1.0, 0.0])


def test_backward_requires_scalar_and_single_sweep():
    tape = Tape()
    vec = tape.constant([1.0, 2.0])
    with pytest.raises(ValueError):
        backward(tape, vec)
    root = tape.sum_all(vec)
    backward(tape, root)
    with pytest.raises(RuntimeError):
        backward(tape, root)


def test_a_parameter_leaf_as_the_root_gets_gradient_one():
    p = Parameter("p", 2.0)
    tape = Tape()
    backward(tape, tape.param(p))
    assert float(p.grad) == 1.0


def test_backward_rejected_on_non_recording_tape():
    tape = Tape(recording=False)
    node = tape.constant(1.0)
    assert tape.nodes == []
    assert node.grad is None
    with pytest.raises(ValueError):
        backward(tape, node)


def test_unreached_nodes_read_zeros_and_pass_nothing_on():
    """Gradients are lazy: a recorded node that no gradient reached reads
    zeros without holding a buffer, and backward skips it, so its inputs
    get nothing from it either. A trainable parameter's leaf holds the
    parameter's gradient from the start, zeros here."""
    p, q = Parameter("p", [1.0, -2.0]), Parameter("q", [3.0])
    tape = Tape()
    pn, qn = tape.param(p), tape.param(q)
    unused = tape.tanh(pn)
    backward(tape, tape.sum_all(tape.hadamard(qn, qn)))
    assert unused._grad is None
    assert np.array_equal(unused.grad, [0.0, 0.0])
    assert pn._grad is p.grad
    assert np.array_equal(p.grad, [0.0, 0.0])
    assert np.array_equal(q.grad, [6.0])


def test_inference_tape_nodes_have_no_gradient():
    tape = Tape(recording=False)
    x = tape.constant(np.ones((2, 3)))
    out = tape.relu(tape.gather_rows([(x, np.array([1, 0, 1]))]))
    scores = tape.take(tape.segment_sums(tape.constant([1.0, 2.0, 3.0]), [2, 1]), [1, 0])
    assert tape.nodes == []
    assert x.grad is None and out.grad is None and scores.grad is None


def test_non_recording_values_match_recording():
    rng = np.random.default_rng(0)
    w = Parameter("w", rng.normal(size=(3, 4)))
    x = rng.normal(size=4)
    outs = []
    for recording in (True, False):
        tape = Tape(recording=recording)
        h = tape.tanh(tape.matmul(tape.param(w), tape.constant(x)))
        outs.append(tape.l2_normalize(h).value)
    assert np.array_equal(outs[0], outs[1])


def test_no_gradient_buffer_shares_memory_with_another():
    """An op that hands its own output gradient, or a slice of it, to an
    operand (both operands of add, the first of sub, the parts of concat,
    the choice of max_select, gather_rows' parts without an index) gives
    that operand a copy: a later write into either buffer leaves the other
    alone. Each of those operands gets its first write from that op. The
    same holds for every other kind of write: the LSTM's writes into its
    input products, recurrent weights and bias, a bias gradient summed over
    rows, and one node given as both operands. The one exception is a
    parameter requested twice: both its leaves hold its ``grad``, which no
    other buffer shares."""
    rng = np.random.default_rng(6)
    tape = Tape()

    def leaf(name, *shape):
        return tape.tanh(tape.param(Parameter(name, rng.normal(size=shape))))

    u, v = leaf("u", 3), leaf("v", 3)
    s = tape.add(u, v)
    shared = Parameter("shared", rng.normal(size=3))
    pair = [tape.param(shared), tape.param(shared)]
    d = tape.sub(s, tape.add(tape.hadamard(pair[0], leaf("r", 3)), pair[1]))
    m = leaf("m", 2)
    e = tape.concat([d, m])
    wx, wu, wb = leaf("wx", 4, 16), leaf("wu", 16, 4), leaf("wb", 16)
    state = tape.lstm(wx, [2, 1], wu, wb)
    hidden = tape.linear_rows(state, tape.param(Parameter("w2", rng.normal(size=(4, 4)))),
                              leaf("bias", 4))
    x = leaf("x", 2, 4)
    twice = tape.add(tape.add(x, x), tape.hadamard(x, x))
    rows = tape.linear_rows(tape.gather_rows([(tape.add(hidden, twice), None), (e, None)]),
                            tape.param(Parameter("w", rng.normal(size=9))),
                            tape.param(Parameter("b", 0.5)))
    scores = [tape.take_row(rows, 0), tape.take_row(rows, 1)]
    top, chosen = tape.max_select(scores)
    backward(tape, top)
    for node in (u, v, s, d, m, e, wx, wu, wb, state, hidden, x, twice, scores[chosen]):
        assert node._grad is not None
    assert pair[0] is not pair[1] and all(node._grad is shared.grad for node in pair)
    assert np.any(shared.grad)
    buffers = [node._grad for node in tape.nodes
               if node._grad is not None and node._grad is not shared.grad] + [shared.grad]
    for i, first in enumerate(buffers):
        for second in buffers[i + 1:]:
            assert not np.shares_memory(first, second)


def test_two_leaves_of_a_parameter_give_the_bytes_of_one_leaf_used_twice():
    """A parameter read through two leaves gets the same ``grad`` bytes as
    through one leaf used twice, in add, hadamard, linear_rows and a
    gather_rows scatter: both add every write into ``Parameter.grad`` in
    reverse-sweep order."""
    rng = np.random.default_rng(12)
    values = {"table": rng.normal(size=(5, 3)), "w": rng.normal(size=(2, 6)), "b": rng.normal(size=2)}

    def grads(two_leaves):
        params = [Parameter(name, value) for name, value in values.items()]
        tape = Tape()
        (t1, t2), (w1, w2), (b1, b2) = [
            (tape.param(p), tape.param(p)) if two_leaves else (tape.param(p),) * 2 for p in params
        ]
        assert (t1 is not t2) == two_leaves
        e = tape.gather_rows([(t1, np.array([3, 0, 3, 1])), (t2, np.array([1, 3, 4, 3]))])
        l1 = tape.linear_rows(e, w1, b1)
        l2 = tape.linear_rows(e, tape.hadamard(w1, w2), b2)
        l3 = tape.linear_rows(e, tape.add(w2, w1), b1)
        backward(tape, tape.sum_all(tape.hadamard(tape.add(l1, l3), tape.tanh(l2))))
        return [p.grad.tobytes() for p in params]

    assert grads(two_leaves=True) == grads(two_leaves=False)


def test_shared_subexpression_accumulates():
    p = Parameter("p", [2.0])
    tape = Tape()
    node = tape.param(p)
    # y = p * p, dy/dp = 2p
    y = tape.sum_all(tape.hadamard(node, node))
    backward(tape, y)
    assert np.allclose(p.grad, [4.0])


def test_sgd_step_updates_and_zeroes():
    """A trainable parameter steps and its gradient is zeroed; a frozen one
    holds no gradient and keeps its value."""
    p = Parameter("p", [1.0, 2.0])
    frozen = Parameter("q", [5.0], trainable=False)
    p.grad[:] = [0.5, -1.0]
    sgd_step([p, frozen], lr=0.1)
    assert np.array_equal(p.value, np.array([1.0, 2.0]) - 0.1 * np.array([0.5, -1.0]))
    assert np.array_equal(frozen.value, [5.0])
    assert np.array_equal(p.grad, [0.0, 0.0])
    assert frozen.grad is None
    assert repr(frozen) == "Parameter('q', shape=(1,), trainable=False)"


def _check_unary(op_name, x, make_root=None, n_points=25, seed=0):
    """Finite-difference check of one op at random points."""
    rng = np.random.default_rng(seed)
    for _ in range(n_points):
        p = Parameter("p", rng.normal(size=x))

        def run(recording):
            tape = Tape(recording=recording)
            node = getattr(tape, op_name)(tape.param(p))
            root = tape.sum_all(node) if node.value.shape != () else node
            return tape, root

        tape, root = run(True)
        backward(tape, root)
        analytic = [p.grad.copy()]
        p.grad[...] = 0.0
        numeric = numeric_gradients(lambda: float(run(False)[1].value), [p.value])
        assert_gradients_close(analytic, numeric, op_name)


@pytest.mark.parametrize("op_name", ["tanh", "sigmoid", "softplus", "l2_normalize"])
def test_unary_op_gradients(op_name):
    _check_unary(op_name, (5,))


def test_relu_gradient_away_from_kink():
    rng = np.random.default_rng(1)
    for _ in range(25):
        vals = rng.normal(size=6)
        vals[np.abs(vals) < 1e-3] = 0.5  # keep the finite difference off the kink
        p = Parameter("p", vals)

        def value():
            tape = Tape(recording=False)
            return float(tape.sum_all(tape.relu(tape.param(p))).value)

        tape = Tape()
        root = tape.sum_all(tape.relu(tape.param(p)))
        backward(tape, root)
        analytic = [p.grad.copy()]
        numeric = numeric_gradients(value, [p.value])
        assert_gradients_close(analytic, numeric, "relu")


def test_matmul_and_sum_all_gradients_are_exact():
    """The gradients of matmul's three shapes and of sum_all, bit for bit:
    g @ b.T, outer(g, b) or g * b for `a`, a.T @ g or g * a for `b`, and g
    in every entry for sum_all."""
    rng = np.random.default_rng(4)
    for sa, sb in [((3, 4), (4, 2)), ((3, 4), (4,)), ((4,), (4,))]:
        a, b = rng.normal(size=sa), rng.normal(size=sb)
        w = rng.normal(size=(a @ b).shape)
        pa, pb = Parameter("a", a), Parameter("b", b)
        tape = Tape()
        product = tape.hadamard(tape.matmul(tape.param(pa), tape.param(pb)), tape.constant(w))
        backward(tape, tape.scale(tape.sum_all(product), 0.7))
        assert np.array_equal(product.grad, np.full(w.shape, 0.7))
        g = np.full(w.shape, 0.7) * w
        want_a = g @ b.T if b.ndim == 2 else np.outer(g, b) if a.ndim == 2 else g * b
        want_b = a.T @ g if a.ndim == 2 else g * a
        assert np.array_equal(pa.grad, want_a), sa
        assert np.array_equal(pb.grad, want_b), sb


def test_binary_and_matmul_gradients():
    rng = np.random.default_rng(2)
    shapes = [
        ("add", (4,), (4,)),
        ("sub", (4,), (4,)),
        ("hadamard", (4,), (4,)),
        ("squared_distance", (4,), (4,)),
        ("matmul", (3, 4), (4,)),
        ("matmul", (3, 4), (4, 2)),
        ("matmul", (4,), (4,)),
    ]
    for op_name, sa, sb in shapes:
        for _ in range(20):
            pa = Parameter("a", rng.normal(size=sa))
            pb = Parameter("b", rng.normal(size=sb))

            def value():
                tape = Tape(recording=False)
                node = getattr(tape, op_name)(tape.param(pa), tape.param(pb))
                node = tape.sum_all(node) if node.value.shape != () else node
                return float(node.value)

            tape = Tape()
            node = getattr(tape, op_name)(tape.param(pa), tape.param(pb))
            node = tape.sum_all(node) if node.value.shape != () else node
            backward(tape, node)
            analytic = [pa.grad.copy(), pb.grad.copy()]
            numeric = numeric_gradients(value, [pa.value, pb.value])
            assert_gradients_close(analytic, numeric, f"{op_name}{sa}x{sb}")


def test_structural_op_gradients():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pa = Parameter("a", rng.normal(size=(3,)))
        pb = Parameter("b", rng.normal(size=(2,)))
        pm = Parameter("m", rng.normal(size=(4, 3)))
        weights = rng.normal(size=9)

        def build(tape):
            cat = tape.concat([tape.param(pa), tape.param(pb)])
            sliced = tape.slice1d(cat, 1, 4)
            row = tape.take_row(tape.param(pm), 2)
            scaled = tape.scale(tape.param(pa), -1.7)
            combo = tape.concat([sliced, row, scaled])
            return tape.matmul(combo, tape.constant(weights[: combo.value.size]))

        tape = Tape()
        root = build(tape)
        backward(tape, root)
        analytic = [pa.grad.copy(), pb.grad.copy(), pm.grad.copy()]
        numeric = numeric_gradients(
            lambda: float(build(Tape(recording=False)).value),
            [pa.value, pb.value, pm.value],
        )
        assert_gradients_close(analytic, numeric, "concat/slice/take_row/scale")


def test_l2_normalize_tiny_vector_guard():
    tape = Tape()
    v = tape.constant([0.0, 0.0])
    out = tape.l2_normalize(v)
    assert np.array_equal(out.value, [0.0, 0.0])
    # below the guard the op is a division by the guard, and so is its gradient
    backward(tape, tape.sum_all(out))
    assert np.array_equal(v.grad, [1e8, 1e8])
    # in a stack the guard holds per row: the zero row alone is divided by it
    tape = Tape()
    x = tape.constant([[3.0, 4.0], [0.0, 0.0]])
    out = tape.l2_normalize(x)
    assert np.array_equal(out.value, [[0.6, 0.8], [0.0, 0.0]])
    backward(tape, tape.sum_all(out))
    assert np.array_equal(x.grad[1], [1e8, 1e8])
    assert np.allclose(x.grad[0], [0.032, -0.024])


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    tensors = {
        "lang.w": rng.normal(size=(4, 3)),
        "scalar": np.asarray(2.5),
        "vec": rng.normal(size=7),
    }
    path = tmp_path / "ck.bin"
    save_checkpoint(str(path), tensors)
    loaded = load_checkpoint(str(path))
    assert sorted(loaded) == sorted(tensors)
    for name, arr in tensors.items():
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr)


@settings(max_examples=60, deadline=None)
@given(tensors=st.dictionaries(
    st.text(max_size=8),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
    max_size=4,
))
def test_checkpoint_roundtrip_property(tmp_path_factory, tensors):
    """Any names and float64 tensors, 0-d, empty, NaN and -0.0 included,
    come back with the same shapes and the same bytes."""
    path = str(tmp_path_factory.mktemp("ck") / "ck.bin")
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert sorted(loaded) == sorted(tensors)
    for name, arr in tensors.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


def test_checkpoint_wire_format(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(str(path), {"ab": np.array([[1.0, 2.0], [3.0, 4.0]])})
    raw = path.read_bytes()
    assert raw[:5] == CHECKPOINT_MAGIC == b"MLLC1"
    count = struct.unpack("<Q", raw[5:13])[0]
    assert count == 1
    name_len = struct.unpack("<Q", raw[13:21])[0]
    assert raw[21 : 21 + name_len] == b"ab"
    rank = struct.unpack("<Q", raw[23:31])[0]
    assert rank == 2
    dims = struct.unpack("<2Q", raw[31:47])
    assert dims == (2, 2)
    data = np.frombuffer(raw[47:], dtype="<f8")
    assert np.array_equal(data, [1.0, 2.0, 3.0, 4.0])  # row-major


def test_checkpoint_corruption_detected(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(str(path), {"a": np.zeros(3)})
    raw = path.read_bytes()
    bad_magic = tmp_path / "bad1.bin"
    bad_magic.write_bytes(b"XXXXX" + raw[5:])
    with pytest.raises(ValueError):
        load_checkpoint(str(bad_magic))
    truncated = tmp_path / "bad2.bin"
    truncated.write_bytes(raw[:-4])
    with pytest.raises(ValueError):
        load_checkpoint(str(truncated))
    trailing = tmp_path / "bad3.bin"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError):
        load_checkpoint(str(trailing))


# -- row-stack ops -------------------------------------------------------------------


def _check_rows_op(build, shapes, seed, what, n_points=20):
    """Finite-difference check of a row op: `build(tape, nodes)` returns any
    node, reduced to a scalar through fixed random weights so every output
    entry carries a distinct gradient."""
    rng = np.random.default_rng(seed)
    for _ in range(n_points):
        params = [Parameter(f"p{i}", rng.normal(size=s)) for i, s in enumerate(shapes)]
        weights = {}

        def run(recording):
            tape = Tape(recording=recording)
            out = build(tape, [tape.param(p) for p in params])
            if out.value.shape not in weights:
                weights[out.value.shape] = rng.normal(size=out.value.shape)
            w = tape.constant(weights[out.value.shape])
            return tape, tape.sum_all(tape.hadamard(out, w))

        tape, root = run(True)
        backward(tape, root)
        analytic = [p.grad.copy() for p in params]
        numeric = numeric_gradients(lambda: float(run(False)[1].value), [p.value for p in params])
        assert_gradients_close(analytic, numeric, what)


@pytest.mark.parametrize(
    "what, shapes, build",
    [
        ("linear_rows matrix", [(5, 4), (3, 4), (3,)],
         lambda t, ns: t.linear_rows(ns[0], ns[1], ns[2])),
        ("linear_rows vector", [(5, 4), (4,), ()],
         lambda t, ns: t.linear_rows(ns[0], ns[1], ns[2])),
        ("add row", [(5, 3), (3,)], lambda t, ns: t.add(ns[0], ns[1])),
        ("sub row", [(5, 3), (3,)], lambda t, ns: t.sub(ns[0], ns[1])),
        ("hadamard row", [(5, 3), (3,)], lambda t, ns: t.hadamard(ns[0], ns[1])),
        ("squared_distance row", [(5, 3), (3,)],
         lambda t, ns: t.squared_distance(ns[0], ns[1])),
        ("l2_normalize stack", [(5, 3)], lambda t, ns: t.l2_normalize(ns[0])),
        # row 2 is zero whatever the finite difference moves: the guard per row
        ("l2_normalize stack with a zero row", [(5, 3)],
         lambda t, ns: t.l2_normalize(t.hadamard(ns[0], t.constant((np.arange(5) != 2)[:, None] * np.ones(3))))),
        ("gather_rows", [(4, 3), (2,), (6, 2)],
         lambda t, ns: t.gather_rows([(ns[0], np.array([3, 0, 3, 1, 1, 2])), (ns[1], None), (ns[2], None)])),
        ("take_row vector", [(4,)], lambda t, ns: t.take_row(ns[0], 2)),
        ("take", [(5,)], lambda t, ns: t.take(ns[0], [4, 0, 4, 2, 4])),
        ("max_select", [(4,)], lambda t, ns: t.max_select([t.take_row(ns[0], i) for i in range(4)])[0]),
        ("segment_sums", [(7,)], lambda t, ns: t.segment_sums(ns[0], [3, 1, 2, 1])),
        ("add stack", [(5, 3), (5, 3)], lambda t, ns: t.add(ns[0], ns[1])),
        ("hadamard stack", [(5, 3), (5, 3)], lambda t, ns: t.hadamard(ns[0], ns[1])),
        ("squared_distance stack", [(5, 3), (5, 3)],
         lambda t, ns: t.squared_distance(ns[0], ns[1])),
        # four sequences of 3, 1, 2 and 3 steps, 2 hidden units
        ("lstm", [(12, 8), (8, 2), (8,)], lambda t, ns: t.lstm(ns[0], [3, 1, 2, 3], ns[1], ns[2])),
        ("slice1d stack", [(6, 4)], lambda t, ns: t.slice1d(ns[0], 1, 4)),
    ],
)
def test_row_op_gradients(what, shapes, build):
    _check_rows_op(build, shapes, seed=len(what), what=what)


def test_every_tape_op_has_a_finite_difference_case():
    """Every public op of Tape but the leaves is called in a test of this
    file that compares gradients with finite differences: a test function
    that runs a finite-difference check, its parametrize cases included."""
    ops = {name for name, _ in inspect.getmembers(Tape, inspect.isfunction)
           if not name.startswith("_")} - {"constant", "param"}
    checks = {"numeric_gradients", "_check_unary", "_check_rows_op"}
    covered = set()
    for fn in ast.parse(Path(__file__).read_text()).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))  # the decorators too
        if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) in checks for n in nodes):
            covered |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            covered |= {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    assert sorted(ops - covered) == []


def test_group_max_gradient_away_from_ties():
    rng = np.random.default_rng(7)
    sizes = [3, 1, 4]
    for _ in range(20):
        vals = rng.normal(size=8)
        for lo, hi in ((0, 3), (4, 8)):  # keep each group's top two apart
            top = lo + int(np.argmax(vals[lo:hi]))
            vals[top] += 0.1
        p = Parameter("p", vals)
        w = rng.normal(size=3)

        def build(tape):
            best = tape.group_max(tape.param(p), sizes)
            return tape.matmul(best, tape.constant(w))

        tape = Tape()
        backward(tape, build(tape))
        numeric = numeric_gradients(lambda: float(build(Tape(recording=False)).value), [p.value])
        assert_gradients_close([p.grad.copy()], numeric, "group_max")


def test_group_max_ties_route_to_first_argmax():
    p = Parameter("p", [1.0, 3.0, 3.0, 2.0, 5.0, 5.0])
    tape = Tape()
    best = tape.group_max(tape.param(p), [3, 1, 2])
    assert best.value.tolist() == [3.0, 2.0, 5.0]
    backward(tape, tape.sum_all(best))
    assert p.grad.tolist() == [0.0, 1.0, 0.0, 1.0, 1.0, 0.0]


@st.composite
def _grouped_values(draw):
    """Group sizes, half the time all equal (one group included), and values
    from a few numbers so that groups hold ties."""
    n_groups = draw(st.integers(1, 6))
    if draw(st.booleans()):
        sizes = [draw(st.integers(1, 5))] * n_groups
    else:
        sizes = draw(st.lists(st.integers(1, 5), min_size=n_groups, max_size=n_groups))
    values = draw(st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0]),
                           min_size=sum(sizes), max_size=sum(sizes)))
    return np.array(values), np.array(sizes)


@settings(max_examples=200, deadline=None)
@given(_grouped_values())
def test_group_argmax_matches_per_group_argmax(case):
    """Equal groups (one reshape) and mixed sizes (padded with -inf) both give
    each group's first maximum, as np.argmax does per group."""
    values, sizes = case
    starts = np.cumsum(sizes) - sizes
    want = [s + int(np.argmax(values[s : s + k])) for s, k in zip(starts, sizes)]
    assert group_argmax(values, sizes).tolist() == want
    assert group_argmax(values, sizes.tolist()).tolist() == want


def test_row_ops_match_single_vector_ops_exactly():
    """Every row of a stacked op equals the single-vector op on that row,
    bit for bit: the grid scorer's exactness rests on this."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        n, k, m = (int(v) for v in rng.integers(1, 40, size=3))
        x, w, b = rng.normal(size=(n, k)), rng.normal(size=(m, k)), rng.normal(size=m)
        v, s = rng.normal(size=k), rng.normal()
        t = Tape(recording=False)
        xs = t.constant(x)
        lin = t.linear_rows(xs, t.constant(w), t.constant(b)).value
        dot = t.linear_rows(xs, t.constant(v), t.constant(s)).value
        norm = t.l2_normalize(xs).value
        dist = t.squared_distance(xs, t.constant(v)).value
        for i in range(n):
            row = t.constant(x[i])
            assert np.array_equal(lin[i], t.add(t.matmul(t.constant(w), row), t.constant(b)).value)
            assert dot[i] == t.add(t.matmul(t.constant(v), row), t.constant(s)).value
            assert np.array_equal(norm[i], t.l2_normalize(row).value)
            assert dist[i] == t.squared_distance(row, t.constant(v)).value


@pytest.mark.parametrize("n_rows, k, m", [(1000, 7, 3), (1296, 24, 24), (1296, 24, 1)])
def test_linear_rows_of_a_large_stack_match_per_row_products(n_rows, k, m):
    """At the row counts of a latent ranking's similarity layer, each row of
    `linear_rows` is `w @ x + b` of that row alone, bit for bit, for matrix
    and for vector weights, and the op leaves its inputs as they were."""
    rng = np.random.default_rng(n_rows + m)
    x, w, b = rng.normal(size=(n_rows, k)), rng.normal(size=(m, k)), rng.normal(size=m)
    v, s = w[0], b[0]
    kept = (x.copy(), w.copy(), b.copy())
    t = Tape(recording=False)
    xs = t.constant(x)
    lin = t.linear_rows(xs, t.constant(w), t.constant(b)).value
    dot = t.linear_rows(xs, t.constant(v), t.constant(np.float64(s))).value
    assert lin.shape == (n_rows, m) and dot.shape == (n_rows,)
    for i in range(n_rows):
        assert np.array_equal(lin[i], w @ x[i] + b)
        assert dot[i] == v @ x[i] + s
    assert all(np.array_equal(a, c) for a, c in zip((x, w, b), kept))


def test_row_ops_over_two_stacks_match_single_vector_ops_exactly():
    """Pairing row i of one stack with row i of another gives, per row, the
    single-vector op on the two rows, bit for bit."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        n, d = (int(v) for v in rng.integers(1, 40, size=2))
        x, y = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        t = Tape(recording=False)
        xs, ys = t.constant(x), t.constant(y)
        added = t.add(xs, ys).value
        prod = t.hadamard(xs, ys).value
        dist = t.squared_distance(xs, ys).value
        for i in range(n):
            a, b = t.constant(x[i]), t.constant(y[i])
            assert np.array_equal(added[i], t.add(a, b).value)
            assert np.array_equal(prod[i], t.hadamard(a, b).value)
            assert dist[i] == t.squared_distance(a, b).value


def test_slice1d_of_a_stack_values():
    tape = Tape()
    x = tape.constant(np.arange(12.0).reshape(3, 4))
    rows = tape.slice1d(x, 1, 3)
    assert np.array_equal(rows.value, [[4, 5, 6, 7], [8, 9, 10, 11]])
    backward(tape, tape.sum_all(rows))
    assert np.array_equal(x.grad, [[0] * 4, [1] * 4, [1] * 4])


def test_row_op_shape_mismatch_errors():
    tape = Tape()
    stack = tape.constant(np.ones((4, 3)))
    vec3, vec2 = tape.constant(np.ones(3)), tape.constant(np.ones(2))
    with pytest.raises(ValueError, match="linear_rows"):
        tape.linear_rows(stack, tape.constant(np.ones((2, 2))), vec2)
    with pytest.raises(ValueError, match="linear_rows"):
        tape.linear_rows(stack, tape.constant(np.ones((2, 3))), vec3)
    with pytest.raises(ValueError, match="linear_rows"):
        tape.linear_rows(vec3, tape.constant(np.ones((2, 3))), vec2)
    cube = tape.constant(np.ones((2, 4, 3)))
    for op in (tape.add, tape.hadamard, tape.squared_distance):
        with pytest.raises(ValueError, match=op.__name__):
            op(stack, vec2)
        with pytest.raises(ValueError, match=op.__name__):
            op(vec3, stack)
        with pytest.raises(ValueError, match=op.__name__):
            op(cube, vec3)
    with pytest.raises(ValueError, match="l2_normalize"):
        tape.l2_normalize(tape.constant(1.0))
    for same in (tape.constant(1.0), cube):
        with pytest.raises(ValueError, match="squared_distance needs vectors"):
            tape.squared_distance(same, same)
    with pytest.raises(ValueError, match="gather_rows"):
        tape.gather_rows([(stack, np.array([0, 1])), (tape.constant(np.ones((3, 2))), None)])
    with pytest.raises(ValueError, match="gather_rows"):
        tape.gather_rows([(vec3, np.array([0]))])
    with pytest.raises(ValueError, match="gather_rows"):
        tape.gather_rows([])
    with pytest.raises(ValueError, match="group_max"):
        tape.group_max(tape.constant(np.ones(5)), [2, 2])
    with pytest.raises(ValueError, match="group_max"):
        tape.group_max(tape.constant(np.ones(4)), [4, 0])
    with pytest.raises(ValueError, match="group_max"):
        tape.group_max(stack, [4])
    with pytest.raises(ValueError, match="take_row"):
        tape.take_row(vec3, 3)
    other_rows = tape.constant(np.ones((5, 3)))
    for op in (tape.add, tape.hadamard, tape.squared_distance):
        with pytest.raises(ValueError, match=op.__name__):
            op(stack, other_rows)
    with pytest.raises(ValueError, match="slice1d"):
        tape.slice1d(tape.constant(1.0), 0, 0)
    with pytest.raises(ValueError, match="slice1d"):
        tape.slice1d(stack, 3, 5)
    # two sequences of 2 steps need 4 rows of 4H = 12 input products
    wx, u, b = tape.constant(np.ones((4, 12))), tape.constant(np.ones((12, 3))), tape.constant(np.ones(12))
    assert tape.lstm(wx, [2, 1], u, b).value.shape == (2, 3)
    for bad in ((stack, [2, 1], u, b), (wx, [2, 2, 1], u, b), (wx, [2, 0], u, b), (wx, [], u, b),
                (wx, [2, 1], stack, b), (wx, [2, 1], tape.constant(1.0), b), (wx, [2, 1], u, vec3)):
        with pytest.raises(ValueError, match="lstm"):
            tape.lstm(*bad)


# -- gradient scatter and left-to-right sums ---------------------------------------


def _add_at_reference(shape, rows, g):
    want = np.zeros(shape)
    np.add.at(want, rows, g)
    return want


def test_sorted_scatter_matches_add_at():
    """gather_rows and take sum the gradient of repeated rows by a stable
    sort and running sums: for unsorted indices with repeats, one scatter
    gives np.add.at's gradient bit for bit (for take, over the reversed
    indices), and a second scatter into the same node adds to the first."""
    rng = np.random.default_rng(21)
    for _ in range(60):
        m, d = (int(v) for v in rng.integers(1, 9, size=2))
        rows = [rng.integers(0, m, size=int(rng.integers(1, 40))) for _ in range(2)]
        gs = [rng.normal(size=(len(r), d)) * 10.0 ** rng.integers(-6, 6, size=(len(r), 1)) for r in rows]

        def scatter(uses):
            table, vector = Parameter("t", rng.normal(size=(m, d))), Parameter("v", rng.normal(size=m))
            tape = Tape()
            tn, vn = tape.param(table), tape.param(vector)
            terms = []
            for r, g in zip(rows[:uses], gs):
                terms.append(tape.sum_all(tape.hadamard(tape.gather_rows([(tn, r)]), tape.constant(g))))
                terms.append(tape.sum_all(tape.hadamard(tape.take(vn, r), tape.constant(g[:, 0]))))
            root = terms[0]
            for t in terms[1:]:
                root = tape.add(root, t)
            backward(tape, root)
            return table.grad, vector.grad

        table_grad, vector_grad = scatter(1)
        assert np.array_equal(table_grad, _add_at_reference((m, d), rows[0], gs[0]))
        # take sums a repeated entry from its last repeat, as one take_row
        # per entry would in the backward sweep
        assert np.array_equal(vector_grad, _add_at_reference(m, rows[0][::-1], gs[0][::-1, 0]))
        table_grad, vector_grad = scatter(2)
        scale = 1e-12 * float(np.abs(np.concatenate(gs)).sum())
        np.testing.assert_allclose(
            table_grad, sum(_add_at_reference((m, d), r, g) for r, g in zip(rows, gs)), rtol=0, atol=scale)
        np.testing.assert_allclose(
            vector_grad, sum(_add_at_reference(m, r, g[:, 0]) for r, g in zip(rows, gs)), rtol=0, atol=scale)


def test_gather_rows_gives_constant_parts_no_gradient():
    """Only the parts that carry gradient get it: a constant part, indexed,
    whole or one vector for every row, never gets a gradient buffer."""
    rng = np.random.default_rng(4)
    p = Parameter("p", rng.normal(size=(4, 3)))
    rows = np.array([3, 0, 3, 1, 0, 3])
    tape = Tape()
    table = tape.constant(rng.normal(size=(5, 2)))
    block = tape.constant(rng.normal(size=(6, 2)))
    vec = tape.constant([0.5, -1.0])
    out = tape.gather_rows([(tape.param(p), rows), (table, np.array([4, 4, 0, 1, 2, 4])),
                            (block, None), (vec, None)])
    w = rng.normal(size=out.value.shape)
    backward(tape, tape.sum_all(tape.hadamard(out, tape.constant(w))))
    for constant in (table, block, vec):
        assert constant._grad is None
        assert not constant.grad.any()
    np.testing.assert_allclose(p.grad, _add_at_reference((4, 3), rows, w[:, :3]), rtol=1e-12)


def test_gather_rows_equals_the_concatenation_of_its_parts():
    """The one output holds, bit for bit, what concatenating the parts'
    blocks gives: indexed rows (repeats, and -1 for the last row), stacks as
    they are and vectors in every row, in any order."""
    rng = np.random.default_rng(6)
    tape = Tape(recording=False)
    table = tape.constant(rng.normal(size=(5, 3)))
    stack = tape.constant(rng.normal(size=(7, 2)))
    vec = tape.constant(rng.normal(size=4))
    rows = np.array([4, 0, -1, 2, 2, -1, 1])
    other = np.array([3, 3, 3, 0, 1, 2, -1])
    for parts in ([(table, rows)], [(stack, None), (vec, None)],
                  [(vec, None), (table, rows), (stack, None), (table, other), (vec, None)]):
        blocks = [np.broadcast_to(n.value, (7, n.value.shape[0])) if n.value.ndim == 1
                  else n.value if r is None else n.value[r] for n, r in parts]
        got = tape.gather_rows(parts).value
        assert got.shape == (7, sum(b.shape[1] for b in blocks))
        assert got.tobytes() == np.concatenate(blocks, axis=1).tobytes()


def test_gather_rows_holds_no_copy_of_every_part():
    """A 1296-row gather of three indexed parts, the shape of an 8-segment
    ranking's projection input, never holds more than its output and one
    part's rows at a time. numpy reports its allocations to tracemalloc, so
    the peak is exact."""
    rng = np.random.default_rng(7)
    tape = Tape(recording=False)
    widths = (24, 24, 4)
    parts = [(tape.constant(rng.normal(size=(37, w))), rng.integers(-1, 37, size=1296))
             for w in widths]
    out_bytes = 1296 * sum(widths) * 8
    largest = 1296 * max(widths) * 8
    tracemalloc.start()
    try:
        out = tape.gather_rows(parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.value.nbytes == out_bytes
    assert peak < out_bytes + largest + 16 * 1024


def test_segment_sums_add_left_to_right_like_a_chain_of_adds():
    """Each group's sum is bit for bit the value of a chain of scalar
    ``add`` calls over its entries, on magnitudes where a pairwise sum
    rounds differently."""
    rng = np.random.default_rng(9)
    pairwise_differs = 0
    for _ in range(100):
        sizes = rng.integers(1, 40, size=int(rng.integers(1, 6)))
        x = rng.normal(size=int(sizes.sum())) * 10.0 ** rng.integers(-6, 6, size=int(sizes.sum()))
        tape = Tape(recording=False)
        got = tape.segment_sums(tape.constant(x), sizes).value
        assert got.shape == sizes.shape
        for value, part in zip(got, np.split(x, np.cumsum(sizes)[:-1])):
            total = tape.constant(part[0])
            for v in part[1:]:
                total = tape.add(total, tape.constant(v))
            assert value == float(total.value)
            pairwise_differs += value != part.sum()
    assert pairwise_differs > 0


def test_take_and_segment_sums_shape_errors():
    tape = Tape()
    vec = tape.constant(np.ones(4))
    with pytest.raises(ValueError, match="take"):
        tape.take(vec, [0, 4])
    with pytest.raises(ValueError, match="take"):
        tape.take(vec, [-1])
    with pytest.raises(ValueError, match="take"):
        tape.take(tape.constant(np.ones((2, 2))), [0])
    for sizes in ([2, 1], [4, 0], [5], []):
        with pytest.raises(ValueError, match="segment_sums"):
            tape.segment_sums(vec, sizes)
    with pytest.raises(ValueError, match="segment_sums"):
        tape.segment_sums(tape.constant(np.ones((2, 2))), [2])
    # no index is no error: an empty vector that passes no gradient back
    none = tape.take(vec, [])
    assert none.value.shape == (0,)
    backward(tape, tape.sum_all(none))
    assert np.array_equal(vec.grad, np.zeros(4))
