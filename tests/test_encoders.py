import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import np_encode_queries, np_encode_query
from momentloc.autodiff import Parameter, Tape, backward
from momentloc.encoders import (
    SegmentFeatureTable,
    Vocabulary,
    encode_queries,
    encode_query,
    fusion_weights,
    load_embeddings,
    load_features,
    save_features,
)
from momentloc.model import ModelConfig


def table(rng, n=4, d=3, vid="v0", mod="rgb"):
    return SegmentFeatureTable(vid, mod, rng.normal(size=(n, d)))


def test_feature_table_validation():
    with pytest.raises(ValueError):
        SegmentFeatureTable("v", "rgb", np.zeros(3))
    with pytest.raises(ValueError):
        SegmentFeatureTable("v", "rgb", np.zeros((0, 3)))
    with pytest.raises(ValueError):
        SegmentFeatureTable("v", "rgb", np.array([[1.0, np.nan]]))


def test_feature_table_rejects_zero_width():
    """A table needs at least one feature column, as a feature file header
    needs dim >= 1."""
    with pytest.raises(ValueError, match=r"got shape \(6, 0\)"):
        SegmentFeatureTable("v", "rgb", np.zeros((6, 0)))


def test_tef_block_modes():
    assert ModelConfig(tef_mode="none", context_mode="before_after").tef_len == 0
    assert ModelConfig(tef_mode="tef", context_mode="before_after").tef_len == 2
    assert ModelConfig(tef_mode="contef", context_mode="latent").tef_len == 4
    assert ModelConfig(tef_mode="contef", context_mode="before_after").tef_len == 6


def test_vocabulary_roundtrip():
    vocab = Vocabulary(["dog", "runs", "dog", "fast"])
    assert vocab.size == 4
    assert vocab.encode(["dog", "runs", "fast"]) == [1, 2, 3]
    assert vocab.encode(["unknown"]) == [0]
    clone = Vocabulary.from_json(vocab.to_json())
    assert clone.encode(["fast", "nope"]) == [3, 0]


def _lang_params(rng, vocab_size=5, embed=3, hidden=4, joint=2):
    return {
        "lang.embed": Parameter("lang.embed", rng.normal(size=(vocab_size, embed))),
        "lang.w": Parameter("lang.w", rng.normal(size=(4 * hidden, embed))),
        "lang.u": Parameter("lang.u", rng.normal(size=(4 * hidden, hidden))),
        "lang.b": Parameter("lang.b", rng.normal(size=4 * hidden)),
        "lang.proj_w": Parameter("lang.proj_w", rng.normal(size=(joint, hidden))),
        "lang.proj_b": Parameter("lang.proj_b", rng.normal(size=joint)),
    }


def test_encode_query_matches_reference_lstm(rng):
    params = _lang_params(rng)
    tape = Tape(recording=False)
    ids = [1, 4, 0, 2]
    node = encode_query(tape, ids, params)
    arrays = {k: p.value for k, p in params.items()}
    assert np.array_equal(node.value, np_encode_query(ids, arrays))


def test_encode_query_degenerate_weights_sees_last_token_only(rng):
    """Zero recurrent weights plus saturated gates make the encoder a function
    of the final token alone."""
    hidden = 4
    params = _lang_params(rng, hidden=hidden)
    params["lang.u"] = Parameter("lang.u", np.zeros((4 * hidden, hidden)))
    bias = np.zeros(4 * hidden)
    bias[0 * hidden : 1 * hidden] = 1e9   # input gate = 1
    bias[1 * hidden : 2 * hidden] = -1e9  # forget gate = 0
    bias[2 * hidden : 3 * hidden] = 1e9   # output gate = 1
    params["lang.b"] = Parameter("lang.b", bias)

    def out(ids):
        return encode_query(Tape(recording=False), ids, params).value

    assert np.array_equal(out([1, 2, 3]), out([4, 0, 3]))
    assert not np.array_equal(out([1, 2, 3]), out([1, 2, 4]))


def test_encode_query_rejects_bad_ids(rng):
    params = _lang_params(rng, vocab_size=5)
    with pytest.raises(ValueError):
        encode_query(Tape(recording=False), [], params)
    with pytest.raises(ValueError):
        encode_query(Tape(recording=False), [5], params)


@settings(max_examples=60, deadline=None)
@given(
    token_lists=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=8), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_encode_queries_rows_match_reference_lstm(token_lists, seed):
    """Each row of the stacked encoder is bit for bit the reference LSTM of
    its own sequence: ragged lengths 1-8, the unknown id 0 included."""
    params = _lang_params(np.random.default_rng(seed), vocab_size=6)
    arrays = {k: p.value for k, p in params.items()}
    for recording in (False, True):
        stack = encode_queries(Tape(recording=recording), token_lists, params).value
        assert stack.shape == (len(token_lists), 2)
        for row, ids in zip(stack, token_lists):
            assert np.array_equal(row, np_encode_query(ids, arrays))


def test_encode_queries_gradient_reaches_only_the_tokens_read(rng):
    """A row that has ended holds its state: the padding it runs over gets no
    gradient, and each row's gradient equals that of its query alone."""
    params = _lang_params(rng, vocab_size=6)
    lists = [[1, 2, 3, 4], [5], [2, 0]]
    tape = Tape()
    stack = encode_queries(tape, lists, params)
    backward(tape, tape.sum_all(stack))
    together = {k: p.grad.copy() for k, p in params.items()}
    for p in params.values():
        p.grad[...] = 0.0
    for ids in lists:
        tape = Tape()
        backward(tape, tape.sum_all(encode_query(tape, ids, params)))
    for name, p in params.items():
        np.testing.assert_allclose(together[name], p.grad, rtol=1e-12, atol=1e-12, err_msg=name)


# at weight scale 30 the gates saturate to exactly 0 or 1 and tanh to +-1,
# so many gradient terms are zeros of either sign
@pytest.mark.parametrize("scale", [1.0, 30.0])
@pytest.mark.parametrize("lengths, frozen_embed", [
    ((4, 1, 2, 4, 3), False),  # ragged, the longest first and last
    ((3, 3, 3), False),        # all equal: no row ends early
    ((5,), False),             # one row
    ((2, 5, 1, 5), True),      # a frozen pretrained embedding
])
def test_lstm_equals_the_numpy_reference_bit_for_bit(lengths, frozen_embed, scale):
    """The LSTM node's value and every parameter's gradient, on a recording
    tape, equal the plain-numpy reference bit for bit, and an inference
    tape gives the same value."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = _lang_params(rng, vocab_size=7, hidden=int(rng.integers(1, 6)), joint=3)
        for name in ("lang.w", "lang.u", "lang.b"):
            params[name].value *= scale
        if frozen_embed:
            params["lang.embed"].freeze()
        lists = [rng.integers(0, 7, size=k).tolist() for k in lengths]
        g_out = rng.normal(size=(len(lists), 3))
        tape = Tape()
        stack = encode_queries(tape, lists, params)
        backward(tape, tape.sum_all(tape.hadamard(stack, tape.constant(g_out))))
        want, grads = np_encode_queries(lists, {k: p.value for k, p in params.items()}, g_out,
                                        frozen_embed)
        assert stack.value.tobytes() == want.tobytes()
        assert encode_queries(Tape(recording=False), lists, params).value.tobytes() == want.tobytes()
        for name, p in params.items():
            if grads[name] is None:
                assert p.grad is None, name
            else:
                assert p.grad.tobytes() == grads[name].tobytes(), name


def test_encode_queries_rejects_bad_ids_like_encode_query(rng):
    params = _lang_params(rng, vocab_size=5)
    with pytest.raises(ValueError, match="^cannot encode an empty query$"):
        encode_queries(Tape(recording=False), [[1, 2], []], params)
    with pytest.raises(ValueError, match="^token id 5 out of range for vocabulary of 5$"):
        encode_queries(Tape(recording=False), [[1], [2, 5]], params)
    with pytest.raises(ValueError, match="^cannot encode an empty query$"):
        encode_query(Tape(recording=False), [], params)
    with pytest.raises(ValueError, match="^token id -1 out of range for vocabulary of 5$"):
        encode_query(Tape(recording=False), [-1], params)


def test_late_fusion():
    assert fusion_weights(("rgb", "flow"), 0.25) == {"rgb": 0.25, "flow": 0.75}
    assert fusion_weights(("rgb",), 0.3) == {"rgb": 1.0}
    with pytest.raises(ValueError):
        fusion_weights(("a", "b", "c"), 0.5)


def test_feature_file_roundtrip(tmp_path, rng):
    tables = {
        "vb": table(rng, n=3, d=2, vid="vb"),
        "va": table(rng, n=2, d=2, vid="va"),
    }
    path = tmp_path / "features_rgb.txt"
    save_features(str(path), tables)
    loaded = load_features(str(path), "rgb")
    assert sorted(loaded) == ["va", "vb"]
    for vid in tables:
        assert np.array_equal(loaded[vid].features, tables[vid].features)
        assert loaded[vid].modality == "rgb"
    # blank lines before and between blocks are skipped
    va, vb = path.read_text(encoding="utf-8").split("vb ")
    path.write_text(f"\n{va}\n \nvb {vb}", encoding="utf-8")
    spaced = load_features(str(path), "rgb")
    assert sorted(spaced) == ["va", "vb"]
    for vid in tables:
        assert np.array_equal(spaced[vid].features, tables[vid].features)


def test_feature_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("v0 2 2\n1.0 2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="truncated"):
        load_features(str(bad), "rgb")
    bad.write_text("v0 1 2\n1.0 oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.txt:2"):
        load_features(str(bad), "rgb")
    bad.write_text("v0 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.txt:1"):
        load_features(str(bad), "rgb")
    for header in ("v0 0 2", "v0 -1 2", "v0 1 0", "v0 2 -3"):
        bad.write_text(f"v1 1 2\n1 2\n{header}\n1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.txt:3: n_segments and dim must be >= 1"):
            load_features(str(bad), "rgb")
    for value in ("nan", "inf", "-inf", "1e999"):
        bad.write_text(f"v0 2 2\n1 2\n3 {value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.txt:3: non-finite feature value"):
            load_features(str(bad), "rgb")


def test_feature_file_line_format(tmp_path):
    # each value is its shortest round-trip repr; blocks go in id order and
    # may differ in width
    tables = {
        "w": SegmentFeatureTable("w", "rgb", np.array([[1.5]])),
        "v": SegmentFeatureTable("v", "rgb", np.array([
            [-0.0, 5e-324, 1e-05],
            [1e16, 1.7976931348623157e308, -2.5e-7],
        ])),
    }
    path = tmp_path / "features_rgb.txt"
    save_features(str(path), tables)
    assert path.read_bytes() == (
        b"v 2 3\n"
        b"-0.0 5e-324 1e-05\n"
        b"1e+16 1.7976931348623157e+308 -2.5e-07\n"
        b"w 1 1\n"
        b"1.5\n"
    )
    loaded = load_features(str(path), "rgb")
    assert list(loaded) == ["v", "w"]
    for vid in tables:
        assert loaded[vid].features.tobytes() == tables[vid].features.tobytes()


@pytest.mark.parametrize("text, message", [
    ("v0 1 2\n1.0 oops\n", "bad.txt:2: non-numeric feature value"),
    ("v0 1 2\n1.0 2.0 3.0\n", "bad.txt:2: expected 2 values, got 3"),
    ("v0 2 2\n1 2\n3\n", "bad.txt:3: expected 2 values, got 1"),
    ("v0 2 2\n1.0 2.0\n", "bad.txt: truncated block for video 'v0'"),
    ("v0 1\n", "bad.txt:1: expected 'video_id n_segments dim'"),
    ("v0 1 x\n1\n", "bad.txt:1: non-integer header fields"),
    ("v0 1 2\n1 2\nv0 1 2\n3 4\n", "bad.txt:3: duplicate video id 'v0'"),
    ("v0 2 2\n1 2\n3 nan\n", "bad.txt:3: non-finite feature value"),
    # a block one row short reads the next header as its last row
    ("v0 3 2\n1 2\n3 4\nv1 1 2\n5 6\n", "bad.txt:4: expected 2 values, got 3"),
    ("v0 3 2\n1 2\n\n3 4\n", "bad.txt:3: expected 2 values, got 0"),
    ("v0 1 2\n  \n", "bad.txt:2: expected 2 values, got 0"),
    ("v0 2 2\n1 2\n3 4#\n", "bad.txt:3: non-numeric feature value"),
    ("v0 2 2\n1 2\n# 4\n", "bad.txt:3: non-numeric feature value"),
    # float() accepts digit separators; the feature reader does not
    ("v0 2 2\n1 2\n1_0 4\n", "bad.txt:3: non-numeric feature value"),
    # the first faulty line in the file wins, whatever the widths of its block
    ("a 1 2\n1 2\nb 1 3\n1 2 x\nc 1 2\n1 y\n", "bad.txt:4: non-numeric feature value"),
    ("a 1 2\n1 2\nb 1 3\n1 2 3\nc 1 2\n1 y\nd 1 3\n1 2 inf\n", "bad.txt:6: non-numeric feature value"),
    ("v0 2 2\n1 nan\n1 x\n", "bad.txt:2: non-finite feature value"),
    # lines end at newlines, as an editor counts them; a form feed is
    # whitespace inside a row
    ("v0 1 2\r\n1 x\r\n", "bad.txt:2: non-numeric feature value"),
    ("v0 1 2\n1\x0c2\nv1 1 x\n", "bad.txt:3: non-integer header fields"),
])
def test_feature_file_faults_name_their_line(tmp_path, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    # the error is the whole report: numpy's "no data" warning stays inside
    with warnings.catch_warnings(record=True) as caught, pytest.raises(ValueError) as err:
        warnings.simplefilter("always")
        load_features(str(bad), "rgb")
    assert str(err.value) == f"{bad.parent}/{message}"
    assert not caught


def test_embedding_file(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("dog 1.0 2.0\ncat 3.0 4.0\n", encoding="utf-8")
    vocab, matrix = load_embeddings(str(path))
    assert vocab.encode(["dog", "cat", "bird"]) == [1, 2, 0]
    assert matrix.shape == (3, 2)
    assert np.array_equal(matrix[0], [0.0, 0.0])
    assert np.array_equal(matrix[2], [3.0, 4.0])
    path.write_text("dog 1.0\ncat 3.0 4.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="emb.txt:2"):
        load_embeddings(str(path))
    path.write_text("dog 1.0 2.0\ncat 3.0 4.0\n\ndog 5.0 6.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="emb.txt:4: duplicate token 'dog'"):
        load_embeddings(str(path))
    # row 0 is the unknown vector: a file row for <unk> would shift every later id
    path.write_text("<unk> 1 2\ndog 3 4\n", encoding="utf-8")
    with pytest.raises(ValueError, match="emb.txt:1: token '<unk>' is reserved"):
        load_embeddings(str(path))
    for value in ("nan", "inf", "-Infinity", "1e999"):
        path.write_text(f"dog 1 2\ncat 3 {value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="emb.txt:2: non-finite component"):
            load_embeddings(str(path))
    for text, message in [
        ("dog 1 2\ncat\n", "emb.txt:2: token 'cat' has no vector"),
        ("dog 1 2\ncat 3 x\n", "emb.txt:2: non-numeric component"),
        ("\n  \n", "emb.txt: empty embedding file"),
        # the first faulty line is named, and within a line a token fault
        # comes before a component fault
        ("dog 1 x\ndog 3 4\n", "emb.txt:1: non-numeric component"),
        ("dog 1 2\ndog x 4\n", "emb.txt:2: duplicate token 'dog'"),
        ("cat 1 inf\n<unk> 1 2\n", "emb.txt:1: non-finite component"),
        ("dog 1 2\ncat 3 x\nbird 5\n", "emb.txt:2: non-numeric component"),
        # a component is a number only if load_features would read it as one:
        # float() also takes digit-group underscores and non-ASCII digits
        ("dog 1_0 2\n", "emb.txt:1: non-numeric component"),
        ("dog 1 2\ncat \u0661\u0662 4\n", "emb.txt:2: non-numeric component"),
        ("dog \uff11\uff12 2\n", "emb.txt:1: non-numeric component"),
    ]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_embeddings(str(path))

