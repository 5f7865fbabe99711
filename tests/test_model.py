import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import moments_in, np_score, tiny_model_config, tiny_video
from momentloc.autodiff import Tape, backward
from momentloc.encoders import Vocabulary, encode_query
from momentloc.model import (
    ModelBundle,
    ModelConfig,
    _candidate_table,
    conform_context,
    expected_param_shapes,
    init_params,
    load_model,
    log_logistic_loss,
    params_from_arrays,
    save_model,
    _pool_moments,
    score,
    score_grid,
)
from momentloc.temporal import CONTEXT_MODES, ContextMoment, Moment, context_set, enumerate_moments
from momentloc.trainer import ExampleScores, batch_loss


def test_config_text_roundtrip():
    cfg = ModelConfig(context_mode="before_after", similarity="tall_sim",
                      loss="tall", tef_mode="none", fusion_lambda=0.3,
                      modalities=("rgb", "flow"), vocab_size=11)
    clone = ModelConfig.from_text(cfg.to_text())
    assert clone == cfg


def test_config_validation():
    with pytest.raises(ValueError, match="context_mode"):
        ModelConfig(context_mode="sideways")
    with pytest.raises(ValueError, match="similarity"):
        ModelConfig(similarity="cosine")
    with pytest.raises(ValueError, match="loss"):
        ModelConfig(loss="mse")
    with pytest.raises(ValueError, match="fusion_lambda"):
        ModelConfig(fusion_lambda=1.2)
    with pytest.raises(ValueError, match="margin"):
        ModelConfig(margin=0.0)
    with pytest.raises(ValueError, match="modalities"):
        ModelConfig(modalities=("rgb", "rgb"))
    with pytest.raises(ValueError, match="tef_mode"):
        ModelConfig(tef_mode="ends")
    with pytest.raises(ValueError, match="context_supervision"):
        ModelConfig(context_supervision="none")
    for weight in ("tall_alpha_c", "tall_alpha_w"):
        with pytest.raises(ValueError, match=f"{weight} must be >= 0"):
            ModelConfig(**{weight: -0.5})
    with pytest.raises(ValueError, match="joint_dim must be >= 1"):
        ModelConfig(joint_dim=0)
    with pytest.raises(ValueError, match="vocab_size must be >= 0"):
        ModelConfig(vocab_size=-1)


def test_config_unknown_key_errors():
    with pytest.raises(ValueError, match="unknown keys"):
        ModelConfig.from_text("context_mode = latent\nhidden_dim = 3\n")


def test_expected_shapes_cover_all_axes():
    cfg = tiny_model_config(context_mode="before_after", similarity="tall_sim",
                            tef_mode="contef", modalities=("rgb", "flow"))
    shapes = expected_param_shapes(cfg)
    # two context slots: ctx MLP input doubled, contef block 2 + 2*2
    assert shapes["rgb.ctx.w1"] == (cfg.mlp_hidden, cfg.visual_dim * 2)
    assert shapes["rgb.proj_w"] == (cfg.joint_dim, 2 * cfg.visual_out_dim + 6)
    assert shapes["flow.sim.w1"] == (cfg.sim_hidden, 4 * cfg.joint_dim)
    assert shapes["lang.w"] == (4 * cfg.lstm_hidden, cfg.embed_dim)
    dist = expected_param_shapes(tiny_model_config(similarity="distance"))
    assert not any(".sim." in name for name in dist)
    with pytest.raises(ValueError, match="vocab_size"):
        expected_param_shapes(tiny_model_config(vocab_size=0))


def test_init_params_deterministic_and_shaped():
    cfg = tiny_model_config()
    a = init_params(cfg, np.random.default_rng(7))
    b = init_params(cfg, np.random.default_rng(7))
    shapes = expected_param_shapes(cfg)
    assert set(a.names()) == set(shapes)
    for name in a.names():
        assert a[name].value.shape == shapes[name]
        assert np.array_equal(a[name].value, b[name].value)
    assert np.array_equal(a["lang.b"].value, np.zeros(4 * cfg.lstm_hidden))
    with pytest.raises(ValueError, match="pretrained embedding shape"):
        init_params(cfg, np.random.default_rng(7), np.zeros((cfg.vocab_size, cfg.embed_dim + 1)))


# Ids: tef_mode-similarity, with a -context_mode suffix except for latent.
ORACLE_CASES = [
    pytest.param(tef_mode, sim, mode, id="-".join([tef_mode, sim] + ([mode] if mode != "latent" else [])))
    for mode in ("global", "before_after", "latent")
    for sim in ("distance", "mult", "normalized_mult", "tall_sim")
    for tef_mode in ("none", "tef", "contef")
]


@pytest.mark.parametrize("tef_mode,sim,context_mode", ORACLE_CASES)
def test_score_matches_numpy_oracle(rng, tef_mode, sim, context_mode):
    """Exact agreement with the per-pair numpy scorer. In before_after mode the
    bases (0, 0) and (0, 3) have a padded before slot and (0, 3) a padded after
    slot: zero pooled features and PAD_TEF endpoints."""
    cfg = tiny_model_config(context_mode=context_mode, similarity=sim, tef_mode=tef_mode,
                            modalities=("rgb", "flow"), fusion_lambda=0.35)
    params = init_params(cfg, rng)
    video = tiny_video(rng, n_segments=4, dim=cfg.visual_dim, modalities=("rgb", "flow"))
    arrays = params.arrays()
    for base in (Moment(0, 0), Moment(1, 2), Moment(0, 3)):
        contexts = context_set(context_mode, base, 4)
        got = score(video, [1, 3, 2], base, cfg, params)
        want_score, want_idx = np_score(video, [1, 3, 2], base, contexts, cfg, arrays)
        assert got.score == want_score
        assert got.chosen_context == contexts[want_idx]
    with pytest.raises(ValueError, match="exceeds"):
        score(video, [1], Moment(2, 4), cfg, params)


def test_score_gt_context_only_scores_supplied_context(rng):
    cfg = tiny_model_config()
    params = init_params(cfg, rng)
    video = tiny_video(rng, n_segments=4, dim=cfg.visual_dim)
    gt = ContextMoment.single(Moment(3, 3))
    got = score(video, [1], Moment(0, 1), cfg, params, gt_context=gt)
    assert got.chosen_context == gt
    want, _ = np_score(video, [1], Moment(0, 1), [gt], cfg, params.arrays())
    assert got.score == want


def test_score_ties_break_to_earlier_context(rng):
    cfg = tiny_model_config()
    params = init_params(cfg, rng)
    # identical segment features make many contexts tie exactly
    feats = np.tile(np.array([[0.3, -0.2, 0.9]]), (4, 1))
    from momentloc.encoders import SegmentFeatureTable

    video = {"rgb": SegmentFeatureTable("v0", "rgb", feats)}
    base = Moment(1, 1)
    contexts = context_set("latent", base, 4)
    got = score(video, [2], base, cfg, params)
    # with tef absent from context features only moment extent matters; the
    # earliest context achieving the max must be chosen
    scores = [
        np_score(video, [2], base, [ctx], cfg, params.arrays())[0] for ctx in contexts
    ]
    first_best = int(np.argmax(scores))
    assert got.chosen_context == contexts[first_best]


def test_conform_context():
    base = Moment(2, 3)
    single = ContextMoment.single(Moment(0, 1))
    assert conform_context(single, base, 1) is single
    assert conform_context(single, base, 2).slots == (Moment(0, 1), None)
    late = ContextMoment.single(Moment(4, 5))
    assert conform_context(late, base, 2).slots == (None, Moment(4, 5))
    pair = ContextMoment.pair(Moment(0, 1), None)
    assert conform_context(pair, base, 1).slots == (Moment(0, 1),)
    with pytest.raises(ValueError):
        conform_context(ContextMoment.pair(Moment(0, 0), Moment(5, 5)), base, 1)


@st.composite
def stored_contexts(draw, n):
    """One- or two-slot contexts in a video of n segments, padded slots included."""
    first = draw(st.none() | moments_in(0, n - 1))
    if draw(st.booleans()):
        return ContextMoment((first,))
    lo = 0 if first is None else first.end_seg + 1
    second = draw(st.none() | moments_in(lo, n - 1)) if lo < n else None
    return ContextMoment.pair(first, second)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_conform_context_gives_the_slot_count_and_is_idempotent(n, data):
    context = data.draw(stored_contexts(n))
    base = data.draw(moments_in(0, n - 1))
    for n_slots in (1, 2):
        if n_slots == 1 and len(context.slots) == 2 and len(context.regions) != 1:
            with pytest.raises(ValueError, match="does not fit"):
                conform_context(context, base, n_slots)
            continue
        fitted = conform_context(context, base, n_slots)
        assert len(fitted.slots) == n_slots
        assert fitted.regions == context.regions
        assert conform_context(fitted, base, n_slots) == fitted


def _fits(context, n_slots):
    """Whether conform_context can fit `context` to `n_slots` slots."""
    return n_slots == 2 or len(context.slots) == 1 or len(context.regions) == 1


@pytest.mark.parametrize("mode", CONTEXT_MODES)
@settings(max_examples=40, deadline=None)
@given(lengths=st.tuples(st.integers(1, 9), st.integers(1, 9)), data=st.data())
def test_score_grid_equals_numpy_oracle_for_any_groups(mode, lengths, data):
    """One call over groups from videos of two lengths, in any order, with
    repeated bases in any order, each group against the mode's context_set
    or against a pinned context fitted to each base: every score and every
    chosen context is the numpy oracle's over those candidates, exactly."""
    cfg = tiny_model_config(context_mode=mode, modalities=("rgb", "flow"), fusion_lambda=0.35)
    rng = np.random.default_rng(list(lengths))
    params = init_params(cfg, rng)
    arrays = params.arrays()
    videos = [tiny_video(rng, n, cfg.visual_dim, cfg.modalities, f"v{i}") for i, n in enumerate(lengths)]
    ids = [1, 3, 2]
    groups, want_scores, want_chosen = [], [], []
    for _ in range(data.draw(st.integers(1, 4))):
        video = data.draw(st.sampled_from(videos))
        n = video["rgb"].n_segments
        bases = data.draw(st.lists(moments_in(0, n - 1), min_size=1, max_size=5))
        pinned = data.draw(st.none() | stored_contexts(n).filter(lambda c: _fits(c, cfg.context_slots)))
        groups.append((video, 0, bases, pinned))
        for base in bases:
            contexts = (context_set(mode, base, n) if pinned is None
                        else [conform_context(pinned, base, cfg.context_slots)])
            value, idx = np_score(video, ids, base, contexts, cfg, arrays)
            want_scores.append(value)
            want_chosen.append(contexts[idx])
    tape = Tape(recording=False)
    got, chosen = score_grid(tape, encode_query(tape, ids, params), groups, cfg, params)
    assert got.value.tolist() == want_scores
    assert chosen == want_chosen
    assert not any(_candidate_table(mode, n)[1].flags.writeable for n in lengths)


def test_latent_candidate_lists_share_their_contexts():
    """Every moment's latent candidates are the same ContextMoment objects,
    so the table holds n(n+1)/2 contexts, not their square; each list is
    still a list of its own, and the global candidate is one of them."""
    sets, _ = _candidate_table("latent", 5)
    assert sets[0] is not sets[-1]
    assert all(a is b for a, b in zip(sets[0], sets[-1], strict=True))
    (whole,) = context_set("global", Moment(2, 3), 5)
    assert whole is sets[0][4] and whole.slots == (Moment(0, 4),)


def test_score_grid_rejects_no_bases_and_bases_beyond_the_video(rng):
    cfg = tiny_model_config()
    params = init_params(cfg, rng)
    video = tiny_video(rng, 4, cfg.visual_dim)
    tape = Tape(recording=False)
    fl = encode_query(tape, [1, 2], params)
    for groups in ([], [(video, 0, [], None)], [(video, 0, [], ContextMoment.single(Moment(3, 3)))]):
        with pytest.raises(ValueError, match="at least one base"):
            score_grid(tape, fl, groups, cfg, params)
    for pinned in (None, ContextMoment.single(Moment(3, 3))):
        with pytest.raises(ValueError, match="exceeds"):
            score_grid(tape, fl, [(video, 0, [Moment(0, 0), Moment(2, 4)], pinned)], cfg, params)
    with pytest.raises(ValueError, match="exceeds"):
        score_grid(tape, fl, [(video, 0, [Moment(0, 0)], ContextMoment.single(Moment(3, 4)))],
                   cfg, params)
    # a single query vector has no row 1
    with pytest.raises(ValueError, match="only query row 0"):
        score_grid(tape, fl, [(video, 0, [Moment(0, 0)], None), (video, 1, [Moment(1, 1)], None)],
                   cfg, params)


def test_running_sum_pooling_equals_mean():
    """Pooling a list of videos in one call by stacked running sums gives
    each video's moments, in list order, bit for bit as `mean(axis=0)` of
    their segment rows, as the numpy oracle pools them: videos of 1-12
    segments alone and in lists where two or more videos share a length
    next to videos of other lengths (pooled one by one), one
    to 16 features per segment, features handed over in Fortran order and
    rows of -0.0."""
    rng = np.random.default_rng(8)
    from momentloc.encoders import SegmentFeatureTable

    calls = [[n] for n in range(1, 13)] + [[5, 5], [9, 3, 9, 9]]
    for _ in range(12):
        lengths = rng.integers(1, 13, size=int(rng.integers(3, 7)))
        lengths[int(rng.integers(1, len(lengths)))] = lengths[0]
        calls.append(rng.permutation(lengths).tolist())
    for lengths in calls:
        for dim in (1, 2, 7, 16):
            for scale in (1.0, 1e-3, 1e6):
                tables = []
                for k, n in enumerate(lengths):
                    raw = scale * rng.normal(size=(n, dim))
                    raw[rng.random(n) < 0.2] = -0.0
                    given = np.asfortranarray(raw) if k % 2 else raw
                    tables.append(SegmentFeatureTable(f"v{k}", "rgb", given))
                pooled = _pool_moments(tables)
                at = 0
                for table in tables:
                    moments = enumerate_moments(table.n_segments)
                    for m in moments:
                        want = table.features[m.start_seg : m.end_seg + 1].mean(axis=0)
                        assert pooled[at].tobytes() == want.tobytes()
                        at += 1
                assert pooled.shape == (at, dim)


def test_ranking_loss_values():
    cfg = tiny_model_config(margin=0.1)
    tape = Tape()
    scores = tape.constant([1.0, 0.5, 1.5, 0.95])
    node = batch_loss(tape, [ExampleScores(scores, 0, [1, 2], [3])], cfg)
    # intra: mean(relu(0.1 - 0.5), relu(0.1 + 0.5)) = 0.3; inter: relu(0.05) = 0.05
    assert float(node.value) == pytest.approx(0.35)
    with pytest.raises(ValueError):
        batch_loss(Tape(), [ExampleScores(tape.constant([0.0]), 0, [], [])], cfg)


def test_ranking_loss_zero_when_margin_satisfied():
    tape = Tape()
    scored = [ExampleScores(tape.constant([2.0, 0.0, 1.0]), 0, [1], [2])]
    node = batch_loss(tape, scored, tiny_model_config(margin=0.5))
    assert float(node.value) == 0.0


def test_ranking_loss_gradient_sign():
    tape = Tape()
    scores = tape.constant([1.0, 1.05])
    node = batch_loss(tape, [ExampleScores(scores, 0, [1], [])], tiny_model_config(margin=0.1))
    backward(tape, node)
    pos_grad, neg_grad = scores.grad
    assert pos_grad <= 0.0
    assert neg_grad >= 0.0


def test_log_logistic_loss_value_and_stability():
    cfg = tiny_model_config(loss="tall", tall_alpha_c=2.0, tall_alpha_w=0.5)
    tape = Tape()
    scores = tape.constant([2.0, -1.0, 3.0])
    node = batch_loss(tape, [ExampleScores(scores, 0, [1, 2], [])], cfg)
    want = 2.0 * np.logaddexp(0.0, -2.0) + 0.5 * np.mean(
        [np.logaddexp(0.0, -1.0), np.logaddexp(0.0, 3.0)]
    )
    assert float(node.value) == pytest.approx(want, rel=1e-12)
    # extreme scores stay finite
    tape2 = Tape()
    extreme = [ExampleScores(tape2.constant([-800.0, 900.0]), 0, [1], [])]
    big = batch_loss(tape2, extreme, tiny_model_config(loss="tall"))
    assert np.isfinite(float(big.value))
    with pytest.raises(ValueError):
        log_logistic_loss(Tape(), tape.constant([0.0]), [], [0], 1.0, 1.0)


def test_save_load_model_roundtrip(tmp_path, rng):
    cfg = tiny_model_config()
    params = init_params(cfg, rng)
    vocab = Vocabulary(["a", "b", "c", "d"])
    save_model(str(tmp_path), ModelBundle(cfg, params, vocab))
    loaded = load_model(str(tmp_path))
    assert loaded.config == cfg
    assert loaded.vocab.encode(["c"]) == [3]
    for name in params.names():
        assert np.array_equal(loaded.params[name].value, params[name].value)


def test_params_from_arrays_validates(rng):
    cfg = tiny_model_config()
    arrays = init_params(cfg, rng).arrays()
    params_from_arrays(cfg, arrays)
    missing = dict(arrays)
    missing.pop("lang.w")
    with pytest.raises(ValueError, match="missing"):
        params_from_arrays(cfg, missing)
    wrong = dict(arrays)
    wrong["lang.w"] = np.zeros((1, 1))
    with pytest.raises(ValueError, match="shape mismatch"):
        params_from_arrays(cfg, wrong)


def test_params_from_arrays_takes_the_arrays_without_a_copy(rng):
    """load_model hands over the arrays it has just read, so wrapping them
    holds no second copy of a tensor; a gradient buffer's pages stay
    unwritten until a gradient reaches them."""
    cfg = tiny_model_config()
    arrays = {n: a.copy() for n, a in init_params(cfg, rng).arrays().items()}
    params = params_from_arrays(cfg, arrays)
    for n in arrays:
        assert params[n].value is arrays[n]
        assert params[n].grad.shape == arrays[n].shape and not params[n].grad.any()


def test_classic_configs_expressible():
    """The two well-known fixed-context baselines must be reachable through
    configuration alone: squared-distance + global context + tef + ranking,
    and the concatenation similarity + adjacent windows + no tef + the
    log-logistic loss."""
    classic_global = ModelConfig(
        similarity="distance", context_mode="global", tef_mode="tef",
        loss="ranking", context_supervision="weak", vocab_size=4,
    )
    classic_adjacent = ModelConfig(
        similarity="tall_sim", context_mode="before_after", tef_mode="none",
        loss="tall", context_supervision="weak", vocab_size=4,
    )
    for cfg in (classic_global, classic_adjacent):
        clone = ModelConfig.from_text(cfg.to_text())
        assert clone == cfg
        shapes = expected_param_shapes(cfg)
        assert shapes
