"""Acceptance gate: ten numbered checks, one printed verdict line each.

Structural laws and oracle equivalences are exact; gradient agreement uses
central finite differences; the trained checks reproduce directional findings
on the synthetic corpus with the thresholds stated in their verdict lines.
Criteria 6-8 share one module-scoped fixture that generates the pinned corpus
and trains the latent-context and global-context models once.
"""

import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import max_relative_error, np_score, numeric_gradients, tiny_video
from momentloc.autodiff import Parameter, Tape, backward
from momentloc.dataset import (
    BaseAnnotation,
    Corpus,
    SymbolicGroundTruth,
    SyntheticCorpusConfig,
    TemporalQuery,
    generate_synthetic,
    generate_template_queries,
    oracle_localize,
    word_stats,
)
from momentloc.encoders import Vocabulary
from momentloc.evaluation import (
    QueryResult,
    compute_metrics,
    consensus,
    context_conditioned_delta,
    evaluate,
)
from momentloc.model import (
    SIMILARITIES,
    TEF_MODES,
    ModelConfig,
    init_params,
    score,
)
from momentloc.temporal import ContextMoment, Moment, context_set, enumerate_moments
from momentloc.trainer import Negatives, TrainConfig, batch_loss, example_scores, train


def report(num: int, ok: bool, detail: str) -> None:
    """One verdict line per criterion, printed before the assert so failures
    still show their numbers."""
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(f"\n{line}", flush=True)
    assert ok, line


# -- 1: enumeration ------------------------------------------------------------------


def test_01_moment_enumeration():
    t0 = time.perf_counter()
    moments = enumerate_moments(6)
    distinct = len(set(moments)) == len(moments)
    law = all(len(enumerate_moments(n)) == n * (n + 1) // 2 for n in range(1, 13))
    elapsed = time.perf_counter() - t0
    report(
        1,
        len(moments) == 21 and distinct and law and elapsed < 1.0,
        f"enumerate_moments(6) gives {len(moments)} distinct moments (want exactly 21); "
        f"n(n+1)/2 law {'holds' if law else 'broken'} for n <= 12; "
        f"{elapsed * 1e3:.0f} ms (limit 1 s)",
    )


# -- 2: gradients --------------------------------------------------------------------


def _tape_op_cases(rng):
    """(name, arrays, build) per tape op; build returns a scalar root. Inputs
    near relu/max kinks are nudged away so the finite difference stays on one
    branch."""
    aux = rng.normal(size=9)
    relu_in = rng.normal(size=6)
    relu_in[np.abs(relu_in) < 1e-3] = 0.5
    pick = rng.normal(size=5)
    top = np.argsort(pick)
    if pick[top[-1]] - pick[top[-2]] < 0.05:
        pick[top[-1]] += 0.1

    def scalarize(tape, node):
        return node if node.value.shape == () else tape.sum_all(node)

    def unary(op):
        return lambda t, ns: scalarize(t, getattr(t, op)(ns[0]))

    def binary(op):
        return lambda t, ns: scalarize(t, getattr(t, op)(ns[0], ns[1]))

    def structural(t, ns):
        cat = t.concat([ns[0], ns[1]])
        combo = t.concat([t.slice1d(cat, 1, 4), t.take_row(ns[2], 2), t.scale(ns[0], -1.7)])
        return t.matmul(combo, t.constant(aux))

    def max_route(t, ns):
        scores = [t.matmul(ns[0], t.constant(row)) for row in np.eye(5)]
        best, _ = t.max_select(scores)
        return best

    shapes = lambda *ss: [rng.normal(size=s) for s in ss]
    return [
        ("add", shapes((5,), (5,)), binary("add")),
        ("sub", shapes((5,), (5,)), binary("sub")),
        ("hadamard", shapes((5,), (5,)), binary("hadamard")),
        ("scale", shapes((5,)), lambda t, ns: scalarize(t, t.scale(ns[0], 2.3))),
        ("tanh", shapes((5,)), unary("tanh")),
        ("sigmoid", shapes((5,)), unary("sigmoid")),
        ("relu", [relu_in.copy()], unary("relu")),
        ("softplus", shapes((5,)), unary("softplus")),
        ("matmul_2d_2d", shapes((3, 4), (4, 2)), binary("matmul")),
        ("matmul_2d_1d", shapes((3, 4), (4,)), binary("matmul")),
        ("matmul_1d_1d", shapes((4,), (4,)), binary("matmul")),
        ("concat_slice_take_scale", shapes((3,), (2,), (4, 3)), structural),
        ("sum_all", shapes((3, 3)), lambda t, ns: t.sum_all(ns[0])),
        ("l2_normalize", shapes((5,)), lambda t, ns: t.matmul(t.l2_normalize(ns[0]), t.constant(aux[:5]))),
        ("squared_distance", shapes((4,), (4,)), binary("squared_distance")),
        ("max_select", [pick], max_route),
    ]


def _check_case(arrays, build):
    params = [Parameter(f"p{i}", a) for i, a in enumerate(arrays)]

    def run(recording):
        tape = Tape(recording=recording)
        return tape, build(tape, [tape.param(p) for p in params])

    tape, root = run(True)
    backward(tape, root)
    analytic = [p.grad.copy() for p in params]
    numeric = numeric_gradients(lambda: float(run(False)[1].value), [p.value for p in params])
    return max_relative_error(analytic, numeric)


def _loss_setup(rng, sim, tef_mode, loss):
    cfg = ModelConfig(
        context_mode="latent", tef_mode=tef_mode, similarity=sim, loss=loss,
        context_supervision="strong", modalities=("rgb", "flow"), fusion_lambda=0.4,
        margin=0.3, visual_dim=4, mlp_hidden=5, visual_out_dim=4, embed_dim=3,
        lstm_hidden=4, joint_dim=5, sim_hidden=3, vocab_size=8,
    )
    features = {
        vid: tiny_video(rng, n_segments=5, dim=4, modalities=("rgb", "flow"), video_id=vid)
        for vid in ("va", "vb")
    }
    pairs = [
        (
            TemporalQuery("va", "w1 before w2.", Moment(1, 1), "before",
                          ContextMoment.single(Moment(3, 3)), "w2"),
            Negatives(intra=[Moment(0, 0), Moment(2, 4)], inter=[("vb", Moment(1, 1))]),
        ),
        (
            TemporalQuery("vb", "w3.", Moment(2, 4)),
            Negatives(intra=[Moment(0, 1)], inter=[("va", Moment(2, 4))]),
        ),
    ]
    corpus = Corpus(features, [ex for ex, _ in pairs])
    vocab = Vocabulary.from_token_lists([ex.tokens for ex, _ in pairs])
    params = init_params(cfg, rng)
    return cfg, corpus, vocab, params, pairs


def _loss_directional_error(rng, sim, tef_mode, loss):
    """Relative error between the analytic directional derivative of the full
    batch loss and a central finite difference along one random direction."""
    cfg, corpus, vocab, params, pairs = _loss_setup(rng, sim, tef_mode, loss)
    trainable = [p for p in params.parameters() if p.trainable]

    def loss_value(recording):
        tape = Tape(recording=recording)
        cache = {}
        scored = [
            example_scores(tape, cache, corpus, ex, negs, cfg, params, vocab)
            for ex, negs in pairs
        ]
        return tape, batch_loss(tape, scored, cfg)

    tape, root = loss_value(True)
    backward(tape, root)
    direction = [rng.normal(size=p.value.shape) for p in trainable]
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
    direction = [d / norm for d in direction]
    analytic = sum(float(np.sum(p.grad * d)) for p, d in zip(trainable, direction))
    h = 1e-6
    for p, d in zip(trainable, direction):
        p.value += h * d
    f_plus = float(loss_value(False)[1].value)
    for p, d in zip(trainable, direction):
        p.value -= 2 * h * d
    f_minus = float(loss_value(False)[1].value)
    for p, d in zip(trainable, direction):
        p.value += h * d
    numeric = (f_plus - f_minus) / (2 * h)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def test_02_gradient_suite():
    t0 = time.perf_counter()
    tol = 1e-4
    rng = np.random.default_rng(2024)
    n_points = 20

    op_names = set()
    worst_op = 0.0
    for _ in range(n_points):
        for name, arrays, build in _tape_op_cases(rng):
            worst_op = max(worst_op, _check_case(arrays, build))
            op_names.add(name)

    # full loss along random directions; a fresh draw replaces the rare point
    # that lands within finite-difference reach of a hinge or argmax switch
    combos = list(itertools.product(SIMILARITIES, TEF_MODES, ("ranking", "tall")))
    worst_loss = 0.0
    retried = 0
    for sim, tef_mode, loss in combos:
        for _ in range(n_points):
            err = _loss_directional_error(rng, sim, tef_mode, loss)
            if err >= tol:
                retried += 1
                err = _loss_directional_error(rng, sim, tef_mode, loss)
            worst_loss = max(worst_loss, err)

    # one combo in full per-coordinate depth
    cfg, corpus, vocab, params, pairs = _loss_setup(rng, "normalized_mult", "contef", "ranking")
    trainable = [p for p in params.parameters() if p.trainable]

    def loss_value(recording=False):
        tape = Tape(recording=recording)
        cache = {}
        scored = [
            example_scores(tape, cache, corpus, ex, negs, cfg, params, vocab)
            for ex, negs in pairs
        ]
        return tape, batch_loss(tape, scored, cfg)

    tape, root = loss_value(True)
    backward(tape, root)
    analytic = [p.grad.copy() for p in trainable]
    numeric = numeric_gradients(lambda: float(loss_value()[1].value), [p.value for p in trainable])
    coord_err = max_relative_error(analytic, numeric)

    elapsed = time.perf_counter() - t0
    report(
        2,
        worst_op < tol and worst_loss < tol and coord_err < tol
        and retried <= len(combos) and elapsed < 120.0,
        f"{len(op_names)} tape ops x {n_points} points rel err {worst_op:.2e}; "
        f"full loss over {len(combos)} similarity/TEF/loss combos x {n_points} "
        f"directions rel err {worst_loss:.2e} ({retried} kink retries); "
        f"per-coordinate check {coord_err:.2e} (tolerance 1e-4); "
        f"{elapsed:.1f} s (limit 120 s)",
    )


# -- 3: latent scoring oracle --------------------------------------------------------


def test_03_latent_score_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    mismatches = 0
    tie_pool = 0
    for i in range(1000):
        cfg = ModelConfig(
            context_mode="latent",
            tef_mode=TEF_MODES[(i // 4) % 3],
            similarity=SIMILARITIES[i % 4],
            loss="ranking",
            context_supervision="weak",
            modalities=("rgb", "flow") if i % 3 else ("rgb",),
            fusion_lambda=0.35,
            visual_dim=3, mlp_hidden=3, visual_out_dim=2, embed_dim=2,
            lstm_hidden=3, joint_dim=3, sim_hidden=2, vocab_size=6,
        )
        params = init_params(cfg, rng)
        n = int(rng.integers(3, 7))
        if i % 7 == 0:
            # constant features force exact score ties across contexts
            row = rng.normal(size=3)
            video = {
                mod: tiny_video(rng, n, 3, (mod,))[mod] for mod in cfg.modalities
            }
            for table in video.values():
                table.features[:] = row
            tie_pool += 1
        else:
            video = tiny_video(rng, n, 3, cfg.modalities)
        tokens = list(rng.integers(0, 6, size=int(rng.integers(1, 5))))
        base = enumerate_moments(n)[int(rng.integers(0, n * (n + 1) // 2))]
        contexts = context_set("latent", base, n)
        got = score(video, tokens, base, cfg, params)
        want, idx = np_score(video, tokens, base, contexts, cfg, params.arrays())
        if got.score != want or got.chosen_context != contexts[idx]:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(
        3,
        mismatches == 0 and elapsed < 60.0,
        f"latent score vs exhaustive context loop on 1000 random triples "
        f"(4 similarities x 3 TEF modes, {tie_pool} constant-feature tie cases): "
        f"{mismatches} mismatches (tolerance: exact value and argmax); "
        f"{elapsed:.1f} s (limit 60 s)",
    )


# -- 4: metric oracle ----------------------------------------------------------------


def _ref_iou(a: Moment, b: Moment) -> float:
    inter = min(a.end_seg, b.end_seg) - max(a.start_seg, b.start_seg) + 1
    if inter <= 0:
        return 0.0
    union = (a.end_seg - a.start_seg + 1) + (b.end_seg - b.start_seg + 1) - inter
    return inter / union


def _ref_consensus(annotations):
    if len(annotations) < 4:
        return list(annotations)
    best_key, best = None, None
    for combo in itertools.combinations(range(len(annotations)), 3):
        chosen = [annotations[i] for i in combo]
        total = sum(_ref_iou(x, y) for x, y in itertools.combinations(chosen, 2))
        key = (-total, combo)
        if best_key is None or key < best_key:
            best_key, best = key, chosen
    return best


def _ref_metrics(results):
    buckets = {}
    for r in results:
        buckets.setdefault(r.word, []).append(r)
    out = {}
    for word, group in buckets.items():
        cons = [_ref_consensus(r.annotations) for r in group]
        r1 = np.mean([any(m in c for m in r.ranked[:1]) for r, c in zip(group, cons)])
        r5 = np.mean([any(m in c for m in r.ranked[:5]) for r, c in zip(group, cons)])
        miou = np.mean([max(_ref_iou(r.ranked[0], m) for m in c) for r, c in zip(group, cons)])
        out[word] = {"r_at_1": float(r1), "r_at_5": float(r5), "miou": float(miou), "count": len(group)}
    return out


def test_04_metric_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    words = ("none", "before", "after", "then")
    results = []
    consensus_exact = True
    for case in range(50):
        n = int(rng.integers(4, 7))
        pool = enumerate_moments(n)
        ranked = tuple(pool[j] for j in rng.permutation(len(pool)))
        if case % 5 == 0:
            # duplicate annotations force total-IoU ties; rule keeps the
            # lexicographically earliest 3-subset
            ann = tuple([pool[int(rng.integers(0, len(pool)))]] * 4)
        else:
            k = int(rng.integers(1, 6))
            ann = tuple(pool[int(rng.integers(0, len(pool)))] for _ in range(k))
        if list(consensus(list(ann))) != _ref_consensus(ann):
            consensus_exact = False
        results.append(QueryResult(words[case % 4], ranked, ann))
    got = compute_metrics(results).to_dict()["buckets"]
    want = _ref_metrics(results)
    metrics_exact = got == want
    elapsed = time.perf_counter() - t0
    report(
        4,
        consensus_exact and metrics_exact and elapsed < 10.0,
        f"R@1/R@5/mIoU and consensus vs brute-force reference on 50 cases "
        f"(1-5 annotators, ties included): consensus "
        f"{'exact' if consensus_exact else 'MISMATCH'}, metrics "
        f"{'exact' if metrics_exact else 'MISMATCH'}; "
        f"{elapsed:.2f} s (limit 10 s)",
    )


# -- 5: template composition ---------------------------------------------------------


def test_05_template_yield():
    # chains of single-token annotations tiling each video, plus one video
    # whose two annotations are not adjacent and so pair with nothing
    segment_counts = {"u0": 4, "u1": 6, "u2": 3}
    annotations, events = [], {}
    tok = 0
    for vid, n in segment_counts.items():
        events[vid] = []
        for i in range(n):
            name = f"act{tok:02d}"
            tok += 1
            annotations.append(BaseAnnotation(vid, f"{name}.", Moment(i, i)))
            events[vid].append(name)
    events["u3"] = ["gap0", "gapx", "gap1"]
    annotations.append(BaseAnnotation("u3", "gap0.", Moment(0, 0)))
    annotations.append(BaseAnnotation("u3", "gap1.", Moment(2, 2)))

    n_pairs = sum(n - 1 for n in segment_counts.values())
    queries = generate_template_queries(annotations)
    counts = word_stats(q.sentence for q in queries)
    truth = SymbolicGroundTruth(events)
    grounded = sum(1 for q in queries if oracle_localize(q, truth) == q.moment)
    ratio_ok = (
        counts["before"] == 2 * n_pairs
        and counts["after"] == 2 * n_pairs
        and counts["then"] == n_pairs
    )
    report(
        5,
        ratio_ok and grounded == len(queries) and len(queries) > 0,
        f"{n_pairs} adjacent ordered pairs -> before/after/then = "
        f"{counts['before']}/{counts['after']}/{counts['then']} "
        f"(want exactly {2 * n_pairs}/{2 * n_pairs}/{n_pairs}); oracle agrees on "
        f"{grounded}/{len(queries)} emitted queries (tolerance: all)",
    )


# -- 6-8: trained directional findings -------------------------------------------------

# Frozen training recipe for the directional checks. The thresholds below were
# confirmed on the first full run of this recipe and must not drift.
CORPUS_RECIPE = dict(
    n_train_videos=500, n_test_videos=100, n_segments=6, n_events=30,
    feature_dim=16, noise_sigma=0.1, repeat_prob=0.5, seed=7,
)
MODEL_RECIPE = dict(
    similarity="normalized_mult", loss="ranking", modalities=("rgb",),
    margin=0.5, visual_dim=16, mlp_hidden=32, visual_out_dim=24,
    embed_dim=12, lstm_hidden=24, joint_dim=24, sim_hidden=24,
)
TRAIN_RECIPE = dict(epochs=12, batch_size=32, lr=0.1,
                    negatives_intra=2, negatives_inter=1)
STRONG_SEED = 21
GLOBAL_SEED = 0


@pytest.fixture(scope="module")
def directional():
    """Generate the pinned corpus and train the latent-context and
    global-context models once; criteria 6-8 all read from here."""
    t0 = time.perf_counter()
    syn = generate_synthetic(SyntheticCorpusConfig(**CORPUS_RECIPE))
    strong, _ = train(
        syn.train,
        ModelConfig(context_mode="latent", tef_mode="contef",
                    context_supervision="strong", **MODEL_RECIPE),
        TrainConfig(seed=STRONG_SEED, **TRAIN_RECIPE),
    )
    global_ctx, _ = train(
        syn.train,
        ModelConfig(context_mode="global", tef_mode="tef",
                    context_supervision="weak", **MODEL_RECIPE),
        TrainConfig(seed=GLOBAL_SEED, **TRAIN_RECIPE),
    )
    elapsed = time.perf_counter() - t0
    return syn, strong, global_ctx, elapsed


def _before_after_r1(report_):
    b, a = report_.buckets["before"], report_.buckets["after"]
    return (b.r_at_1 * b.count + a.r_at_1 * a.count) / (b.count + a.count)


def test_06_synthetic_directional(directional):
    syn, strong, global_ctx, train_seconds = directional
    t0 = time.perf_counter()
    strong_eval = evaluate(syn.test, strong)
    global_eval = evaluate(syn.test, global_ctx)
    elapsed = train_seconds + (time.perf_counter() - t0)
    strong_ba = _before_after_r1(strong_eval)
    global_ba = _before_after_r1(global_eval)
    gap = strong_ba - global_ba
    simple = strong_eval.buckets["none"].r_at_1
    report(
        6,
        gap >= 0.05 and simple >= 0.80 and elapsed < 900.0,
        f"latent-context model before+after R@1 {strong_ba:.3f} vs global-context "
        f"{global_ba:.3f}, gap {gap:+.3f} (threshold >= +0.05); simple-query R@1 "
        f"{simple:.3f} (threshold >= 0.80); corpus+training+eval {elapsed:.0f} s "
        f"(limit 900 s)",
    )


def test_07_gt_context_bound(directional):
    syn, strong, _, _ = directional
    latent = evaluate(syn.test, strong)
    gt = evaluate(syn.test, strong, "gt_context")
    tol = 0.005
    rows, ok = [], True
    for word in ("before", "after", "then"):
        for metric in ("r_at_1", "miou"):
            lv = getattr(latent.buckets[word], metric)
            gv = getattr(gt.buckets[word], metric)
            if gv < lv - tol:
                ok = False
            rows.append(f"{word}/{metric} {gv:.3f} vs {lv:.3f}")
    report(
        7,
        ok,
        "gt-context eval >= latent eval (tolerance -0.005) on "
        + ", ".join(rows),
    )


def test_08_context_conditioned_delta(directional):
    syn, strong, _, _ = directional
    delta = context_conditioned_delta(syn.test, strong)
    parts, ok = [], True
    for word in ("before", "after"):
        row = delta[word]
        if row is None:
            ok = False
            parts.append(f"{word}: empty subset")
            continue
        d1, dm = row["delta_r_at_1"], row["delta_miou"]
        if d1 < 0 or dm < 0:
            ok = False
        parts.append(f"{word} dR@1 {d1:+.4f} dmIoU {dm:+.4f}")
    report(
        8,
        ok,
        "queries whose context fragment is localized at rank 1 do no worse "
        "than the full bucket (threshold >= 0, no tolerance): " + "; ".join(parts),
    )


# -- 9: determinism ------------------------------------------------------------------

_GEN_CFG = """\
n_train_videos = 8
n_test_videos = 3
n_segments = 5
n_events = 9
feature_dim = 6
noise_sigma = 0.1
repeat_prob = 0.5
queries_per_video = 2
seed = 11
"""

_MODEL_CFG = """\
context_mode = latent
tef_mode = contef
similarity = normalized_mult
loss = ranking
context_supervision = strong
modalities = rgb,flow
visual_dim = 6
mlp_hidden = 5
visual_out_dim = 4
embed_dim = 3
lstm_hidden = 4
joint_dim = 4
sim_hidden = 3
"""

_TRAIN_CFG = """\
epochs = 2
batch_size = 8
lr = 0.05
seed = 3
"""

_PRIMARY_OUTPUTS = {
    "gen": ("corpus.manifest", "truth.json", "features_rgb.txt", "features_flow.txt",
            "queries_train.json", "queries_test.json"),
    "train": ("checkpoint.bin", "model.cfg", "vocab.json", "history.csv"),
    "eval": ("metrics.json", "metrics.txt"),
}


def test_09_cli_determinism(tmp_path):
    def cli(*args):
        subprocess.run(
            [sys.executable, "-m", "momentloc", *args],
            check=True, capture_output=True, text=True,
        )

    (tmp_path / "gen.cfg").write_text(_GEN_CFG, encoding="utf-8")
    (tmp_path / "model.cfg").write_text(_MODEL_CFG, encoding="utf-8")
    (tmp_path / "train.cfg").write_text(_TRAIN_CFG, encoding="utf-8")
    outs = {}
    for run in ("a", "b"):
        gen = tmp_path / f"gen_{run}"
        model = tmp_path / f"model_{run}"
        ev = tmp_path / f"eval_{run}"
        cli("gen", "--config", str(tmp_path / "gen.cfg"), "--out", str(gen))
        cli("train", "--corpus", str(gen / "corpus.manifest"),
            "--model-config", str(tmp_path / "model.cfg"),
            "--train-config", str(tmp_path / "train.cfg"),
            "--quiet", "--out", str(model))
        cli("eval", "--corpus", str(gen / "corpus.manifest"),
            "--model", str(model), "--context-delta", "--out", str(ev))
        outs[run] = {"gen": gen, "train": model, "eval": ev}

    diffs, compared = [], 0
    for stage, names in _PRIMARY_OUTPUTS.items():
        for name in names:
            compared += 1
            a = (outs["a"][stage] / name).read_bytes()
            b = (outs["b"][stage] / name).read_bytes()
            if a != b:
                diffs.append(f"{stage}/{name}")
    report(
        9,
        not diffs,
        f"gen/train/eval repeated with fixed seeds: {compared} primary output "
        f"files byte-identical"
        + ("" if not diffs else f", differing: {', '.join(diffs)}"),
    )


# -- 10: reference configurations ----------------------------------------------------


def test_10_reference_config_coverage():
    syn = generate_synthetic(SyntheticCorpusConfig(
        n_train_videos=6, n_test_videos=2, n_segments=5, n_events=8,
        feature_dim=5, seed=2,
    ))
    shared = dict(visual_dim=5, mlp_hidden=5, visual_out_dim=4, embed_dim=3,
                  lstm_hidden=4, joint_dim=4, sim_hidden=3)
    # squared-distance ranking over global context with endpoint features
    mcn = ModelConfig(context_mode="global", tef_mode="tef", similarity="distance",
                      loss="ranking", context_supervision="weak",
                      modalities=("rgb", "flow"), **shared)
    # alignment head over pre/post context, no endpoint features, scaled
    # log-logistic loss
    tall = ModelConfig(context_mode="before_after", tef_mode="none",
                       similarity="tall_sim", loss="tall",
                       context_supervision="weak", modalities=("rgb",), **shared)
    losses = {}
    for name, cfg in (("distance-ranking", mcn), ("tall-alignment", tall)):
        _, history = train(syn.train, cfg, TrainConfig(epochs=1, batch_size=4, lr=0.01, seed=1))
        losses[name] = history[-1]["loss"]
    ok = all(np.isfinite(v) for v in losses.values())
    report(
        10,
        ok,
        "reference configurations expressible via ModelConfig alone and train "
        "one epoch: " + ", ".join(f"{k} loss {v:.4f}" for k, v in losses.items()),
    )

