"""Shared test machinery: finite-difference gradient checks, an
independent plain-numpy scorer used as the exactness oracle, and the
per-score loss chain that the stacked training losses must equal.

The scorer is written straight from the math definitions (pool, MLP, LSTM,
endpoint features, the four similarities, max over contexts, late fusion) and
never calls into the package's tape; agreement must be bit-exact because both
sides execute the same canonical float64 expressions.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from momentloc import evaluation
from momentloc.temporal import Moment

RTOL = 1e-4
ATOL = 1e-8


def numeric_gradients(f, arrays, h=1e-6):
    """Central finite differences of scalar f with respect to every entry of
    every array (arrays are perturbed in place and restored)."""
    grads = [np.zeros_like(a) for a in arrays]
    for arr, grad in zip(arrays, grads):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), ATOL / RTOL)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def assert_gradients_close(analytic, numeric, what=""):
    err = max_relative_error(analytic, numeric)
    assert err < RTOL, f"gradient mismatch{' for ' + what if what else ''}: rel err {err:.3e}"


# -- independent scorer ------------------------------------------------------------


def np_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def np_encode_query(token_ids, arrays):
    w, u, b = arrays["lang.w"], arrays["lang.u"], arrays["lang.b"]
    hidden = u.shape[1]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for t in token_ids:
        x = arrays["lang.embed"][t]
        z = (w @ x + u @ h) + b
        gate_i = np_sigmoid(z[0:hidden])
        gate_f = np_sigmoid(z[hidden : 2 * hidden])
        gate_o = np_sigmoid(z[2 * hidden : 3 * hidden])
        cand = np.tanh(z[3 * hidden : 4 * hidden])
        c = gate_f * c + gate_i * cand
        h = gate_o * np.tanh(c)
    return arrays["lang.proj_w"] @ h + arrays["lang.proj_b"]


def _then(total, term):
    """`total + term`, or `term` when nothing was added before: the order in
    which a node's gradient writes accumulate."""
    return term if total is None else total + term


def np_encode_queries(token_lists, arrays, g_out, frozen_embed=False):
    """`encoders.encode_queries` over a padded, step-major batch and its
    backward from the output gradient `g_out`, in plain numpy: the stack and
    every parameter's gradient as `Parameter.grad` holds it after one sweep
    from zeros (None for a frozen `lang.embed`).

    It adds each gradient in the order the LSTM's composed tape ops (one
    node per slice, gate product, sum and select) added it: `U` and `b` from
    the last step to the first; the cell state before the first ended row
    as (select term + product term) + tanh term; every other state gets at
    most two terms. An entry that a partial read never wrote is +0.0, and
    one it wrote is 0.0 + its term."""
    embed, w, u, b = (arrays[k] for k in ("lang.embed", "lang.w", "lang.u", "lang.b"))
    proj_w, proj_b = arrays["lang.proj_w"], arrays["lang.proj_b"]
    hidden = u.shape[1]
    n = len(token_lists)
    lengths = np.array([len(ids) for ids in token_lists])
    tokens = np.zeros((lengths.max(), n), dtype=np.intp)
    for row, ids in enumerate(token_lists):
        tokens[: len(ids), row] = ids
    x = embed[tokens.ravel()]
    wx = (w[None] @ x[:, :, None])[:, :, 0] + 0.0
    zeros = np.zeros((n, hidden))
    h = c = zeros
    steps = []
    for t in range(lengths.max()):
        z = (wx[t * n : (t + 1) * n] + ((u[None] @ h[:, :, None])[:, :, 0] + 0.0)) + b
        sig, tnh = np_sigmoid(z), np.tanh(z)
        gate_i, gate_f, gate_o = (sig[:, k * hidden : (k + 1) * hidden] for k in range(3))
        cand = tnh[:, 3 * hidden :]
        c_new = gate_f * c + gate_i * cand
        tanh_c = np.tanh(c_new)
        h_new = gate_o * tanh_c
        keep = None if t < lengths.min() else (lengths > t)[:, None]
        steps.append((h, c, sig, tnh, tanh_c, keep))
        if keep is None:
            h, c = h_new, c_new
        else:
            h, c = np.where(keep, h_new, h), np.where(keep, c_new, c)
    stack = (proj_w[None] @ h[:, :, None])[:, :, 0] + proj_b
    grads = {"lang.proj_w": g_out.T @ h, "lang.proj_b": g_out.sum(axis=0)}
    dh, dc, du, db = g_out @ proj_w, None, None, None
    dwx = np.zeros_like(wx)
    for t in range(len(steps) - 1, -1, -1):
        h, c, sig, tnh, tanh_c, keep = steps[t]
        gate_i, gate_f, gate_o = (sig[:, k * hidden : (k + 1) * hidden] for k in range(3))
        cand = tnh[:, 3 * hidden :]
        dh_skip = dc_skip = None
        if keep is not None:  # an ended row's gradient goes past the step
            dh, dh_skip = np.where(keep, dh, 0.0), np.where(keep, 0.0, dh)
            if dc is not None:  # the final c fed nothing
                dc, dc_skip = np.where(keep, dc, 0.0), np.where(keep, 0.0, dc)
        dc = _then(dc, (dh * gate_o) * (1.0 - tanh_c * tanh_c))
        d_sig = np.hstack([dc * cand, dc * c, dh * tanh_c, zeros]) + 0.0
        d_tnh = np.hstack([np.zeros((n, 3 * hidden)), dc * gate_i]) + 0.0
        dz = d_tnh * (1.0 - tnh * tnh) + d_sig * sig * (1.0 - sig)
        db = _then(db, dz.sum(axis=0))
        du = _then(du, dz.T @ h)
        dwx[t * n : (t + 1) * n] += dz
        dh, dc = _then(dh_skip, dz @ u), _then(dc_skip, dc * gate_f)
    grads.update({"lang.u": du, "lang.b": db, "lang.w": dwx.T @ x})
    if not frozen_embed:
        grads["lang.embed"] = np.zeros_like(embed)
        np.add.at(grads["lang.embed"], tokens.ravel(), dwx @ w)
    grads = {k: g + 0.0 for k, g in grads.items()}
    if frozen_embed:
        grads["lang.embed"] = None
    return stack, grads


def np_l2_normalize(v, eps=1e-8):
    norm = float(np.sqrt(np.dot(v, v)))
    return v / max(norm, eps)


def _np_mlp(x, arrays, prefix):
    h = np.maximum(arrays[f"{prefix}.w1"] @ x + arrays[f"{prefix}.b1"], 0.0)
    return arrays[f"{prefix}.w2"] @ h + arrays[f"{prefix}.b2"]


def np_tef_block(base: Moment, slots, n, tef_mode):
    if tef_mode == "none":
        return np.zeros(0)
    flat = [base.start_seg / n, (base.end_seg + 1) / n]
    if tef_mode == "contef":
        for m in slots:
            if m is None:
                flat.extend((-1.0, -1.0))
            else:
                flat.extend((m.start_seg / n, (m.end_seg + 1) / n))
    return np.array(flat)


def np_score(video, token_ids, base: Moment, contexts, cfg, arrays):
    """Exhaustive per-context scoring: per modality score every context, take
    the max, then late-fuse the maxima. Returns (score, chosen_index)."""
    n = next(iter(video.values())).n_segments
    fl = np_encode_query(token_ids, arrays)
    if len(cfg.modalities) == 1:
        weights = {cfg.modalities[0]: 1.0}
    else:
        weights = {
            cfg.modalities[0]: cfg.fusion_lambda,
            cfg.modalities[1]: 1.0 - cfg.fusion_lambda,
        }
    fused_score = None
    fused_per_ctx = np.zeros(len(contexts))
    for mod in cfg.modalities:
        table = video[mod]
        fl_ready = np_l2_normalize(fl) if cfg.similarity == "normalized_mult" else fl
        base_vec = table.features[base.start_seg : base.end_seg + 1].mean(axis=0)
        base_out = _np_mlp(base_vec, arrays, f"{mod}.base")
        sims = []
        for ctx in contexts:
            parts = [
                np.zeros(table.dim)
                if m is None
                else table.features[m.start_seg : m.end_seg + 1].mean(axis=0)
                for m in ctx.slots
            ]
            ctx_out = _np_mlp(np.concatenate(parts), arrays, f"{mod}.ctx")
            pieces = [base_out, ctx_out]
            block = np_tef_block(base, ctx.slots, n, cfg.tef_mode)
            if block.size:
                pieces.append(block)
            fv = arrays[f"{mod}.proj_w"] @ np.concatenate(pieces) + arrays[f"{mod}.proj_b"]
            if cfg.similarity == "distance":
                diff = fv - fl_ready
                sims.append(np.dot(diff, diff) * -1.0)
                continue
            if cfg.similarity == "normalized_mult":
                x = np_l2_normalize(fv) * fl_ready
            elif cfg.similarity == "mult":
                x = fv * fl_ready
            else:  # tall_sim
                x = np.concatenate([fv, fl_ready, fv * fl_ready, fv + fl_ready])
            hid = np.maximum(arrays[f"{mod}.sim.w1"] @ x + arrays[f"{mod}.sim.b1"], 0.0)
            sims.append(arrays[f"{mod}.sim.w2"] @ hid + arrays[f"{mod}.sim.b2"])
        sims = [float(s) for s in sims]
        best = sims[int(np.argmax(sims))]
        weighted = weights[mod] * best
        fused_score = weighted if fused_score is None else fused_score + weighted
        fused_per_ctx += weights[mod] * np.array(sims)
    return float(fused_score), int(np.argmax(fused_per_ctx))


# -- per-score loss chain -----------------------------------------------------------
#
# The training losses as a chain of scalar tape ops, one node per score and
# per hinge: the reference that the stacked `model.ranking_loss` and
# `model.log_logistic_loss` must equal bit for bit.


def chain_mean(tape, nodes):
    total = nodes[0]
    for n in nodes[1:]:
        total = tape.add(total, n)
    return tape.scale(total, 1.0 / len(nodes))


def chain_ranking_loss(tape, positive, intra, inter, margin):
    """Hinge ranking loss: negatives are averaged within each class
    (intra-video, inter-video) and the class means are summed."""
    if not intra and not inter:
        raise ValueError("ranking loss needs at least one negative")
    class_means = []
    margin_node = tape.constant(margin)
    for group in (intra, inter):
        if not group:
            continue
        hinges = [tape.relu(tape.add(margin_node, tape.sub(neg, positive))) for neg in group]
        class_means.append(chain_mean(tape, hinges))
    total = class_means[0]
    for extra in class_means[1:]:
        total = tape.add(total, extra)
    return total


def chain_log_logistic_loss(tape, positives, negatives, alpha_c, alpha_w):
    """alpha_c * mean(softplus(-s_pos)) + alpha_w * mean(softplus(s_neg))."""
    if not positives:
        raise ValueError("log-logistic loss needs at least one positive score")
    loss = tape.scale(chain_mean(tape, [tape.softplus(tape.scale(p, -1.0)) for p in positives]), alpha_c)
    if negatives:
        loss = tape.add(loss, tape.scale(chain_mean(tape, [tape.softplus(n) for n in negatives]), alpha_w))
    return loss


def chain_batch_loss(tape, scored, cfg):
    """`trainer.batch_loss` as the per-score chain: one `take_row` node per
    score of each `ExampleScores`, then the scalar losses above."""
    def nodes(s, at):
        return [tape.take_row(s.scores, i) for i in at]

    per_example = [(nodes(s, [s.positive])[0], nodes(s, s.intra), nodes(s, s.inter)) for s in scored]
    if cfg.loss == "ranking":
        return chain_mean(tape, [chain_ranking_loss(tape, p, intra, inter, cfg.margin)
                                 for p, intra, inter in per_example])
    return chain_log_logistic_loss(tape, [p for p, _, _ in per_example],
                                   [n for _, intra, _ in per_example for n in intra],
                                   cfg.tall_alpha_c, cfg.tall_alpha_w)


def tiny_model_config(**overrides):
    from momentloc.model import ModelConfig

    base = dict(
        context_mode="latent",
        tef_mode="contef",
        similarity="normalized_mult",
        loss="ranking",
        context_supervision="weak",
        modalities=("rgb",),
        visual_dim=3,
        mlp_hidden=3,
        visual_out_dim=2,
        embed_dim=2,
        lstm_hidden=3,
        joint_dim=3,
        sim_hidden=2,
        vocab_size=5,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_video(rng, n_segments=3, dim=3, modalities=("rgb",), video_id="v0"):
    from momentloc.encoders import SegmentFeatureTable

    return {
        mod: SegmentFeatureTable(video_id, mod, rng.normal(size=(n_segments, dim)))
        for mod in modalities
    }


def count_rank_calls(monkeypatch) -> list[str]:
    """Patch evaluation.rank_moments to record the query sentence of every call."""
    calls = []
    original = evaluation.rank_moments

    def counted(video, query, *args, **kwargs):
        calls.append(query.sentence)
        return original(video, query, *args, **kwargs)

    monkeypatch.setattr(evaluation, "rank_moments", counted)
    return calls


def moments_in(lo: int, hi: int):
    """Hypothesis strategy: moments with lo <= start_seg <= end_seg <= hi."""
    return st.integers(lo, hi).flatmap(
        lambda s: st.integers(s, hi).map(lambda e: Moment(s, e))
    )
