"""Independent checks of momentloc's outputs.

Nothing here calls the package's autodiff tape or its metric code. The scorer
re-derives a moment's score from the model's definition with plain numpy:
mean-pool the base moment and each context slot, run the base and context
MLPs, append the endpoint features, project into the joint space, apply the
similarity head, take the max over candidate contexts per modality and
late-fuse the maxima. It scores all candidate contexts of a moment as one
matrix, so its rounding differs from the package's per-pair vectors; scores
are compared within a relative tolerance, not bit for bit.

R@1, R@5, mIoU and the two context analyses are recomputed by brute force
from the rankings and the annotations. Every check returns a list of failure
messages, empty when the output is correct.
"""

from __future__ import annotations

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
NORMALIZE_EPS = 1e-8
ANALYSED_WORDS = ("before", "after")


def close(a: float, b: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# -- moments and contexts, as (start, end) tuples ---------------------------------


def span(moment) -> tuple[int, int]:
    return (moment.start_seg, moment.end_seg)


def slots_of(context) -> tuple:
    return tuple(None if m is None else span(m) for m in context.slots)


def all_moments(n: int) -> list[tuple[int, int]]:
    return [(s, e) for s in range(n) for e in range(s, n)]


def candidate_contexts(mode: str, base: tuple[int, int], n: int) -> list[tuple]:
    """The contexts the model must maximise over, as tuples of slots."""
    if mode == "global":
        return [((0, n - 1),)]
    if mode == "latent":
        return [(m,) for m in all_moments(n)]
    if mode == "before_after":
        before = (0, base[0] - 1) if base[0] > 0 else None
        after = (base[1] + 1, n - 1) if base[1] < n - 1 else None
        return [(before, after)]
    raise ValueError(f"unknown context mode {mode!r}")


def fit_context(slots: tuple, n_slots: int) -> tuple:
    """An annotated single-region context in a one-slot configuration."""
    if len(slots) == n_slots:
        return slots
    regions = [r for r in slots if r is not None]
    if n_slots == 1 and len(regions) == 1:
        return (regions[0],)
    raise ValueError(f"context {slots} does not fit {n_slots} slots")


def segments(slots_or_moment) -> frozenset[int]:
    regions = [slots_or_moment] if isinstance(slots_or_moment[0], int) else slots_or_moment
    return frozenset(s for r in regions if r is not None for s in range(r[0], r[1] + 1))


def set_iou(a: frozenset[int], b: frozenset[int]) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


# -- scorer -------------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _mlp(x: np.ndarray, arrays: dict, prefix: str) -> np.ndarray:
    """Two-layer MLP applied to each row of x (or to one vector)."""
    hidden = np.maximum(x @ arrays[f"{prefix}.w1"].T + arrays[f"{prefix}.b1"], 0.0)
    return hidden @ arrays[f"{prefix}.w2"].T + arrays[f"{prefix}.b2"]


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
    return x / np.maximum(norms, NORMALIZE_EPS)


class Scorer:
    """The model's forward pass for one set of trained parameters.

    `config` is any object with the model configuration fields; `arrays`
    maps parameter names to their values.
    """

    def __init__(self, config, arrays: dict):
        self.cfg = config
        self.arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
        mods = tuple(config.modalities)
        lam = config.fusion_lambda
        self.weights = {mods[0]: 1.0} if len(mods) == 1 else {mods[0]: lam, mods[1]: 1.0 - lam}

    def encode(self, token_ids) -> np.ndarray:
        """Final LSTM state projected into the joint space; the gates are
        stacked input, forget, output, cell."""
        a = self.arrays
        hidden = a["lang.u"].shape[1]
        h = np.zeros(hidden)
        c = np.zeros(hidden)
        for t in token_ids:
            z = a["lang.w"] @ a["lang.embed"][t] + a["lang.u"] @ h + a["lang.b"]
            i, f, o = (_sigmoid(z[k * hidden : (k + 1) * hidden]) for k in range(3))
            c = f * c + i * np.tanh(z[3 * hidden :])
            h = o * np.tanh(c)
        return a["lang.proj_w"] @ h + a["lang.proj_b"]

    def _pool(self, feats: np.ndarray, region) -> np.ndarray:
        if region is None:
            return np.zeros(feats.shape[1])
        return feats[region[0] : region[1] + 1].mean(axis=0)

    def _tef(self, base, slots, n: int) -> list[float]:
        mode = self.cfg.tef_mode
        if mode == "none":
            return []
        out = [base[0] / n, (base[1] + 1) / n]
        if mode == "contef":
            for r in slots:
                out += [-1.0, -1.0] if r is None else [r[0] / n, (r[1] + 1) / n]
        return out

    def per_context(self, feats: dict, fl: np.ndarray, base, contexts) -> dict:
        """Similarity of every candidate context, per modality."""
        a, cfg = self.arrays, self.cfg
        out = {}
        for m in cfg.modalities:
            table = feats[m]
            n = table.shape[0]
            base_out = _mlp(self._pool(table, base), a, f"{m}.base")
            pooled = np.array([np.concatenate([self._pool(table, r) for r in c]) for c in contexts])
            ctx_out = _mlp(pooled, a, f"{m}.ctx")
            tefs = np.array([self._tef(base, c, n) for c in contexts]).reshape(len(contexts), -1)
            rows = np.hstack([np.tile(base_out, (len(contexts), 1)), ctx_out, tefs])
            fv = rows @ a[f"{m}.proj_w"].T + a[f"{m}.proj_b"]
            kind = cfg.similarity
            if kind == "distance":
                out[m] = -np.sum((fv - fl) ** 2, axis=1)
                continue
            if kind == "normalized_mult":
                x = _normalize_rows(fv) * _normalize_rows(fl)
            elif kind == "mult":
                x = fv * fl
            elif kind == "tall_sim":
                lang = np.tile(fl, (len(contexts), 1))
                x = np.hstack([fv, lang, fv * lang, fv + lang])
            else:
                raise ValueError(f"unknown similarity {kind!r}")
            hidden = np.maximum(x @ a[f"{m}.sim.w1"].T + a[f"{m}.sim.b1"], 0.0)
            out[m] = hidden @ a[f"{m}.sim.w2"] + a[f"{m}.sim.b2"]
        return out

    def score(self, feats: dict, fl: np.ndarray, base, contexts) -> tuple[float, np.ndarray]:
        """Late fusion of the per-modality maxima, and the fused score of
        each candidate context (the chosen context maximises the latter)."""
        sims = self.per_context(feats, fl, base, contexts)
        fused = sum(self.weights[m] * float(np.max(s)) for m, s in sims.items())
        per_ctx = sum(self.weights[m] * s for m, s in sims.items())
        return fused, per_ctx


# -- rankings ---------------------------------------------------------------------------


def check_order(ranking, n: int) -> list[str]:
    """A ranking holds each of the n(n+1)/2 moments once, by descending score."""
    got = [span(s.moment) for s in ranking]
    failures = []
    if len(got) != n * (n + 1) // 2 or sorted(got) != all_moments(n):
        failures.append(f"ranking is not a permutation of the {n * (n + 1) // 2} moments")
    scores = [s.score for s in ranking]
    if any(b > a for a, b in zip(scores, scores[1:])):
        failures.append("ranking is not sorted by descending score")
    return failures


def check_scores(scorer: Scorer, feats: dict, fl: np.ndarray, ranking, contexts_for) -> list[str]:
    """Each score matches the independent scorer, and each chosen context is
    a candidate whose fused score attains the max. `contexts_for(base)`
    returns the candidate contexts of a base moment."""
    failures = []
    for s in ranking:
        base = span(s.moment)
        contexts = contexts_for(base)
        want, per_ctx = scorer.score(feats, fl, base, contexts)
        if not close(s.score, want):
            failures.append(f"moment {base}: score {s.score!r}, independent scorer {want!r}")
        chosen = slots_of(s.chosen_context)
        if chosen not in contexts:
            failures.append(f"moment {base}: chosen context {chosen} is not a candidate")
            continue
        top = float(np.max(per_ctx))
        if not close(float(per_ctx[contexts.index(chosen)]), top):
            failures.append(f"moment {base}: chosen context {chosen} does not attain the max")
    return failures


# -- metrics ------------------------------------------------------------------------------


def _bucket(rows) -> dict:
    """rows: (ranked moments, ground-truth moment) pairs of one bucket."""
    r1 = sum(ranked[0] == gt for ranked, gt in rows)
    r5 = sum(gt in ranked[:5] for ranked, gt in rows)
    miou = sum(set_iou(segments(ranked[0]), segments(gt)) for ranked, gt in rows)
    n = len(rows)
    return {"r_at_1": r1 / n, "r_at_5": r5 / n, "miou": miou / n, "count": n}


def metrics_report(rows) -> dict:
    """rows: (temporal word, ranked moments, ground-truth moment) per query.
    Buckets per word; the average weighs every bucket equally."""
    by_word: dict[str, list] = {}
    for word, ranked, gt in rows:
        by_word.setdefault(word, []).append((ranked, gt))
    buckets = {w: _bucket(r) for w, r in by_word.items()}
    average = {
        k: sum(b[k] for b in buckets.values()) / len(buckets)
        for k in ("r_at_1", "r_at_5", "miou")
    }
    average["count"] = sum(b["count"] for b in buckets.values())
    return {"buckets": buckets, "average": average}


def check_report(got: dict, want: dict, what: str) -> list[str]:
    """A reported metrics dict equals the recomputation, with R@1 <= R@5."""
    failures = [f"{what}: {msg}" for msg in diff(got, want)]
    for name, bucket in [("average", got.get("average", {}))] + list(got.get("buckets", {}).items()):
        if bucket.get("r_at_1", 0.0) > bucket.get("r_at_5", 1.0):
            failures.append(f"{what}: {name} has R@1 > R@5")
    return failures


def diff(got, want, path: str = "") -> list[str]:
    """Differences between two nested dicts; floats within tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or 'root'}: keys {sorted(got) if isinstance(got, dict) else got} "
                    f"!= {sorted(want)}"]
        return [m for k in sorted(want) for m in diff(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        return [] if close(float(got), want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def expected_delta(queries, latent, fragment) -> dict:
    """context_conditioned_delta from rankings. `latent[i]` ranks query i's
    sentence, `fragment[i]` its context fragment (ranked moment lists)."""
    rows = {w: {"all": [], "subset": []} for w in ANALYSED_WORDS}
    excluded = 0
    for i, q in enumerate(queries):
        if q.temporal_word not in ANALYSED_WORDS:
            continue
        if q.context is None or q.context_sentence is None or len(q.context.regions) != 1:
            excluded += 1
            continue
        row = (latent[i], span(q.moment))
        rows[q.temporal_word]["all"].append(row)
        if fragment[i][0] == span(q.context.regions[0]):
            rows[q.temporal_word]["subset"].append(row)
    out: dict = {}
    for w in ANALYSED_WORDS:
        if not rows[w]["all"] or not rows[w]["subset"]:
            out[w] = None
            continue
        full, cond = _bucket(rows[w]["all"]), _bucket(rows[w]["subset"])
        out[w] = {
            "full": full,
            "context_found": cond,
            "delta_r_at_1": cond["r_at_1"] - full["r_at_1"],
            "delta_miou": cond["miou"] - full["miou"],
        }
    out["excluded"] = excluded
    return out


def expected_fragment_eval(queries, latent_chosen, fragment) -> dict:
    """context_fragment_eval from rankings. `latent_chosen[i]` is the chosen
    context (slots) of the rank-1 moment of query i's sentence."""
    frag = {w: [] for w in ANALYSED_WORDS}
    chosen = {w: [] for w in ANALYSED_WORDS}
    excluded = 0
    for i, q in enumerate(queries):
        if q.temporal_word not in ANALYSED_WORDS:
            continue
        if q.context is None or q.context_sentence is None:
            excluded += 1
            continue
        gt = segments(slots_of(q.context))
        top = segments(fragment[i][0])
        frag[q.temporal_word].append((float(top == gt), set_iou(top, gt)))
        pred = segments(latent_chosen[i])
        chosen[q.temporal_word].append((float(pred == gt), set_iou(pred, gt)))

    def summary(rows):
        return {
            w: {"r_at_1": sum(v[0] for v in vals) / len(vals),
                "miou": sum(v[1] for v in vals) / len(vals),
                "count": len(vals)}
            for w, vals in rows.items() if vals
        }

    return {"fragment_as_query": summary(frag), "chosen_context": summary(chosen),
            "excluded": excluded}
