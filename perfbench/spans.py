"""Timing spans around momentloc's public functions, recorded from outside.

`Tracer.install()` replaces each traced function on every loaded momentloc
module that binds it (a function imported by name into another module is
bound there too) with a wrapper that records a span: name, start, end and
parent span. Spans stay in memory until `write()`. A few wrappers also
count work where it happens: candidate contexts per score, visual vectors
found in the scorer's cache, tape nodes per training query and ranking calls.

Counters are kept per phase; the benchmark names its first unit of each phase
(`train.first`, `eval.first`, `analysis.first`) so that the counts come from
the same work on every run, however long the run is.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) -> span name; score_base and rank_moments get a suffix.
TRACED = (
    ("dataset", "generate_synthetic", "dataset.generate"),
    ("dataset", "save_corpus", "dataset.save_corpus"),
    ("dataset", "load_corpus", "dataset.load_corpus"),
    ("encoders", "encode_query", "encoders.encode_query"),
    ("trainer", "sample_negatives", "trainer.sample_negatives"),
    ("trainer", "example_scores", "trainer.example_scores"),
    ("trainer", "batch_loss", "trainer.batch_loss"),
    ("model", "score_base", "model.score_base"),
    ("autodiff", "backward", "autodiff.backward"),
    ("autodiff", "sgd_step", "autodiff.sgd_step"),
    ("evaluation", "rank_moments", "evaluation.rank_moments"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.phase = "setup"
        self.enabled = True
        self._stack: list[int] = []
        self._batch_examples = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def count(self, key: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counts[self.phase][key] += value

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        for mod_name in ("cli",) + tuple(m for m, _, _ in TRACED):
            importlib.import_module(f"momentloc.{mod_name}")
        modules = [m for name, m in sys.modules.items()
                   if name == "momentloc" or name.startswith("momentloc.")]
        for mod_name, func_name, span_name in TRACED:
            original = getattr(sys.modules[f"momentloc.{mod_name}"], func_name)
            wrapper = self._wrapper(original, span_name)
            for mod in modules:
                if getattr(mod, func_name, None) is original:
                    setattr(mod, func_name, wrapper)

    def _wrapper(self, original, span_name: str):
        hook = getattr(self, "_on_" + span_name.split(".", 1)[1], None)

        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            name = span_name
            after = None
            if hook is not None:
                name, after = hook(span_name, args, kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return traced

    # -- counters ------------------------------------------------------------------

    def _on_score_base(self, name, args, kwargs):
        tape, cache, _video, _fl, _base, contexts, cfg, _params = args
        requested = len(contexts) * len(cfg.modalities)
        self.count("score_calls")
        self.count("contexts", requested)
        before = None if cache is None else len(cache)

        def after(_result):
            if before is None:
                return
            new_keys = itertools.islice(reversed(cache), len(cache) - before)
            misses = sum(1 for k in new_keys if isinstance(k, tuple) and k[:1] == ("fv",))
            self.count("fv_requested", requested)
            self.count("fv_hits", requested - misses)

        return f"{name}[{'train' if tape.recording else 'eval'}]", after

    def _on_batch_loss(self, name, args, kwargs):
        self._batch_examples = len(args[1])
        return name, None

    def _on_backward(self, name, args, kwargs):
        self.count("tape_nodes", len(args[0].nodes))
        self.count("train_examples", self._batch_examples)
        return name, None

    def _on_rank_moments(self, name, args, kwargs):
        self.count("rank_calls")
        warm = kwargs.get("tape", args[4] if len(args) > 4 else None) is not None
        return f"{name}[{'warm' if warm else 'cold'}]", None

    # -- results ---------------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (the span's
        duration minus the time its child spans cover)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(out)

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["spans"] = self.spans
        doc["totals"] = self.totals()
        doc["counts"] = {phase: dict(c) for phase, c in self.counts.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
