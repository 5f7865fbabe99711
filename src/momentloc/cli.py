"""Command-line driver.

Subcommands: gen (synthetic corpus or template composition), train, eval,
ablate (config grid), inspect (per-query ranking view), stats (temporal word
counts). `main` owns the run record: it creates `--out`, deletes any
`manifest.json` there, runs the command, and, when the command returns its
`(inputs, outputs)`, writes a `timing.json` with the wall-clock time and then
a `manifest.json` describing them. The timing is kept apart so the primary
outputs of identical runs are byte-identical, and the manifest comes last, so
a directory without one holds an incomplete or failed run. `inspect`, and
`stats` without `--out`, write nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

import numpy as np

from . import __version__, configio, dataset, evaluation, trainer
from .encoders import load_embeddings
from .model import ModelConfig, load_model, save_model
from .temporal import Moment

# What an artifact-writing command returns: its manifest inputs and outputs.
Record = tuple[dict, list[str]] | None


def _config(cls, path: str | None, **overrides):
    """`cls` from the flat config file at `path` (defaults without one), with
    the overrides that are not None applied on top."""
    mapping = configio.load_config_file(path) if path else {}
    mapping.update((k, str(v)) for k, v in overrides.items() if v is not None)
    return configio.dataclass_from_mapping(cls, mapping, path or "defaults")


def cmd_gen(args: argparse.Namespace) -> Record:
    if args.compose:
        ignored = [flag for flag, given in (("--config", args.config), ("--seed", args.seed))
                   if given is not None]
        if ignored:
            raise ValueError(f"--compose cannot be combined with {' or '.join(ignored)}")
        bases = [dataset.BaseAnnotation(q.video_id, q.sentence, q.moment)
                 for q in dataset.load_annotations(args.compose)]
        queries = dataset.generate_template_queries(bases)
        out_path = os.path.join(args.out, "queries_composed.json")
        dataset.save_annotations(out_path, queries)
        counts = dataset.word_stats(q.sentence for q in queries)
        configio.write_json(os.path.join(args.out, "stats.json"), {"schema": 1, "word_counts": counts})
        print(f"composed {len(queries)} queries -> {out_path}")
        return {"compose": args.compose}, ["queries_composed.json", "stats.json"]
    cfg = _config(dataset.SyntheticCorpusConfig, args.config, seed=args.seed)
    synthetic = dataset.generate_synthetic(cfg)
    manifest_path = dataset.save_corpus(args.out, synthetic)
    print(f"generated {len(synthetic.train.queries)} train / "
          f"{len(synthetic.test.queries)} test queries -> {manifest_path}")
    return {"config": args.config, "seed": cfg.seed}, dataset.corpus_files(manifest_path)


def _resume(args: argparse.Namespace, vocab, embedding):
    """The saved model and history that `--resume` continues. A model trained
    with `--embeddings` resumes only with the same file."""
    if args.model_config:
        raise ValueError("--model-config cannot be combined with --resume")
    prev = load_model(args.resume)
    manifest = os.path.join(args.resume, "manifest.json")
    doc = configio.read_json(manifest) if os.path.exists(manifest) else {}
    inputs = doc.get("inputs", {}) if isinstance(doc, dict) else None
    if not isinstance(inputs, dict):
        raise ValueError(f"{manifest}: expected a JSON object whose 'inputs' is an object")
    if inputs.get("embeddings") and embedding is None:
        raise ValueError(f"{manifest} names the embeddings input {inputs['embeddings']}; pass --embeddings")
    if embedding is not None:
        same = np.array_equal(embedding, prev.params["lang.embed"].value)
        if not same or vocab.tokens != prev.vocab.tokens:
            raise ValueError(f"{args.embeddings} does not match the vocab.json and "
                             f"checkpoint.bin lang.embed in {args.resume}")
    return prev, trainer.load_history(os.path.join(args.resume, "history.csv"))


def cmd_train(args: argparse.Namespace) -> Record:
    corpus = dataset.load_corpus(args.corpus, split=args.split)
    train_cfg = _config(trainer.TrainConfig, args.train_config, seed=args.seed)
    vocab, embedding = load_embeddings(args.embeddings) if args.embeddings else (None, None)
    init, done = None, []
    if args.resume:
        prev, done = _resume(args, vocab, embedding)
        model_cfg, init, vocab = prev.config, prev.params, prev.vocab
    else:
        model_cfg = _config(ModelConfig, args.model_config,
                            embed_dim=None if embedding is None else embedding.shape[1])
    log = None if args.quiet else lambda line: print(line, flush=True)
    bundle, new = trainer.train(
        corpus, model_cfg, train_cfg,
        vocab=vocab, init=init, start_epoch=len(done), embedding=embedding, log=log,
    )
    history = done + new
    save_model(args.out, bundle)
    trainer.save_history(os.path.join(args.out, "history.csv"), history)
    final = history[-1]["loss"] if history else float("nan")
    print(f"trained {len(new)} epochs, final loss {final:.6f} -> {args.out}")
    inputs = {"corpus": args.corpus, "split": args.split, "model_config": args.model_config,
              "train_config": args.train_config, "seed": train_cfg.seed, "resume": args.resume,
              "embeddings": args.embeddings}
    return inputs, ["checkpoint.bin", "model.cfg", "vocab.json", "history.csv"]


def _write_report(out: str, stem: str, rows: list[tuple[str, evaluation.MetricsReport]],
                  **fields) -> list[str]:
    """Write `stem`.json, the labelled reports of `rows` beside `fields`, and
    `stem`.txt, their comparison table, into `out`; print the table and
    return the two file names."""
    table = evaluation.format_comparison_table(rows)
    configio.write_json(os.path.join(out, f"{stem}.json"), {
        "schema": 1, **fields,
        "rows": [{"label": label, "report": rep.to_dict()} for label, rep in rows],
    })
    with configio.atomic_open(os.path.join(out, f"{stem}.txt")) as fh:
        fh.write(table)
    print(table, end="")
    return [f"{stem}.json", f"{stem}.txt"]


def cmd_eval(args: argparse.Namespace) -> Record:
    corpus = dataset.load_corpus(args.corpus, split=args.split)
    bundle = load_model(args.model)
    trainer.check_corpus(corpus, bundle.config)
    wanted = [key for key, on in (("context_conditioned_delta", args.context_delta),
                                  ("context_fragment_eval", args.fragment_eval)) if on]
    report, analyses = evaluation.evaluate_with_analyses(
        corpus, bundle, args.mode, evaluation.ANALYSED_WORDS if wanted else ())
    rows = [(f"model[{args.mode}]", report)]
    if args.baseline_prior:
        train_split = dataset.load_corpus(args.corpus, split="train")
        prior = evaluation.FrequencyPrior.fit(train_split.queries)
        rows.append(("frequency_prior", prior.evaluate(corpus)))
    outputs = _write_report(args.out, "metrics", rows, split=args.split, mode=args.mode,
                            **{key: analyses[key] for key in wanted})
    inputs = {"corpus": args.corpus, "model": args.model, "split": args.split, "mode": args.mode}
    return inputs, outputs


def cmd_ablate(args: argparse.Namespace) -> Record:
    grid = configio.load_config_file(args.grid)
    if "cells" not in grid:
        raise ValueError(f"{args.grid}: grid file needs a 'cells' key")
    cells = [c.strip() for c in grid.pop("cells").split(",")]
    if cells == [""]:
        raise ValueError(f"{args.grid}: empty cell list")
    for i, cell in enumerate(cells):
        # each name becomes a directory under cells/
        if cell in ("", ".", "..") or os.path.basename(cell) != cell:
            raise ValueError(f"{args.grid}: cell name {cell!r} is not a plain path component")
        if cell in cells[:i]:
            raise ValueError(f"{args.grid}: cell name {cell!r} is listed twice")
    overrides: dict[str, dict[str, str]] = {c: {} for c in cells}
    shared: dict[str, str] = {}
    for key, value in grid.items():
        if "." in key and key.split(".", 1)[0] in overrides:
            cell, field = key.split(".", 1)
            overrides[cell][field] = value
        else:
            shared[key] = value
    train_cfg = _config(trainer.TrainConfig, args.train_config, seed=args.seed)
    train_split = dataset.load_corpus(args.corpus, split="train")
    eval_split = dataset.load_corpus(args.corpus, split=args.split)
    rows = []
    for cell in cells:
        try:
            cfg = configio.dataclass_from_mapping(ModelConfig, {**shared, **overrides[cell]},
                                                  f"{args.grid}: cell {cell}")
            bundle, history = trainer.train(train_split, cfg, train_cfg, log=None)
            cell_dir = os.path.join(args.out, "cells", cell)
            save_model(cell_dir, bundle)
            trainer.save_history(os.path.join(cell_dir, "history.csv"), history)
            rows.append((cell, evaluation.evaluate(eval_split, bundle)))
        except Exception as exc:
            raise RuntimeError(f"ablation cell {cell!r} failed: {exc}") from exc
    outputs = _write_report(args.out, "ablation", rows, split=args.split, seed=train_cfg.seed)
    inputs = {"corpus": args.corpus, "grid": args.grid, "train_config": args.train_config,
              "seed": train_cfg.seed, "split": args.split}
    return inputs, outputs + [f"cells/{c}" for c in cells]


def _timeline(n: int, base: Moment, ctx_segments: frozenset[int]) -> str:
    chars = []
    for s in range(n):
        in_base = base.start_seg <= s <= base.end_seg
        in_ctx = s in ctx_segments
        chars.append("◆" if in_base and in_ctx else "■" if in_base else "▲" if in_ctx else "·")
    return "".join(chars)


def cmd_inspect(args: argparse.Namespace) -> Record:
    if args.top < 1:
        raise ValueError(f"--top must be at least 1, got {args.top}")
    corpus = dataset.load_corpus(args.corpus, split=args.split)
    bundle = load_model(args.model)
    trainer.check_corpus(corpus, bundle.config)
    if not 0 <= args.query < len(corpus.queries):
        raise ValueError(
            f"query index {args.query} out of range; split {args.split!r} has "
            f"{len(corpus.queries)} queries"
        )
    query = corpus.queries[args.query]
    video = corpus.features[query.video_id]
    n = corpus.n_segments(query.video_id)
    ranking = evaluation.rank_moments(video, query, bundle, mode=args.mode)
    lines = [
        f"query {args.query} ({args.split}): {query.sentence!r}",
        f"video {query.video_id} ({n} segments), temporal word: {query.temporal_word}",
        f"ground truth: segments [{query.moment.start_seg}, {query.moment.end_seg}]"
        f"  {_timeline(n, query.moment, query.context.segment_set() if query.context else frozenset())}",
    ]
    if args.mode == "gt_context" and query.context is None:
        lines.append("no stored context: ranked with latent contexts")
    lines += ["", "rank  score        moment    context            base=■ ctx=▲ both=◆"]
    for rank, sm in enumerate(ranking[: args.top], start=1):
        regions = ",".join(
            f"[{r.start_seg},{r.end_seg}]" for r in sm.chosen_context.regions
        ) or "(padded)"
        lines.append(
            f"{rank:>4}  {sm.score:+.6f}  [{sm.moment.start_seg},{sm.moment.end_seg}]"
            f"{'':6}{regions:<18} {_timeline(n, sm.moment, sm.chosen_context.segment_set())}"
        )
    print("\n".join(lines))


def cmd_stats(args: argparse.Namespace) -> Record:
    queries = dataset.load_annotations(args.annotations)
    counts = dataset.word_stats(q.sentence for q in queries)
    width = max(len(w) for w in counts)
    for word, count in counts.items():
        print(f"{word:<{width}}  {count}")
    print(f"{'total queries':<{width}}  {len(queries)}")
    if not args.out:
        return None
    configio.write_json(
        os.path.join(args.out, "stats.json"),
        {"schema": 1, "word_counts": counts, "total_queries": len(queries)},
    )
    return {"annotations": args.annotations}, ["stats.json"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentloc",
        description="Localize natural-language moments in segmented videos.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus or compose template queries")
    p.add_argument("--config", help="flat key=value synthetic corpus config")
    p.add_argument("--compose", metavar="ANNOTATIONS",
                   help="compose temporal queries from base annotations instead")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a model on a corpus split")
    p.add_argument("--corpus", required=True, help="corpus manifest path")
    p.add_argument("--split", default="train")
    p.add_argument("--model-config", help="flat key=value model config")
    p.add_argument("--train-config", help="flat key=value training config")
    p.add_argument("--embeddings", help="pretrained token embedding file (frozen)")
    p.add_argument("--resume", metavar="MODEL_DIR",
                   help="continue a saved model from the epoch after the last row of its history.csv")
    p.add_argument("--seed", type=int, default=None, help="override the training seed")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True, help="directory written by train")
    p.add_argument("--split", default="test")
    p.add_argument("--mode", choices=evaluation.EVAL_MODES, default="latent")
    p.add_argument("--baseline-prior", action="store_true",
                   help="add a train-split frequency prior row")
    p.add_argument("--context-delta", action="store_true",
                   help="context-conditioned metric deltas")
    p.add_argument("--fragment-eval", action="store_true",
                   help="context fragment localization analysis")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate a grid of model configs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--grid", required=True, help="grid config: cells = a,b + cell.key overrides")
    p.add_argument("--train-config")
    p.add_argument("--split", default="test")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("inspect", help="show the ranked moments for one query")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--query", type=int, required=True, help="query index within the split")
    p.add_argument("--mode", choices=evaluation.EVAL_MODES, default="latent")
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("stats", help="temporal word counts over an annotation file")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", help="also write stats.json and the run record here")
    p.set_defaults(fn=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    out = getattr(args, "out", None)
    try:
        if out:
            for flag in ("resume", "model"):
                given = getattr(args, flag, None)
                if given and os.path.realpath(given) == os.path.realpath(out):
                    raise ValueError(f"--out must differ from --{flag}, whose manifest this run would replace")
            os.makedirs(out, exist_ok=True)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(out, "manifest.json"))
        record = args.fn(args)
        if record is not None:
            inputs, outputs = record
            configio.write_json(os.path.join(out, "timing.json"),
                                {"schema": 1, "wall_seconds": time.monotonic() - started})
            manifest = {"schema": 1, "command": args.command, "inputs": inputs,
                        "outputs": sorted(outputs), "version": __version__}
            configio.write_json(os.path.join(out, "manifest.json"), manifest)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
