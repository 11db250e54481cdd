"""Command-line front end for the captioning pipeline.

Subcommands: synth, vocab, codebook, encode, train-lm, train-eval, generate,
rerank, score, run. Exit codes: 0 success, 1 usage error, 2 data error,
3 numeric error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import decoder, evaluator, features, harness, metrics
from .ensemble import GeneratorModel, dump_pools, load_pools, generate_pool, rerank
from .errors import DataError, DimensionError, NumericError, ParameterError
from .generation import GenerationConfig
from .numerics import OptState, make_rng
from .text import Vocabulary, build_vocab


def _load_store(paths) -> harness.FeatureStore:
    store = harness.FeatureStore()
    for p in paths or []:
        harness.load_features(p, store)
    return store


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: not valid JSON: {e}") from e


def _experiment_config(args) -> harness.ExperimentConfig:
    cfg = harness.ExperimentConfig.load(args.config) if args.config \
        else harness.ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def cmd_synth(args) -> int:
    cfg = _experiment_config(args)
    dataset, store = harness.synth_generate(cfg.synth, make_rng(cfg.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.save_dataset(dataset, out / "dataset.json")
    for name in store.names():
        harness.save_features(store, name, out / f"{name}.vfea")
    counts = dataset.counts()
    print(f"wrote {out}/dataset.json ({counts}) and {len(store.names())} feature files")
    return 0


def cmd_vocab(args) -> int:
    dataset = harness.load_dataset(args.data)
    records = dataset.split(args.split)
    vocab = build_vocab([c for r in records for c in r.captions], args.min_count)
    vocab.save(args.out)
    print(f"vocabulary: {len(vocab)} entries (min_count={args.min_count}) -> {args.out}")
    return 0


def cmd_codebook(args) -> int:
    doc = _load_json(args.descriptors)
    rows = []
    for vid in sorted(doc.get("videos", {})):
        channels = doc["videos"][vid]
        if args.channel in channels:
            rows.extend(channels[args.channel])
    if not rows:
        raise DataError(f"no descriptors for channel {args.channel!r} in {args.descriptors}")
    samples = np.asarray(rows, dtype=np.float64)
    rng = make_rng(args.seed)
    if samples.shape[0] > args.max_samples:
        idx = rng.choice(samples.shape[0], size=args.max_samples, replace=False)
        samples = samples[np.sort(idx)]
    book = features.train_codebook(samples, args.k, rng, max_iters=args.max_iters,
                                   channel=args.channel)
    book.save(args.out)
    print(f"codebook {args.channel}: k={book.k} d={book.dim} "
          f"final objective {book.objective_history[-1]:.4f} -> {args.out}")
    return 0


def cmd_encode(args) -> int:
    store = harness.FeatureStore()
    if args.kind == "bof":
        doc = _load_json(args.descriptors)
        books = {}
        for path in args.codebooks:
            book = features.Codebook.load(path)
            books[book.channel] = book
        for vid in sorted(doc.get("videos", {})):
            desc = {ch: np.asarray(v, dtype=np.float64)
                    for ch, v in doc["videos"][vid].items()}
            fv = features.bof_encode(desc, books, name=args.name)
            store.add(args.name, vid, fv.values)
    elif args.kind == "mean":
        doc = _load_json(args.activations)
        for vid in sorted(doc.get("videos", {})):
            vecs = [np.asarray(v, dtype=np.float64) for v in doc["videos"][vid]]
            store.add(args.name, vid, features.mean_pool(vecs))
    elif args.kind == "pyramid":
        doc = _load_json(args.activations)
        for vid in sorted(doc.get("videos", {})):
            frames = [features.RegionActivations(scale1=f["scale1"], regions=f["regions"])
                      for f in doc["videos"][vid]]
            store.add(args.name, vid, features.pyramid_pool(frames, combo=args.combo))
    harness.save_features(store, args.name, args.out)
    print(f"encoded {len(store.videos(args.name))} videos "
          f"({args.kind}, dim {store.dim(args.name)}) -> {args.out}")
    return 0


def cmd_train_lm(args) -> int:
    dataset = harness.load_dataset(args.data)
    store = _load_store(args.features)
    vocab = Vocabulary.load(args.vocab)
    rng = make_rng(args.seed)
    cfg = decoder.LMConfig(
        vocab_size=len(vocab), init_dim=store.dim(args.init_feature),
        persist_dim=store.dim(args.persist_feature), depth=args.depth,
        hidden=args.hidden, embed_dim=args.embed_dim, dropout_rate=args.dropout)
    params = decoder.init_lm_params(cfg, rng)
    opt = OptState(learning_rate=args.lr)
    examples = harness.lm_examples(dataset.split("train"), store, vocab,
                                   args.init_feature, args.persist_feature)
    history = decoder.fit_lm(params, cfg, examples, opt, rng,
                             epochs=args.epochs, batch_size=args.batch_size)
    decoder.save_lm(args.out, cfg, params, extra={
        "init_feature": args.init_feature, "persist_feature": args.persist_feature})
    val = dataset.split("val")
    if val:
        vex = harness.lm_examples(val, store, vocab, args.init_feature, args.persist_feature)
        print(f"val perplexity: {decoder.perplexity(vex, params, cfg):.4f}")
    print(f"final train loss {history[-1]:.4f} -> {args.out}")
    return 0


def cmd_train_eval(args) -> int:
    dataset = harness.load_dataset(args.data)
    store = _load_store(args.features)
    vocab = Vocabulary.load(args.vocab)
    rng = make_rng(args.seed)
    cfg = evaluator.EvaluatorConfig(
        vocab_size=len(vocab), video_dim=store.dim(args.feature),
        embed_dim=args.embed_dim, filters_per_width=args.filters,
        joint_dim=args.joint_dim, margin=args.margin,
        n_negatives=args.negatives, feature_name=args.feature)
    params, history = evaluator.train_evaluator(
        dataset.split("train"), lambda vid: store.get(vid, args.feature), vocab,
        cfg, rng, opt=OptState(learning_rate=args.lr), epochs=args.epochs)
    evaluator.save_evaluator(args.out, cfg, params)
    print(f"final evaluator loss {history[-1]:.4f} -> {args.out}")
    return 0


def cmd_generate(args) -> int:
    dataset = harness.load_dataset(args.data)
    store = _load_store(args.features)
    vocab = Vocabulary.load(args.vocab)
    models = []
    for item in args.model:
        tag, _, path = item.partition("=")
        if not path:
            raise ParameterError(f"--model expects tag=path, got {item!r}")
        cfg, params, header = decoder.load_lm(path)
        models.append(GeneratorModel(
            tag=tag, cfg=cfg, params=params,
            init_feature=header.get("init_feature", args.init_feature or ""),
            persist_feature=header.get("persist_feature", args.persist_feature or "")))
    gen_cfg = GenerationConfig(beam_size=args.beam, max_len=args.max_len)
    records = sorted(dataset.split(args.split), key=lambda r: r.id)
    pools = [generate_pool(models, r.id, store.get, gen_cfg, vocab) for r in records]
    dump_pools(pools, args.out)
    print(f"wrote {sum(len(p.entries) for p in pools)} candidates "
          f"for {len(pools)} videos -> {args.out}")
    return 0


def cmd_rerank(args) -> int:
    store = _load_store(args.features)
    vocab = Vocabulary.load(args.vocab)
    cfg, params = evaluator.load_evaluator(args.evaluator)
    pools = load_pools(args.pool)
    chosen = {}
    for pool in pools:
        best = rerank(pool, store.get(pool.video_id, cfg.feature_name), params,
                      cfg, vocab, blend_weight=args.blend)
        chosen[pool.video_id] = best.caption
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(chosen, f, sort_keys=True, indent=1)
    if args.scored_pool:
        dump_pools(pools, args.scored_pool)
    print(f"reranked {len(pools)} pools -> {args.out}")
    return 0


def cmd_score(args) -> int:
    dataset = harness.load_dataset(args.data)
    hypotheses = _load_json(args.captions)
    references = dataset.references(args.split)
    missing = sorted(set(hypotheses) - set(references))
    if missing:
        raise DataError(f"hypotheses for unknown videos: {missing[:5]}")
    report = metrics.score_captions(hypotheses, references)
    sys.stdout.write(report.to_text())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
        (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    return 0


def cmd_run(args) -> int:
    cfg = _experiment_config(args)
    result = harness.run_experiment(cfg, out_dir=args.out)
    sys.stdout.write(result.table_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vidcap",
                                     description="video captioning pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        return p

    p = add("synth", cmd_synth, help="generate the synthetic benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)

    p = add("vocab", cmd_vocab, help="build a vocabulary from caption data")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--min-count", type=int, default=5)

    p = add("codebook", cmd_codebook, help="train a k-means codebook")
    p.add_argument("--descriptors", required=True)
    p.add_argument("--channel", required=True, choices=features.DESCRIPTOR_CHANNELS)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--max-samples", type=int, default=250000)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("encode", cmd_encode, help="encode raw inputs into a feature file")
    p.add_argument("--kind", required=True, choices=("bof", "mean", "pyramid"))
    p.add_argument("--descriptors", help="descriptor JSON (bof)")
    p.add_argument("--codebooks", nargs="+", default=[], help="codebook files (bof)")
    p.add_argument("--activations", help="activation JSON (mean/pyramid)")
    p.add_argument("--combo", default="avg-avg", choices=features.POOL_COMBOS)
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True)

    p = add("train-lm", cmd_train_lm, help="train one caption generator")
    p.add_argument("--data", required=True)
    p.add_argument("--features", nargs="+", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--init-feature", required=True)
    p.add_argument("--persist-feature", required=True)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--embed-dim", type=int, default=64)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("train-eval", cmd_train_eval, help="train the caption-video evaluator")
    p.add_argument("--data", required=True)
    p.add_argument("--features", nargs="+", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--feature", required=True, help="video feature name (may be a+b)")
    p.add_argument("--embed-dim", type=int, default=32)
    p.add_argument("--filters", type=int, default=32)
    p.add_argument("--joint-dim", type=int, default=64)
    p.add_argument("--margin", type=float, default=0.2)
    p.add_argument("--negatives", type=int, default=50)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add("generate", cmd_generate, help="beam-search candidate pools")
    p.add_argument("--data", required=True)
    p.add_argument("--features", nargs="+", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", action="append", required=True,
                   help="tag=checkpoint.vlmp (repeatable)")
    p.add_argument("--init-feature", help="fallback if absent from checkpoint")
    p.add_argument("--persist-feature", help="fallback if absent from checkpoint")
    p.add_argument("--split", default="val")
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--max-len", type=int, default=30)
    p.add_argument("--out", required=True)

    p = add("rerank", cmd_rerank, help="pick the best candidate per video")
    p.add_argument("--pool", required=True)
    p.add_argument("--evaluator", required=True)
    p.add_argument("--features", nargs="+", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--blend", type=float, default=0.0)
    p.add_argument("--scored-pool")
    p.add_argument("--out", required=True)

    p = add("score", cmd_score, help="BLEU-4 / ROUGE-L / CIDEr-D report")
    p.add_argument("--data", required=True)
    p.add_argument("--captions", required=True, help="JSON {video_id: caption}")
    p.add_argument("--split", default="val")
    p.add_argument("--out")

    p = add("run", cmd_run, help="full pipeline: train, generate, rerank, score")
    p.add_argument("--out")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args) or 0
    except ParameterError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except (DataError, DimensionError, FileNotFoundError, KeyError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
