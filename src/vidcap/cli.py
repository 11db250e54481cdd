"""Command-line front end for the captioning pipeline.

Subcommands: synth, vocab, codebook, encode, train-lm, train-eval, generate,
rerank, score, run. The pipeline subcommands (synth, vocab, train-lm,
train-eval, generate, rerank, score) run the stage functions that `run`
chains, so a stagewise chain over one config writes the files `run` writes,
and train-lm and train-eval make the checks `run` makes of their stage before
it trains (train-lm rejects a beam that could not fit in memory); all but
rerank, which has none, read their hyperparameters from an ExperimentConfig
JSON given by --config (the defaults without one; --seed overrides its seed).
Their other flags name input and output files. Exit codes: 0 success, 1 usage
error, 2 data error (a malformed or non-finite feature file, codebook,
checkpoint, config, vocabulary file, or descriptor or activation JSON; two
codebooks for one channel; or a checkpoint whose vocabulary size or feature
dimensions do not match the given files; the message names the file, and for
a descriptor or activation JSON the video), 3 numeric error. An
error is one line on stderr: numpy's floating-point warnings are off, and
explicit checks find the non-finite values they warned of.

BLAS runs one thread per process unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
or MKL_NUM_THREADS is set: the matrices here are small, and `run` trains in a
second process beside the first one instead (harness.run_experiment).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Before numpy loads: BLAS reads these when it starts its thread pool.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

import numpy as np

from . import binio, decoder, evaluator, features, harness
from .ensemble import GeneratorModel, dump_pools, load_pools
from .errors import DataError, DimensionError, NumericError, ParameterError, naming
from .numerics import make_rng
from .text import Vocabulary


def _load_inputs(args) -> tuple[harness.Dataset, harness.FeatureStore, Vocabulary]:
    return (harness.load_dataset(args.data), harness.load_features(*args.features),
            Vocabulary.load(args.vocab))


def _videos(path) -> dict:
    """The "videos" object of a descriptor or activation JSON file."""
    doc = binio.read_json(path)
    if not (isinstance(doc, dict) and isinstance(doc.get("videos"), dict)):
        raise DataError(f"{path}: expected an object with a 'videos' object")
    return doc["videos"]


def _numbers(value, ndim: int) -> np.ndarray:
    """An `ndim`-D (or empty) JSON array of finite numbers, as float64
    (Python's json reads NaN and Infinity)."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or (arr.ndim != ndim and arr.size > 0):
        raise DataError(f"expected a {ndim}-D array of numbers")
    if not np.isfinite(arr).all():
        raise DataError("holds a non-finite number")
    return arr.astype(np.float64)


def _channels(video, names) -> dict[str, np.ndarray]:
    """The descriptor channels in `names` that a video has, as float64 arrays."""
    if not isinstance(video, dict):
        raise DataError("expected an object of descriptor channels")
    return {ch: _numbers(video[ch], 2) for ch in names if ch in video}


def _experiment_config(args) -> harness.ExperimentConfig:
    cfg = harness.ExperimentConfig.load(args.config) if args.config \
        else harness.ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def _final(history: list[float]) -> str:
    """The last entry of a loss or objective history, "none" when no epoch ran."""
    return f"{history[-1]:.4f}" if history else "none"


def _load_generator(item: str) -> GeneratorModel:
    """A --model tag=path checkpoint, bound to the features its header names."""
    tag, _, path = item.partition("=")
    if not path:
        raise ParameterError(f"--model expects tag=path, got {item!r}")
    cfg, params, header = decoder.load_lm(path)
    if header.init_feature is None or header.persist_feature is None:
        raise DataError(f"{path}: checkpoint header binds no init_feature or persist_feature")
    return GeneratorModel(tag=tag, cfg=cfg, params=params, init_feature=header.init_feature,
                          persist_feature=header.persist_feature)


def cmd_synth(args) -> int:
    cfg = _experiment_config(args)
    dataset, store = harness.synth_generate(cfg.synth, make_rng(cfg.seed, 0))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_data(dataset, store, out)
    counts = dataset.counts()
    print(f"wrote {out}/dataset.json ({counts}) and {len(store.names())} feature files")
    return 0


def cmd_vocab(args) -> int:
    cfg = _experiment_config(args)
    vocab = harness.make_vocab(cfg, harness.load_dataset(args.data))
    vocab.save(args.out)
    print(f"vocabulary: {len(vocab)} entries (min_count={cfg.min_count}) -> {args.out}")
    return 0


def cmd_codebook(args) -> int:
    videos, parts = _videos(args.descriptors), []
    for vid in sorted(videos):
        with naming(f"{args.descriptors}: video {vid!r}: ", (DataError, DimensionError)):
            parts += [d for d in _channels(videos[vid], [args.channel]).values() if d.size > 0]
    if not parts:
        raise DataError(f"no descriptors for channel {args.channel!r} in {args.descriptors}")
    if any(p.shape[1] != parts[0].shape[1] for p in parts):
        raise DataError(f"{args.descriptors}: {args.channel!r} descriptor widths differ")
    samples = np.concatenate(parts)
    rng = make_rng(args.seed)
    if samples.shape[0] > args.max_samples:
        idx = rng.choice(samples.shape[0], size=args.max_samples, replace=False)
        samples = samples[np.sort(idx)]
    centroids, _, history = features.kmeans(samples, args.k, rng, max_iters=args.max_iters)
    book = features.Codebook(args.channel, centroids)
    book.save(args.out)
    print(f"codebook {args.channel}: k={book.k} d={book.dim} "
          f"final objective {_final(history)} -> {args.out}")
    return 0


def cmd_encode(args) -> int:
    flag = "descriptors" if args.kind == "bof" else "activations"
    path = getattr(args, flag)
    if path is None:
        raise ParameterError(f"--kind {args.kind} needs --{flag}")
    videos = _videos(path)
    books, book_paths = {}, {}
    for book_path in args.codebooks:
        book = features.Codebook.load(book_path)
        if book.channel in books:
            raise DataError(f"{book_path}: a second codebook for channel {book.channel!r}, "
                            f"after {book_paths[book.channel]}")
        books[book.channel], book_paths[book.channel] = book, book_path
    store = harness.FeatureStore()
    for vid in sorted(videos):
        with naming(f"{path}: video {vid!r}: ", (DataError, DimensionError)):
            if args.kind == "bof":
                values = features.bof_encode(
                    _channels(videos[vid], features.DESCRIPTOR_CHANNELS), books)
            elif args.kind == "mean":
                values = features.mean_pool(list(_numbers(videos[vid], 2)))
            else:
                frames = videos[vid]
                if not (isinstance(frames, list) and all(isinstance(f, dict) for f in frames)):
                    raise DataError("expected a list of frame objects")
                values = features.pyramid_pool(
                    [features.RegionActivations(_numbers(f.get("scale1"), 1),
                                                _numbers(f.get("regions"), 2))
                     for f in frames], combo=args.combo)
            store.add(args.name, vid, values)
    harness.save_features(store, args.name, args.out)
    print(f"encoded {len(store.videos(args.name))} videos "
          f"({args.kind}, dim {store.dim(args.name)}) -> {args.out}")
    return 0


def cmd_train_lm(args) -> int:
    cfg = _experiment_config(args)
    dataset, store, vocab = _load_inputs(args)
    model, history, ppl = harness.prepare_generator(cfg, args.model, dataset, store, vocab)()
    decoder.save_lm(args.out, model.cfg, model.params, model.init_feature, model.persist_feature)
    print(f"{cfg.eval_split} perplexity: {ppl:.4f}")
    print(f"final train loss {_final(history)} -> {args.out}")
    return 0


def cmd_train_eval(args) -> int:
    cfg = _experiment_config(args)
    eval_cfg, params, history = harness.prepare_evaluator(cfg, *_load_inputs(args))()
    evaluator.save_evaluator(args.out, eval_cfg, params)
    print(f"final evaluator loss {_final(history)} -> {args.out}")
    return 0


def cmd_generate(args) -> int:
    cfg = _experiment_config(args)
    dataset, store, vocab = _load_inputs(args)
    models = [_load_generator(item) for item in args.model]
    pools = harness.generate_pools(cfg, models, dataset, store, vocab)
    dump_pools(pools, args.out)
    print(f"wrote {sum(len(p.entries) for p in pools)} candidates "
          f"for {len(pools)} videos -> {args.out}")
    return 0


def cmd_rerank(args) -> int:
    store = harness.load_features(*args.features)
    vocab = Vocabulary.load(args.vocab)
    eval_cfg, params = evaluator.load_evaluator(args.evaluator)
    pools = load_pools(args.pool)
    chosen = harness.rerank_pools(pools, store, eval_cfg, params, vocab)
    harness.save_chosen(chosen, args.out)
    if args.scored_pool:
        dump_pools(pools, args.scored_pool)
    print(f"reranked {len(pools)} pools -> {args.out}")
    return 0


def cmd_score(args) -> int:
    cfg = _experiment_config(args)
    dataset = harness.load_dataset(args.data)
    captions = binio.read_json(args.captions)
    if not (isinstance(captions, dict) and all(isinstance(c, str) for c in captions.values())):
        raise DataError(f"{args.captions}: expected an object of video id -> caption string")
    with naming(f"{args.captions}: ", DataError):
        report = harness.score_split(cfg, captions, dataset)
    sys.stdout.write(report.to_text())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        binio.write_file(out / "report.txt", report.to_text())
        binio.write_file(out / "report.json", report.to_json() + "\n")
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

    def flag(*args, **kwargs) -> argparse.ArgumentParser:
        """A flag declared once, for the subcommands that take it as a parent."""
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*args, **kwargs)
        return p

    data, out = flag("--data", required=True), flag("--out", required=True)
    config, seed = flag("--config"), flag("--seed", type=int, default=None)
    inputs = flag("--features", nargs="+", required=True)
    inputs.add_argument("--vocab", required=True)

    def add(name, fn, parents, **kwargs):
        p = sub.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(func=fn)
        return p

    add("synth", cmd_synth, [out, config, seed], help="generate the synthetic benchmark")
    add("vocab", cmd_vocab, [data, out, config], help="build a vocabulary from caption data")

    p = add("codebook", cmd_codebook, [out], help="train a k-means codebook")
    p.add_argument("--descriptors", required=True)
    p.add_argument("--channel", required=True, choices=features.DESCRIPTOR_CHANNELS)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--max-samples", type=int, default=250000)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)  # not the config seed: sampling, k-means++

    p = add("encode", cmd_encode, [out], help="encode raw inputs into a feature file")
    p.add_argument("--kind", required=True, choices=("bof", "mean", "pyramid"))
    p.add_argument("--descriptors", help="descriptor JSON (bof)")
    p.add_argument("--codebooks", nargs="+", default=[], help="codebook files (bof)")
    p.add_argument("--activations", help="activation JSON (mean/pyramid)")
    p.add_argument("--combo", default="avg-avg", choices=features.POOL_COMBOS)
    p.add_argument("--name", required=True)

    p = add("train-lm", cmd_train_lm, [data, inputs, config, seed, out],
            help="train one caption generator")
    p.add_argument("--model", required=True, help="tag of the config's roster entry")
    add("train-eval", cmd_train_eval, [data, inputs, config, seed, out],
        help="train the caption-video evaluator")
    p = add("generate", cmd_generate, [data, inputs, config, out],
            help="beam-search candidate pools")
    p.add_argument("--model", action="append", required=True,
                   help="tag=checkpoint.vlmp (repeatable)")

    p = add("rerank", cmd_rerank, [inputs, out], help="pick the best candidate per video")
    p.add_argument("--pool", required=True)
    p.add_argument("--evaluator", required=True)
    p.add_argument("--scored-pool")

    p = add("score", cmd_score, [data, config], help="BLEU-4 / ROUGE-L / CIDEr-D report")
    p.add_argument("--captions", required=True, help="JSON {video_id: caption}")
    p.add_argument("--out")

    p = add("run", cmd_run, [config, seed], help="full pipeline: train, generate, rerank, score")
    p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        with np.errstate(all="ignore"):  # a forked worker inherits it
            return args.func(args) or 0
    except ParameterError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except (DataError, DimensionError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
