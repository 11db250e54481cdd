"""The benchmark's three workloads.

Each workload has four phases. ``prepare`` makes the inputs from the workload
seed and is not timed. ``setup`` is the program's set-up before it can serve
the timed operations; it is timed and repeated. ``run_round`` is one round of
timed operations. ``check`` compares the outputs with computations made apart
from the program and returns the problems it finds. The program is driven only
through its public functions.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from reference_metrics import ref_bleu4, ref_cider_d, ref_rouge_l, toks
from vidcap import decoder, ensemble, evaluator, harness, metrics, text
from vidcap.generation import GenerationConfig
from vidcap.numerics import OptState, log_softmax

import corpus

TOL = 1e-9


def cold_import(module: str) -> None:
    """Start a fresh interpreter that imports `module`, and wait for it."""
    src = Path(harness.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True)


def _close(name: str, got: float, want: float, problems: list[str]) -> None:
    if not (math.isfinite(got) and abs(got - want) <= TOL):
        problems.append(f"{name}: program {got!r} != oracle {want!r}")


def check_scores(label: str, scores: dict, hypotheses, references, problems: list[str],
                 per_video: dict | None = None) -> None:
    """Compare corpus scores (and per-video scores, if given) with the
    plain-loop oracles."""
    _close(f"{label} bleu4", scores["bleu4"], ref_bleu4(hypotheses, references), problems)
    rouge, rouge_per = ref_rouge_l(hypotheses, references)
    cider, cider_per = ref_cider_d(hypotheses, references)
    _close(f"{label} rouge_l", scores["rouge_l"], rouge, problems)
    _close(f"{label} cider", scores["cider"], cider, problems)
    if per_video is not None:
        if sorted(per_video) != sorted(hypotheses):
            problems.append(f"{label}: per-video scores cover other videos")
            return
        for vid, row in per_video.items():
            _close(f"{label} {vid} rouge_l", row["rouge_l"], rouge_per[vid], problems)
            _close(f"{label} {vid} cider", row["cider"], cider_per[vid], problems)


def rerank_choice(entries):
    """rerank's documented rule: highest score, then higher log-prob, then the
    lexicographically smaller caption."""
    return min(entries, key=lambda c: (-c["score"], -c["logprob"], c["caption"]))


# --- train-pipeline --------------------------------------------------------

class TrainPipeline:
    """One default `run_experiment`: the paper's whole method on the program's
    200-video synthetic two-specialist benchmark, artifacts written."""

    name = "train-pipeline"
    ops_per_round = 1  # one experiment

    def __init__(self, seed: int, out_dir: Path, small: bool = False):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.small = small

    def prepare(self):
        # The experiment seed stays at its default: one experiment's ensemble
        # CIDEr-D spreads by 35% of its median across experiment seeds (30
        # scored videos), more than any bound allows. At a fixed seed every
        # change to the pipeline's output shows exactly.
        cfg = harness.ExperimentConfig()
        if self.small:
            cfg.synth = harness.SynthConfig(n_videos=40)
            cfg.lm_epochs, cfg.eval_epochs, cfg.n_negatives = 3, 1, 5
            cfg.min_count, cfg.learning_rate = 1, 0.02
        return cfg

    def videos_per_round(self, cfg) -> int:
        return cfg.synth.n_videos

    def setup(self, cfg):
        if not self.small:
            cold_import("vidcap.harness")
        return cfg

    def run_round(self, cfg, index: int):
        out = self.out_dir / f"round{index}"
        result = harness.run_experiment(cfg, out_dir=str(out))
        return {"result": result, "out": out}

    def check(self, cfg, outputs) -> tuple[list[str], dict]:
        problems: list[str] = []
        tags = [m.tag for m in cfg.models]
        for k, output in enumerate(outputs):
            result, out = output["result"], output["out"]
            doc = json.loads((out / "dataset.json").read_text(encoding="utf-8"))
            references = {v["id"]: v["captions"] for v in doc["videos"]
                          if v["split"] == cfg.eval_split}
            chosen = json.loads((out / "chosen.json").read_text(encoding="utf-8"))
            pools: dict[str, list[dict]] = {}
            for line in (out / "pools.jsonl").read_text(encoding="utf-8").splitlines():
                rec = json.loads(line)
                pools.setdefault(rec["video_id"], []).append(rec)
            if sorted(pools) != sorted(references) or sorted(chosen) != sorted(references):
                problems.append(f"round {k}: pools or choices do not cover the eval split")
                continue
            for vid, entries in pools.items():
                if sorted(e["model"] for e in entries) != sorted(tags):
                    problems.append(f"round {k} {vid}: pool is not one candidate per generator")
                if chosen[vid] not in [e["caption"] for e in entries]:
                    problems.append(f"round {k} {vid}: chosen caption is not in its pool")
                elif chosen[vid] != rerank_choice(entries)["caption"]:
                    problems.append(f"round {k} {vid}: chosen caption is not the top-scored")
            for row in result.model_rows:
                ppl = row["perplexity"]
                if not (math.isfinite(ppl) and ppl >= 1.0):
                    problems.append(f"round {k} {row['tag']}: perplexity {ppl}")
                hyps = {vid: next(e["caption"] for e in entries if e["model"] == row["tag"])
                        for vid, entries in pools.items()}
                check_scores(f"round {k} {row['tag']}", row, hyps, references, problems)
            check_scores(f"round {k} ensemble", result.ensemble_row, chosen, references,
                         problems)
        return problems, quality_of(outputs[0]["result"].ensemble_row)


def quality_of(scores: dict) -> dict:
    return {m: scores[m] for m in ("cider", "bleu4", "rouge_l")}


# --- caption-large-vocab ---------------------------------------------------

class CaptionLargeVocab:
    """Trained generators caption held-out videos one at a time, over a
    vocabulary of a thousand tokens or more: beam search, then rerank."""

    name = "caption-large-vocab"
    ops_per_round = 4  # one operation per video captioned

    def __init__(self, seed: int, out_dir: Path, small: bool = False):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.small = small
        # Quality is scored on the videos of the first `quality_rounds` rounds,
        # so that it does not change with the number of rounds a run fits in.
        if small:
            self.n_train, self.tail_per_video, self.lm_epochs, self.eval_epochs = 40, 2, 2, 1
            self.quality_rounds = 2
            self.gen_cfg = GenerationConfig(beam_size=3, max_len=8)
        else:
            self.n_train, self.tail_per_video, self.lm_epochs, self.eval_epochs = 300, 4, 20, 6
            self.quality_rounds = 8
            # The generators learn captions of 5 and 6 words. A beam ends when
            # every kept hypothesis has emitted EOS or reached max_len, so a
            # loose max_len lets some beams run 3x longer, as the seed's models
            # happen to be less sure, and videos_per_s would measure that
            # rather than the decoder.
            self.gen_cfg = GenerationConfig(beam_size=5, max_len=8)

    def prepare(self):
        return corpus.caption_corpus(self.seed, self.n_train, self.tail_per_video)

    def videos_per_round(self, data) -> int:
        return self.ops_per_round

    def setup(self, data):
        rng = np.random.default_rng([self.seed, 3])
        vocab = text.build_vocab([c for v in data.train for c in v.captions], min_count=1)
        ckpt = self.out_dir / "checkpoints"
        ckpt.mkdir(parents=True, exist_ok=True)
        models = []
        for tag, feature in (("m-a", "feat-a"), ("m-b", "feat-b")):
            dim = data.train[0].features[feature].shape[0]
            cfg = decoder.LMConfig(vocab_size=len(vocab), init_dim=dim, persist_dim=dim,
                                   hidden=32, embed_dim=32)
            params = decoder.init_lm_params(cfg, rng)
            examples = [(v.features[feature], v.features[feature],
                         text.encode(text.tokenize(c), vocab))
                        for v in data.train for c in v.captions[:-1]]
            decoder.fit_lm(params, cfg, examples, OptState(learning_rate=0.02), rng,
                           epochs=self.lm_epochs, batch_size=32)
            decoder.save_lm(ckpt / f"{tag}.vlmp", cfg, params)
            cfg, params, _ = decoder.load_lm(ckpt / f"{tag}.vlmp")
            models.append(ensemble.GeneratorModel(tag=tag, cfg=cfg, params=params,
                                                  init_feature=feature, persist_feature=feature))
        records = [harness.VideoRecord(id=v.id, category=0, captions=v.captions, split="train")
                   for v in data.train]
        video_of = {v.id: _video_values(v) for v in data.train}
        eval_cfg = evaluator.EvaluatorConfig(
            vocab_size=len(vocab), video_dim=next(iter(video_of.values())).shape[0],
            filters_per_width=32, n_negatives=8, feature_name="feat-a+feat-b")
        eval_params, _ = evaluator.train_evaluator(
            records, video_of.__getitem__, vocab, eval_cfg, rng,
            opt=OptState(learning_rate=0.005), epochs=self.eval_epochs)
        evaluator.save_evaluator(ckpt / "evaluator.vevp", eval_cfg, eval_params)
        eval_cfg, eval_params = evaluator.load_evaluator(ckpt / "evaluator.vevp")
        return {"data": data, "vocab": vocab, "models": models, "eval_cfg": eval_cfg,
                "eval_params": eval_params}

    def run_round(self, state, index: int):
        data, vocab = state["data"], state["vocab"]
        out = []
        for k in range(index * self.ops_per_round, (index + 1) * self.ops_per_round):
            video = data.held_out(k)
            pool = ensemble.generate_pool(state["models"], video.id,
                                          lambda vid, name: video.features[name],
                                          self.gen_cfg, vocab)
            best = ensemble.rerank(pool, _video_values(video), state["eval_params"],
                                   state["eval_cfg"], vocab)
            out.append({"video": video, "pool": pool, "best": best})
        return out

    def score(self, outputs):
        """The program's scores of the reranked captions of the first
        `quality_rounds` rounds: the workload's quality."""
        outputs = outputs[: self.quality_rounds]
        hyps = {o["video"].id: o["best"].caption for r in outputs for o in r}
        refs = {o["video"].id: o["video"].captions for r in outputs for o in r}
        return hyps, refs, metrics.score_captions(hyps, refs)

    def check(self, state, outputs, scored=None) -> tuple[list[str], dict]:
        problems: list[str] = []
        # A run too slow to reach `quality_rounds` rounds captions the rest here,
        # untimed.
        outputs = list(outputs) + [self.run_round(state, k)
                                   for k in range(len(outputs), self.quality_rounds)]
        vocab, models = state["vocab"], state["models"]
        by_tag = {m.tag: m for m in models}
        max_len = self.gen_cfg.max_len
        for o in (o for r in outputs for o in r):
            video, pool, best = o["video"], o["pool"], o["best"]
            if sorted(c.model for c in pool.entries) != sorted(by_tag):
                problems.append(f"{video.id}: pool is not one candidate per generator")
            sims = []
            for cand in pool.entries:
                # decode drops every reserved id (PAD, BOS, EOS, UNK), so an
                # emitted one shows as a log-prob that rescoring the caption
                # text cannot reproduce.
                words = text.tokenize(cand.caption)
                ids = text.encode(words, vocab)
                if len(words) > max_len:
                    problems.append(f"{video.id} {cand.model}: longer than max_len")
                    continue
                m = by_tag[cand.model]
                logits, lp = decoder.forward_logprob(
                    video.features[m.init_feature], video.features[m.persist_feature],
                    ids, m.params, m.cfg)
                if len(words) == max_len:  # truncated beam: no EOS was emitted
                    lp -= float(log_softmax(logits[-1])[text.EOS])
                if not abs(lp - cand.logprob) <= TOL:
                    problems.append(f"{video.id} {cand.model}: beam log-prob "
                                    f"{cand.logprob!r} != teacher-forced {lp!r}")
                sim = evaluator.similarity(ids, _video_values(video), state["eval_params"],
                                           state["eval_cfg"])
                sims.append({"caption": cand.caption, "logprob": cand.logprob, "score": sim})
            if len(sims) == len(pool.entries) and best.caption != rerank_choice(sims)["caption"]:
                problems.append(f"{video.id}: chosen caption is not the evaluator's argmax")
        hyps, refs, report = scored if scored is not None else self.score(outputs)
        check_scores("reranked captions", vars(report), hyps, refs, problems)
        return problems, quality_of(vars(report))


def _video_values(video) -> np.ndarray:
    return np.concatenate([video.features["feat-a"], video.features["feat-b"]])


# --- score-challenge-scale -------------------------------------------------

class ScoreChallengeScale:
    """`score_captions` on a caption set shaped like the MSR-VTT test split."""

    name = "score-challenge-scale"
    ops_per_round = 1  # one scoring call

    def __init__(self, seed: int, out_dir: Path, small: bool = False):
        self.seed = seed
        self.small = small
        self.n_videos, self.n_refs, self.vocab_size = \
            (60, 5, 200) if small else (2500, 20, 5000)

    def prepare(self):
        return corpus.challenge_captions(self.seed, self.n_videos, self.n_refs,
                                         self.vocab_size)

    def videos_per_round(self, data) -> int:
        return self.n_videos

    def setup(self, data):
        if not self.small:
            cold_import("vidcap.metrics")
        return data

    def run_round(self, data, index: int):
        hypotheses, references = data
        return metrics.score_captions(hypotheses, references)

    def check(self, data, outputs) -> tuple[list[str], dict]:
        hypotheses, references = data
        problems: list[str] = []
        first = outputs[0]
        check_scores("scores", vars(first), hypotheses, references, problems,
                     per_video=first.per_video)
        for vid, hyp in hypotheses.items():
            if toks(hyp) in [toks(r) for r in references[vid]] and \
                    first.per_video.get(vid, {}).get("rouge_l") != 1.0:
                problems.append(f"{vid}: hypothesis equals a reference but ROUGE-L != 1")
        # Later rounds, or a second call outside the timed region when the run
        # made one round, show whether scoring keeps state between calls.
        again = [r.to_json() for r in outputs[1:]] or \
            [metrics.score_captions(hypotheses, references).to_json()]
        for k, report in enumerate(again, start=1):
            if report != first.to_json():
                problems.append(f"call {k}: scores differ from the first call on the same input")
        return problems, quality_of(vars(first))


WORKLOADS = {w.name: w for w in (TrainPipeline, CaptionLargeVocab, ScoreChallengeScale)}
