import json
import os
import re
import resource
import struct
import subprocess
import sys
import typing
import zlib
from pathlib import Path

import numpy as np
import pytest

from vidcap import cli, decoder, harness
from vidcap.binio import CODEBOOK_MAGIC, write_checkpoint, write_feature_file
from vidcap.cli import main
from vidcap.decoder import LMConfig, init_lm_params, save_lm
from vidcap.evaluator import EvaluatorConfig, init_evaluator_params, save_evaluator
from vidcap.features import DESCRIPTOR_CHANNELS, Codebook
from vidcap.numerics import make_rng
from vidcap.text import Vocabulary


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> vocab once for the whole module, over one small config."""
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "seed": 11,
        "lm_epochs": 2,
        "eval_epochs": 2,
        "hidden": 16,
        "embed_dim": 16,
        "joint_dim": 16,
        "filters_per_width": 8,
        "min_count": 1,
        "synth": {"n_videos": 24},
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["synth", "--out", str(root), "--config", str(cfg_path)]) == 0
    assert main(["vocab", "--data", str(root / "dataset.json"), "--out",
                 str(root / "vocab.tsv"), "--config", str(cfg_path)]) == 0
    return root, cfg_path


def _stage_inputs(root):
    feats = [str(root / f"{name}.vfea") for name in ("feat-a", "feat-b", "categ")]
    return ["--data", str(root / "dataset.json"), "--features", *feats,
            "--vocab", str(root / "vocab.tsv")]


def test_stagewise_pipeline(workspace, tmp_path, capsys):
    """The stagewise chain over one config writes the files `vidcap run` writes,
    and `train-lm` prints each model's perplexity as `run` records it."""
    root, cfg_path = workspace
    cfg = ["--config", str(cfg_path)]
    inputs = _stage_inputs(root)
    tags = ("m-a", "m-b")  # the default roster
    printed = {}
    for tag in tags:
        assert main(["train-lm", *inputs, "--model", tag, *cfg,
                     "--out", str(root / f"{tag}.vlmp")]) == 0
        printed[tag] = capsys.readouterr().out.splitlines()[0]
    assert main(["train-eval", *inputs, *cfg, "--out", str(root / "e.vevp")]) == 0
    models = [arg for tag in tags for arg in ("--model", f"{tag}={root / tag}.vlmp")]
    assert main(["generate", *inputs, *models, *cfg, "--out", str(root / "pool.jsonl")]) == 0
    assert main(["rerank", "--pool", str(root / "pool.jsonl"), "--evaluator",
                 str(root / "e.vevp"), *inputs[2:],  # inputs without --data
                 "--scored-pool", str(root / "pools.jsonl"),
                 "--out", str(root / "chosen.json")]) == 0
    assert main(["score", "--data", str(root / "dataset.json"), "--captions",
                 str(root / "chosen.json"), *cfg, "--out", str(root / "report")]) == 0
    out = capsys.readouterr().out
    assert "bleu4:" in out
    assert (root / "report" / "report.json").exists()
    assert len(json.loads((root / "chosen.json").read_text())) > 0

    run_dir = tmp_path / "run"
    assert main(["run", *cfg, "--out", str(run_dir)]) == 0
    for name in ("dataset.json", "feat-a.vfea", "feat-b.vfea", "categ.vfea", "vocab.tsv",
                 "pools.jsonl", "chosen.json"):
        assert (root / name).read_bytes() == (run_dir / name).read_bytes(), name
    report = json.loads((root / "report" / "report.json").read_text())
    results = json.loads((run_dir / "results.json").read_text())
    for key in ("bleu4", "cider", "rouge_l"):
        assert report[key] == results["ensemble"][key], key
    assert printed == {row["tag"]: f"val perplexity: {row['perplexity']:.4f}"
                       for row in results["models"]}

    # A run over the files `synth` wrote (data_path, feature_paths) writes the
    # bytes of the run that drew the synthetic benchmark itself.
    files_cfg = json.loads(cfg_path.read_text())
    files_cfg["data_path"] = str(root / "dataset.json")
    files_cfg["feature_paths"] = [str(root / f"{name}.vfea")
                                  for name in ("feat-a", "feat-b", "categ")]
    files_cfg_path = tmp_path / "files.json"
    files_cfg_path.write_text(json.dumps(files_cfg))
    files_dir = tmp_path / "files"
    assert main(["run", "--config", str(files_cfg_path), "--out", str(files_dir)]) == 0
    written = sorted(p.name for p in run_dir.iterdir())
    assert len(written) == 9
    assert sorted(p.name for p in files_dir.iterdir()) == written
    for name in written:
        assert (run_dir / name).read_bytes() == (files_dir / name).read_bytes(), name


def test_codebook_and_encode(workspace, tmp_path):
    root, _ = workspace
    rng = make_rng(0)
    doc = {"videos": {}}
    for i in range(4):
        doc["videos"][f"v{i}"] = {
            ch: rng.normal(size=(12, 5)).tolist() for ch in DESCRIPTOR_CHANNELS
        }
    desc = tmp_path / "desc.json"
    desc.write_text(json.dumps(doc))

    books = []
    for ch in DESCRIPTOR_CHANNELS:
        out = tmp_path / f"{ch}.vcbk"
        assert main(["codebook", "--descriptors", str(desc), "--channel", ch,
                     "--k", "4", "--seed", "1", "--out", str(out)]) == 0
        books.append(str(out))

    feat = tmp_path / "dtbof.vfea"
    assert main(["encode", "--kind", "bof", "--descriptors", str(desc),
                 "--codebooks", *books, "--name", "dt-bof", "--out", str(feat)]) == 0
    from vidcap.harness import load_features
    store = load_features(feat)
    assert store.dim("dt-bof") == 20  # 5 channels x k=4


def test_encode_mean_and_pyramid(tmp_path):
    rng = make_rng(1)
    mean_doc = {"videos": {"v0": rng.normal(size=(3, 6)).tolist()}}
    (tmp_path / "acts.json").write_text(json.dumps(mean_doc))
    assert main(["encode", "--kind", "mean", "--activations", str(tmp_path / "acts.json"),
                 "--name", "gcnn", "--out", str(tmp_path / "m.vfea")]) == 0

    pyr_doc = {"videos": {"v0": [{
        "scale1": rng.normal(size=4).tolist(),
        "regions": rng.normal(size=(26, 4)).tolist(),
    }]}}
    (tmp_path / "regions.json").write_text(json.dumps(pyr_doc))
    assert main(["encode", "--kind", "pyramid", "--activations",
                 str(tmp_path / "regions.json"), "--combo", "max-avg",
                 "--name", "gcnn-pyr", "--out", str(tmp_path / "p.vfea")]) == 0
    from vidcap.harness import load_features
    assert load_features(tmp_path / "p.vfea").dim("gcnn-pyr") == 8


def test_run_subcommand(tmp_path, capsys):
    cfg = {
        "seed": 2, "lm_epochs": 2, "eval_epochs": 1, "hidden": 16, "embed_dim": 16,
        "joint_dim": 16, "filters_per_width": 8,
        "models": [{"tag": "m", "init_feature": "categ", "persist_feature": "feat-a",
                    "depth": 1}],
        "synth": {"n_videos": 20},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "ensemble" in out
    assert (tmp_path / "out" / "results.txt").exists()


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert main(["no-such-command"]) == 1
        assert main(["vocab"]) == 1  # missing required flags

    def test_data_error_is_2(self, tmp_path):
        assert main(["vocab", "--data", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "v.tsv")]) == 2

    def test_malformed_json_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{{{")
        assert main(["score", "--data", str(bad), "--captions", str(bad)]) == 2

    def test_unknown_roster_tag_is_1(self, workspace, capsys):
        root, cfg_path = workspace
        out = root / "none.vlmp"
        assert main(["train-lm", *_stage_inputs(root), "--model", "no-such-tag",
                     "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "no-such-tag" in err and "'m-a', 'm-b'" in err
        assert not out.exists()

    def test_checkpoint_without_features_is_2(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        ckpt = tmp_path / "bare.vlmp"
        lm_cfg = LMConfig(vocab_size=5, init_dim=2, persist_dim=2, depth=1, hidden=4,
                          embed_dim=4)
        save_lm(ckpt, lm_cfg, init_lm_params(lm_cfg, make_rng(0)))
        assert main(["generate", *_stage_inputs(root), "--model", f"m={ckpt}",
                     "--config", str(cfg_path), "--out", str(tmp_path / "pool.jsonl")]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "init_feature" in err

    @pytest.mark.parametrize("flip", [0, 9, -6])  # magic, index, float data
    def test_corrupt_checkpoints_are_2(self, workspace, tmp_path, capsys, flip):
        root, cfg_path = workspace
        lm_cfg = LMConfig(vocab_size=5, init_dim=2, persist_dim=2, depth=1, hidden=4,
                          embed_dim=4)
        ckpt, ev = tmp_path / "m.vlmp", tmp_path / "e.vevp"
        save_lm(ckpt, lm_cfg, init_lm_params(lm_cfg, make_rng(0)),
                init_feature="categ", persist_feature="feat-a")
        ev_cfg = EvaluatorConfig(vocab_size=5, video_dim=2, feature_name="feat-a")
        save_evaluator(ev, ev_cfg, init_evaluator_params(ev_cfg, make_rng(0)))
        for path in (ckpt, ev):
            raw = bytearray(path.read_bytes())
            raw[flip] ^= 1
            path.write_bytes(bytes(raw))
        pool = tmp_path / "pool.jsonl"
        pool.write_text(json.dumps({"video_id": "v", "model": "m", "caption": "a",
                                    "logprob": -1.0}) + "\n")
        assert main(["generate", *_stage_inputs(root), "--model", f"m={ckpt}",
                     "--config", str(cfg_path), "--out", str(tmp_path / "p.jsonl")]) == 2
        assert str(ckpt) in capsys.readouterr().err
        assert main(["rerank", "--pool", str(pool), "--evaluator", str(ev),
                     *_stage_inputs(root)[2:], "--out", str(tmp_path / "c.json")]) == 2
        assert str(ev) in capsys.readouterr().err

    def test_repeated_tensor_name_is_2(self, workspace, tmp_path, capsys):
        """An index that names one tensor twice, checksum recomputed, is a
        malformed checkpoint naming the file."""
        root, cfg_path = workspace
        lm_cfg = LMConfig(vocab_size=5, init_dim=2, persist_dim=2, depth=1, hidden=4,
                          embed_dim=4)
        ckpt = tmp_path / "m.vlmp"
        save_lm(ckpt, lm_cfg, init_lm_params(lm_cfg, make_rng(0)),
                init_feature="categ", persist_feature="feat-a")
        raw = ckpt.read_bytes()
        (n,) = struct.unpack_from("<I", raw, 4)
        index = json.loads(raw[8 : 8 + n])
        index["tensors"][1][0] = index["tensors"][0][0]
        packed = json.dumps(index).encode()
        body = raw[:4] + struct.pack("<I", len(packed)) + packed + raw[8 + n : -4]
        ckpt.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        out = tmp_path / "p.jsonl"
        assert main(["generate", *_stage_inputs(root), "--model", f"m={ckpt}",
                     "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: {ckpt}: duplicate tensor names\n"
        assert not out.exists()

    def test_generate_repeated_tag_is_1(self, workspace, tmp_path, capsys):
        """Pools hold one candidate per roster model, so `generate` takes the
        roster's rule on tags: a repeated tag is a usage error, and no pool is
        written."""
        root, cfg_path = workspace
        store = harness.load_features(*_stage_inputs(root)[3:6])
        lm_cfg = LMConfig(vocab_size=len(Vocabulary.load(root / "vocab.tsv")),
                          init_dim=store.dim("categ"), persist_dim=store.dim("feat-a"),
                          depth=1, hidden=4, embed_dim=4)
        ckpt = tmp_path / "m.vlmp"
        save_lm(ckpt, lm_cfg, init_lm_params(lm_cfg, make_rng(0)),
                init_feature="categ", persist_feature="feat-a")
        out = tmp_path / "p.jsonl"
        assert main(["generate", *_stage_inputs(root), "--model", f"m={ckpt}",
                     "--model", f"m={ckpt}", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "usage error: model tags must be unique, got ['m', 'm']\n"
        assert not out.exists()

    def test_non_finite_checkpoints_are_2(self, workspace, tmp_path, capsys):
        """A checkpoint that fits the workspace but holds a NaN weight is a data
        error naming the file and the tensor, raised before any output is
        written: beam search over NaN scores keeps no hypothesis, and a NaN
        evaluator score is not JSON that load_pools reads back."""
        root, cfg_path = workspace
        store = harness.load_features(*_stage_inputs(root)[3:6])
        vocab = Vocabulary.load(root / "vocab.tsv")
        lm_cfg = LMConfig(vocab_size=len(vocab), init_dim=store.dim("categ"),
                          persist_dim=store.dim("feat-a"), depth=1, hidden=4, embed_dim=4)
        params = init_lm_params(lm_cfg, make_rng(0))
        params["out_W"][0, 0] = np.nan
        ckpt = tmp_path / "m.vlmp"
        save_lm(ckpt, lm_cfg, params, init_feature="categ", persist_feature="feat-a")
        out = tmp_path / "p.jsonl"
        assert main(["generate", *_stage_inputs(root), "--model", f"m={ckpt}",
                     "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: tensor 'out_W' holds a non-finite value" in err
        assert "Traceback" not in err and not out.exists()

        ev_cfg = EvaluatorConfig(vocab_size=len(vocab), video_dim=store.dim("feat-a"),
                                 feature_name="feat-a")
        ev_params = init_evaluator_params(ev_cfg, make_rng(0))
        ev_params["sent_W"][:] = np.inf
        ev = tmp_path / "e.vevp"
        save_evaluator(ev, ev_cfg, ev_params)
        pool = tmp_path / "pool.jsonl"
        pool.write_text(json.dumps({"video_id": "video0020", "model": "m",
                                    "caption": "a red cat", "logprob": -1.0}) + "\n")
        chosen, scored = tmp_path / "c.json", tmp_path / "scored.jsonl"
        assert main(["rerank", "--pool", str(pool), "--evaluator", str(ev),
                     *_stage_inputs(root)[2:], "--scored-pool", str(scored),
                     "--out", str(chosen)]) == 2
        err = capsys.readouterr().err
        assert f"{ev}: tensor 'sent_W' holds a non-finite value" in err
        assert "Traceback" not in err and not chosen.exists() and not scored.exists()

    def test_run_missing_evaluator_feature_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"evaluator_feature": "nope"}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "[data] feature 'nope'" in capsys.readouterr().err

    def test_rerank_features_without_evaluator_feature_is_2(self, workspace, tmp_path, capsys):
        root, _ = workspace
        ev = tmp_path / "e.vevp"
        ev_cfg = EvaluatorConfig(vocab_size=len(Vocabulary.load(root / "vocab.tsv")), video_dim=2,
                                 feature_name="feat-a+feat-b")
        save_evaluator(ev, ev_cfg, init_evaluator_params(ev_cfg, make_rng(0)))
        pool = tmp_path / "pool.jsonl"
        pool.write_text(json.dumps({"video_id": "video0020", "model": "m", "caption": "a",
                                    "logprob": -1.0}) + "\n")
        assert main(["rerank", "--pool", str(pool), "--evaluator", str(ev),
                     "--features", str(root / "feat-a.vfea"), "--vocab", str(root / "vocab.tsv"),
                     "--out", str(tmp_path / "c.json")]) == 2
        err = capsys.readouterr().err
        assert "'feat-b'" in err and "'video0020'" in err

    @pytest.mark.parametrize("feature, role", [("categ", "init"), ("feat-a", "persist")])
    def test_generate_feature_dimension_mismatch_is_2(self, workspace, tmp_path, capsys,
                                                      feature, role):
        """A feature file whose dimension is not the checkpoint's init_dim or
        persist_dim is a data error naming the model, the feature, the first
        eval-split video and both dimensions."""
        root, cfg_path = workspace
        inputs = _stage_inputs(root)
        store = harness.load_features(*inputs[3:6])
        vocab = Vocabulary.load(root / "vocab.tsv")
        lm_cfg = LMConfig(vocab_size=len(vocab), init_dim=store.dim("categ"),
                          persist_dim=store.dim("feat-a"), depth=1, hidden=4, embed_dim=4)
        ckpt = tmp_path / "m.vlmp"
        save_lm(ckpt, lm_cfg, init_lm_params(lm_cfg, make_rng(0)),
                init_feature="categ", persist_feature="feat-a")
        narrow = tmp_path / f"{feature}.vfea"
        write_feature_file(narrow, feature, [(vid, np.ones(5)) for vid in store.videos(feature)])
        features = [narrow if Path(f).name == narrow.name else f for f in inputs[3:6]]
        out = tmp_path / "pool.jsonl"
        assert main(["generate", "--data", inputs[1], "--features", *map(str, features),
                     "--vocab", inputs[-1], "--model", f"m={ckpt}", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        first = min(r.id for r in harness.load_dataset(inputs[1]).split("val"))
        assert err == f"data error: model 'm', feature '{feature}', video '{first}': " \
                      f"{role} feature (5,) != ({store.dim(feature)},)\n"
        assert not out.exists()

    def test_rerank_feature_dimension_mismatch_is_2(self, workspace, tmp_path, capsys):
        """A feature file whose dimension is not the evaluator's video_dim is a
        data error naming the evaluator, the feature, the video and both
        dimensions, on one stderr line."""
        root, _ = workspace
        inputs = _stage_inputs(root)
        store = harness.load_features(*inputs[3:6])
        vocab = Vocabulary.load(root / "vocab.tsv")
        ev_cfg = EvaluatorConfig(vocab_size=len(vocab), video_dim=store.dim("feat-a") + 3,
                                 feature_name="feat-a")
        ev = tmp_path / "e.vevp"
        save_evaluator(ev, ev_cfg, init_evaluator_params(ev_cfg, make_rng(0)))
        pool = tmp_path / "pool.jsonl"
        pool.write_text(json.dumps({"video_id": "video0020", "model": "m",
                                    "caption": "a red cat", "logprob": -1.0}) + "\n")
        chosen = tmp_path / "c.json"
        assert main(["rerank", "--pool", str(pool), "--evaluator", str(ev), *inputs[2:],
                     "--out", str(chosen)]) == 2
        err = capsys.readouterr().err
        dim = store.dim("feat-a")
        assert err == f"data error: the evaluator, feature 'feat-a', video 'video0020': " \
                      f"video matrix (1, {dim}) != (videos, {dim + 3})\n"
        assert not chosen.exists()

    def test_generate_missing_feature_is_2(self, workspace, tmp_path, capsys):
        """A checkpoint whose persist feature no feature file holds is a data
        error naming the model, the feature and the first eval-split video."""
        root, cfg_path = workspace
        inputs = _stage_inputs(root)
        store = harness.load_features(*inputs[3:6])
        lm_cfg = LMConfig(vocab_size=len(Vocabulary.load(root / "vocab.tsv")),
                          init_dim=store.dim("categ"), persist_dim=store.dim("feat-a"),
                          depth=1, hidden=4, embed_dim=4)
        ckpt = tmp_path / "m.vlmp"
        save_lm(ckpt, lm_cfg, init_lm_params(lm_cfg, make_rng(0)),
                init_feature="categ", persist_feature="feat-a")
        out = tmp_path / "pool.jsonl"
        assert main(["generate", "--data", inputs[1], "--features", inputs[4], inputs[5],
                     "--vocab", inputs[-1], "--model", f"m={ckpt}", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        first = min(r.id for r in harness.load_dataset(inputs[1]).split("val"))
        assert capsys.readouterr().err == \
            f"data error: model 'm': feature 'feat-a' not in the store (video '{first}')\n"
        assert not out.exists()

    def test_rerank_missing_feature_is_2(self, workspace, tmp_path, capsys):
        """An evaluator whose feature no feature file holds is a data error
        naming the evaluator, the feature and the video."""
        root, _ = workspace
        inputs = _stage_inputs(root)
        ev_cfg = EvaluatorConfig(vocab_size=len(Vocabulary.load(root / "vocab.tsv")),
                                 video_dim=2, feature_name="feat-a")
        ev = tmp_path / "e.vevp"
        save_evaluator(ev, ev_cfg, init_evaluator_params(ev_cfg, make_rng(0)))
        pool = tmp_path / "pool.jsonl"
        pool.write_text(json.dumps({"video_id": "video0020", "model": "m",
                                    "caption": "a red cat", "logprob": -1.0}) + "\n")
        chosen = tmp_path / "c.json"
        assert main(["rerank", "--pool", str(pool), "--evaluator", str(ev), "--features",
                     inputs[4], inputs[5], "--vocab", inputs[-1], "--out", str(chosen)]) == 2
        assert capsys.readouterr().err == \
            "data error: the evaluator: feature 'feat-a' not in the store (video 'video0020')\n"
        assert not chosen.exists()

    def test_vocabulary_size_mismatch_is_2(self, workspace, tmp_path, capsys):
        """A vocabulary whose size is not the checkpoint's stops `generate` and
        `rerank` before any output, naming the model or the evaluator and both
        sizes."""
        root, cfg_path = workspace
        inputs = _stage_inputs(root)
        store = harness.load_features(*inputs[3:6])
        n = len(Vocabulary.load(root / "vocab.tsv"))
        lm_cfg = LMConfig(vocab_size=n + 20, init_dim=store.dim("categ"),
                          persist_dim=store.dim("feat-a"), depth=1, hidden=4, embed_dim=4)
        ckpt = tmp_path / "m.vlmp"
        save_lm(ckpt, lm_cfg, init_lm_params(lm_cfg, make_rng(0)),
                init_feature="categ", persist_feature="feat-a")
        out = tmp_path / "p.jsonl"
        assert main(["generate", *inputs, "--model", f"wide={ckpt}", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"data error: model 'wide' has a vocabulary of {n + 20} tokens, " \
               f"the given vocabulary {n}" in err
        assert "Traceback" not in err and not out.exists()

        ev_cfg = EvaluatorConfig(vocab_size=10, video_dim=store.dim("feat-a"),
                                 feature_name="feat-a")
        ev = tmp_path / "e.vevp"
        save_evaluator(ev, ev_cfg, init_evaluator_params(ev_cfg, make_rng(0)))
        pool = tmp_path / "pool.jsonl"
        pool.write_text(json.dumps({"video_id": "video0020", "model": "m",
                                    "caption": "a red cat", "logprob": -1.0}) + "\n")
        chosen = tmp_path / "c.json"
        assert main(["rerank", "--pool", str(pool), "--evaluator", str(ev), *inputs[2:],
                     "--out", str(chosen)]) == 2
        err = capsys.readouterr().err
        assert f"data error: the evaluator has a vocabulary of 10 tokens, " \
               f"the given vocabulary {n}" in err
        assert "Traceback" not in err and not chosen.exists()

    @pytest.mark.parametrize("command", ["vocab", "run"])
    @pytest.mark.parametrize("text, words", [
        ("{not json", "not valid JSON"),
        ('{"bogus": 1}', "unknown key 'bogus'"),
        ('{"models": [{"tag": "a"}]}', "missing key 'models[0].init_feature'"),
        ('{"hidden": "x"}', "key 'hidden': expected int"),
        ('{"synth": {"n_videos": 0}}', "n_videos must be >= 1"),
    ])
    def test_bad_config_is_2(self, workspace, tmp_path, capsys, command, text, words):
        root, _ = workspace
        bad = tmp_path / "bad-cfg.json"
        bad.write_text(text)
        args = ["--data", str(root / "dataset.json"), "--out", str(tmp_path / "v.tsv")] \
            if command == "vocab" else ["--out", str(tmp_path / "run")]
        assert main([command, *args, "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and words in err

    @pytest.mark.parametrize("captions", ['{"video0020": 5}', "[1, 2]", '{"v": null}'])
    def test_bad_captions_are_2(self, workspace, tmp_path, capsys, captions):
        root, _ = workspace
        path = tmp_path / "caps.json"
        path.write_text(captions)
        assert main(["score", "--data", str(root / "dataset.json"),
                     "--captions", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["bof", "mean", "pyramid"])
    @pytest.mark.parametrize("doc, words", [
        ([1], "'videos' object"),
        ({"videos": [1]}, "'videos' object"),
        ({"videos": {"v0": [[1, "x"]]}}, "video 'v0'"),
        ({"videos": {"v0": [[1, 2], [3]]}}, "video 'v0'"),
        ({"videos": {"v0": 5}}, "video 'v0'"),
    ])
    def test_bad_encode_inputs_are_2(self, tmp_path, capsys, kind, doc, words):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        flag = "--descriptors" if kind == "bof" else "--activations"
        assert main(["encode", "--kind", kind, flag, str(path), "--name", "x",
                     "--out", str(tmp_path / "x.vfea")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and words in err

    @pytest.mark.parametrize("doc", [[1], {"videos": {"v0": [[1, "x"]]}},
                                     {"videos": {"v0": {"HOG": [[1, "x"]]}}},
                                     {"videos": {"v0": {"HOG": [[1, 2]]}, "v1": {"HOG": [[1]]}}},
                                     {"videos": {"v0": {"HOF": [[1, 2]]}}}])
    def test_bad_descriptors_for_codebook_are_2(self, tmp_path, capsys, doc):
        path = tmp_path / "desc.json"
        path.write_text(json.dumps(doc))
        assert main(["codebook", "--descriptors", str(path), "--channel", "HOG", "--k", "1",
                     "--out", str(tmp_path / "b.vcbk")]) == 2
        assert str(path) in capsys.readouterr().err

    def test_non_finite_descriptors_are_2(self, tmp_path, capsys):
        """Python's json reads NaN and Infinity. `codebook` and `encode` reject them,
        naming the file and the video: k-means++ would fail on NaN weights, and
        bag-of-features would count a NaN row in centroid 0."""
        rng = make_rng(0)
        videos = {f"v{i}": {ch: rng.normal(size=(6, 2)).tolist() for ch in DESCRIPTOR_CHANNELS}
                  for i in range(4)}
        videos["v2"]["HOG"][3][0] = float("nan")
        desc, acts = tmp_path / "desc.json", tmp_path / "acts.json"
        desc.write_text(json.dumps({"videos": videos}))
        acts.write_text(json.dumps({"videos": {"v0": [[1.0, 2.0]], "v1": [[float("inf"), 0.0]]}}))
        books = [str(tmp_path / f"{ch}.vcbk") for ch in DESCRIPTOR_CHANNELS]
        for ch, book in zip(DESCRIPTOR_CHANNELS, books):
            Codebook(ch, rng.normal(size=(2, 2))).save(book)
        for args, path, vid in [
            (["codebook", "--descriptors", str(desc), "--channel", "HOG", "--k", "2"], desc, "v2"),
            (["encode", "--kind", "bof", "--descriptors", str(desc), "--codebooks", *books,
              "--name", "x"], desc, "v2"),
            (["encode", "--kind", "mean", "--activations", str(acts), "--name", "x"], acts, "v1"),
        ]:
            out = tmp_path / "out"
            assert main([*args, "--out", str(out)]) == 2
            assert capsys.readouterr().err == \
                f"data error: {path}: video {vid!r}: holds a non-finite number\n"
            assert not out.exists()

    @pytest.mark.parametrize("kind, video, channels, words", [
        ("pyramid", [{"scale1": [1, 2], "regions": [[1, 2]] * 25}], (),
         "expected 26 scale-2 regions, got shape (25, 2)"),
        ("pyramid", [], (), "pyramid_pool of an empty frame list"),
        ("mean", [], (), "mean_pool of an empty list"),
        ("bof", {ch: [[1.0] * 4] * 6 for ch in DESCRIPTOR_CHANNELS}, DESCRIPTOR_CHANNELS,
         "channel 'trajectory-shape': descriptors (6, 4) vs codebook dim 3"),
        ("bof", {ch: [[1.0] * 3] for ch in DESCRIPTOR_CHANNELS}, DESCRIPTOR_CHANNELS[:-1],
         "codebook for channel 'MBHy' missing"),
    ], ids=["regions", "no-frames", "no-rows", "wide-descriptors", "missing-codebook"])
    def test_encode_errors_name_file_and_video(self, tmp_path, capsys, kind, video, channels,
                                               words):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"videos": {"v0": video}}))
        books = [str(tmp_path / f"{ch}.vcbk") for ch in channels]
        for ch, book in zip(channels, books):
            Codebook(ch, np.zeros((2, 3))).save(book)
        flags = ["--descriptors", str(path), "--codebooks", *books] if kind == "bof" \
            else ["--activations", str(path)]
        out = tmp_path / "x.vfea"
        assert main(["encode", "--kind", kind, *flags, "--name", "x", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: {path}: video 'v0': {words}\n"
        assert not out.exists()

    def test_two_codebooks_for_one_channel_are_2(self, tmp_path, capsys):
        first, second = tmp_path / "a.vcbk", tmp_path / "b.vcbk"
        for path in (first, second):
            Codebook("HOG", np.zeros((1, 2))).save(path)
        desc = tmp_path / "desc.json"
        desc.write_text(json.dumps({"videos": {"v0": {"HOG": [[1, 2]]}}}))
        assert main(["encode", "--kind", "bof", "--descriptors", str(desc), "--codebooks",
                     str(first), str(second), "--name", "x",
                     "--out", str(tmp_path / "x.vfea")]) == 2
        err = capsys.readouterr().err
        assert str(first) in err and str(second) in err and "'HOG'" in err
        assert not (tmp_path / "x.vfea").exists()

    @pytest.mark.parametrize("centroids, words", [
        ([[np.nan, 0.0]], "tensor 'centroids' holds a non-finite value"),
        (np.zeros((0, 2)), "centroids must be (k,d) with k>=1, got (0, 2)"),
    ], ids=["nan", "empty"])
    def test_malformed_codebook_is_2(self, tmp_path, capsys, centroids, words):
        """A NaN centroid is a malformed file, exit 2 naming it, not a numeric
        error; so is a codebook without centroids."""
        book = tmp_path / "bad.vcbk"
        write_checkpoint(book, CODEBOOK_MAGIC, {"channel": "HOG"},
                         {"centroids": np.array(centroids, np.float32)})
        desc = tmp_path / "desc.json"
        desc.write_text(json.dumps({"videos": {"v0": {"HOG": [[1, 2]]}}}))
        assert main(["encode", "--kind", "bof", "--descriptors", str(desc), "--codebooks",
                     str(book), "--name", "x", "--out", str(tmp_path / "x.vfea")]) == 2
        assert capsys.readouterr().err == f"data error: {book}: {words}\n"

    def test_vocab_not_utf8_is_2(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        vocab = tmp_path / "vocab.tsv"
        vocab.write_bytes(b"\xff\xfe")
        assert main(["train-eval", *_stage_inputs(root)[:-1], str(vocab), "--config",
                     str(cfg_path), "--out", str(tmp_path / "e.vevp")]) == 2
        assert str(vocab) in capsys.readouterr().err

    @pytest.mark.parametrize("tokens, words", [
        (["<pad>", "<bos>", "<eos>", "<unk>", "cat", "cat"], "duplicate token in vocabulary"),
        (["<bos>", "<pad>", "<eos>", "<unk>", "cat"], "first four entries must be"),
    ], ids=["repeated-token", "reordered-reserved"])
    def test_bad_vocabulary_is_2(self, workspace, tmp_path, capsys, tokens, words):
        root, cfg_path = workspace
        vocab = tmp_path / "vocab.tsv"
        vocab.write_text("".join(f"{token}\t{i}\n" for i, token in enumerate(tokens)))
        assert main(["train-eval", *_stage_inputs(root)[:-1], str(vocab), "--config",
                     str(cfg_path), "--out", str(tmp_path / "e.vevp")]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {vocab}: {words}")

    @pytest.mark.parametrize("val_to", ["dev", "train"], ids=["unknown-split", "no-val-videos"])
    def test_bad_dataset_is_2(self, workspace, tmp_path, capsys, trained, val_to):
        """A record with an unknown split names the file and the record; a
        dataset without eval-split videos stops train-lm before it trains."""
        root, cfg_path = workspace
        doc = json.loads((root / "dataset.json").read_text())
        i, vid = next((i, v["id"]) for i, v in enumerate(doc["videos"]) if v["split"] == "val")
        for record in doc["videos"]:
            if record["split"] == "val":
                record["split"] = val_to
        data = tmp_path / "dataset.json"
        data.write_text(json.dumps(doc))
        out = tmp_path / "m-a.vlmp"
        assert main(["train-lm", "--data", str(data), *_stage_inputs(root)[2:], "--model", "m-a",
                     "--config", str(cfg_path), "--out", str(out)]) == 2
        words = f"videos[{i}]: video {vid!r}: unknown split 'dev'" if val_to == "dev" \
            else "need a non-empty val split"
        assert capsys.readouterr().err == f"data error: {data}: {words}\n"
        assert trained == [] and not out.exists()

    def test_repeated_video_id_in_dataset_is_2(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        doc = json.loads((root / "dataset.json").read_text())
        doc["videos"].append(doc["videos"][0])
        data = tmp_path / "dataset.json"
        data.write_text(json.dumps(doc))
        out = tmp_path / "vocab.tsv"
        assert main(["vocab", "--data", str(data), "--config", str(cfg_path),
                     "--out", str(out)]) == 2
        vid = doc["videos"][0]["id"]
        assert capsys.readouterr().err == f"data error: {data}: duplicate video ids: ['{vid}']\n"
        assert not out.exists()

    def test_vocab_empty_vocabulary_is_2(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads(cfg_path.read_text()), "min_count": 1000}))
        data, out = root / "dataset.json", tmp_path / "vocab.tsv"
        assert main(["vocab", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"data error: {data}: no word of the train captions occurs min_count=1000 times " \
            "or more, so the vocabulary is empty\n"
        assert not out.exists()

    def test_train_eval_without_train_videos_is_2(self, workspace, tmp_path, capsys, trained):
        root, cfg_path = workspace
        doc = json.loads((root / "dataset.json").read_text())
        for record in doc["videos"]:
            if record["split"] == "train":
                record["split"] = "val"
        data = tmp_path / "dataset.json"
        data.write_text(json.dumps(doc))
        assert main(["train-eval", "--data", str(data), *_stage_inputs(root)[2:], "--config",
                     str(cfg_path), "--out", str(tmp_path / "e.vevp")]) == 2
        assert capsys.readouterr().err == f"data error: {data}: need a non-empty train split\n"
        assert trained == []

    def test_score_unknown_video_is_2(self, workspace, tmp_path, capsys):
        root, _ = workspace
        captions = tmp_path / "caps.json"
        captions.write_text(json.dumps({"video0020": "a red cat", "nope": "a dog"}))
        assert main(["score", "--data", str(root / "dataset.json"),
                     "--captions", str(captions)]) == 2
        assert capsys.readouterr().err == \
            f"data error: {captions}: video 'nope' has no references in the val split\n"

    def test_directory_as_input_is_2(self, tmp_path, capsys):
        assert main(["score", "--data", str(tmp_path), "--captions", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_repeated_video_id_in_features_is_2(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        feats = tmp_path / "feat-a.vfea"
        write_feature_file(feats, "feat-a", [("v0", np.ones(3)), ("v0", np.zeros(3))])
        args = [str(feats) if a.endswith("feat-a.vfea") else a for a in _stage_inputs(root)]
        assert main(["train-eval", *args, "--config", str(cfg_path),
                     "--out", str(tmp_path / "e.vevp")]) == 2
        err = capsys.readouterr().err
        assert str(feats) in err and "'v0'" in err

    def test_video_repeated_across_feature_files_is_2(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        first, second = tmp_path / "a.vfea", tmp_path / "b.vfea"
        write_feature_file(first, "x", [("v0", np.ones(3))])
        write_feature_file(second, "x", [("v0", np.zeros(3))])
        args = _stage_inputs(root)
        at = args.index("--vocab")
        args[at:at] = [str(first), str(second)]  # two more --features files
        assert main(["train-eval", *args, "--config", str(cfg_path),
                     "--out", str(tmp_path / "e.vevp")]) == 2
        err = capsys.readouterr().err
        assert str(second) in err and "'x'" in err and "'v0'" in err

    def test_numeric_error_is_3(self, monkeypatch):
        from vidcap import cli
        from vidcap.errors import NumericError

        def boom(args):
            raise NumericError("loss went non-finite")

        monkeypatch.setattr(cli, "cmd_run", boom)
        assert cli.main(["run"]) == 3

    def test_key_error_is_not_a_data_error(self, workspace, tmp_path, monkeypatch):
        """Every lookup on outside input raises a VidcapError, so a KeyError is a
        bug: it propagates as a traceback instead of exiting 2."""
        root, _ = workspace
        captions = tmp_path / "caps.json"
        captions.write_text(json.dumps({"video0020": "a red cat"}))

        def lookup_bug(*args):
            raise KeyError("x")

        monkeypatch.setattr(harness, "score_split", lookup_bug)
        with pytest.raises(KeyError):
            main(["score", "--data", str(root / "dataset.json"), "--captions", str(captions)])


def _descriptors(path, n_videos=4, rows=12):
    rng = make_rng(0)
    doc = {"videos": {f"v{i}": {ch: rng.normal(size=(rows, 5)).tolist()
                                for ch in DESCRIPTOR_CHANNELS} for i in range(n_videos)}}
    path.write_text(json.dumps(doc))
    return doc


@pytest.fixture
def trained(monkeypatch) -> list:
    """The LM training steps and evaluator trainings run from here on."""
    calls = []
    real_step, real_train_evaluator = decoder.train_step, harness.train_evaluator
    monkeypatch.setattr(decoder, "train_step", lambda *a: calls.append("lm") or real_step(*a))
    monkeypatch.setattr(harness, "train_evaluator",
                        lambda *a, **k: calls.append("eval") or real_train_evaluator(*a, **k))
    return calls


class TestConfigValues:
    """Values that would train nothing or crash are usage errors, checked where
    they are used, so `run`, the stage commands and direct callers agree, and
    `run` checks the epoch counts and builds every stage's config before it
    trains anything; zero epochs is a valid no-op that leaves the initial
    parameters."""

    @pytest.mark.parametrize("command, flags, overrides, code", [
        ("run", [], {"batch_size": -3}, 1),
        ("run", [], {"batch_size": 0}, 1),
        ("run", [], {"seed": -1}, 1),
        ("run", ["--seed", "-5"], {}, 1),
        ("run", [], {"models": []}, 1),
        ("train-lm", ["--model", "m-a"], {"lm_epochs": 0}, 0),
        ("train-lm", ["--model", "m-a"], {"lm_epochs": -1}, 1),
        ("train-eval", [], {"eval_epochs": 0}, 0),
        ("train-eval", [], {"eval_epochs": -1}, 1),
        ("codebook", ["--seed", "-1"], None, 1),
        ("run", [], {"lm_epochs": -1}, 1),
        ("run", [], {"eval_epochs": -1}, 1),
        ("run", [], {"beam_size": 0}, 1),
        ("run", [], {"max_len": 0}, 1),
        ("run", [], {"margin": 0}, 1),
        ("run", [], {"n_negatives": 0}, 1),
        ("run", [], {"filter_widths": []}, 1),
        ("run", [], {"hidden": 0}, 1),
        ("run", [], {"models": [{"tag": "m", "init_feature": "categ", "persist_feature": f}
                                for f in ("feat-a", "feat-b")]}, 1),
        ("codebook", ["--k", "0"], None, 1),
    ])
    def test_exit_code_without_traceback(self, workspace, tmp_path, capsys, trained,
                                         command, flags, overrides, code):
        root, cfg_path = workspace
        if command == "codebook":
            _descriptors(tmp_path / "desc.json")
            args = ["--descriptors", str(tmp_path / "desc.json"), "--channel", "HOG",
                    "--k", "2", "--out", str(tmp_path / "b.vcbk")]
        else:
            cfg = {**json.loads(cfg_path.read_text()), **overrides}
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            args = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
            if command != "run":
                args += _stage_inputs(root)
        assert main([command, *args, *flags]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code:
            assert "usage error" in captured.err
            assert command != "run" or trained == []  # rejected before any training
        else:
            assert "final" in captured.out and "loss none" in captured.out

    def test_run_empty_vocabulary_is_2(self, workspace, tmp_path, capsys, trained):
        _, cfg_path = workspace
        cfg = {**json.loads(cfg_path.read_text()), "min_count": 1000}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert "[data]" in err and "vocabulary is empty" in err and "Traceback" not in err
        assert trained == []

    def test_overflowing_perplexity_is_3(self, workspace, tmp_path, capsys):
        """At learning rate 1e300 every weight stays finite, but the eval-split
        mean NLL passes 709, where exp overflows: a perplexity of inf would be
        written into results.json as `Infinity`, which is not JSON."""
        root, cfg_path = workspace
        cfg = {**json.loads(cfg_path.read_text()), "learning_rate": 1e300}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        args = ["--config", str(tmp_path / "cfg.json")]
        assert main(["run", *args, "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert re.search(r"^numeric error: \[train-lm:m-a\] perplexity is not finite: "
                         r"mean NLL per token \S+", err), err
        assert not (tmp_path / "run" / "results.json").exists()
        assert main(["train-lm", *_stage_inputs(root), "--model", "m-a", *args,
                     "--out", str(tmp_path / "m-a.vlmp")]) == 3
        assert "mean NLL per token" in capsys.readouterr().err

    def test_numeric_error_is_one_line(self, workspace, tmp_path):
        """numpy's overflow warnings, from this process and the forked worker,
        do not precede the numeric error on stderr. Run in a child process:
        pytest would capture the warnings."""
        _, cfg_path = workspace
        (tmp_path / "cfg.json").write_text(
            json.dumps({**json.loads(cfg_path.read_text()), "learning_rate": 1e300}))
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
        out = subprocess.run([sys.executable, "-m", "vidcap.cli", "run", "--config",
                              str(tmp_path / "cfg.json")], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 3
        assert re.fullmatch(r"numeric error: \[train-lm:m-a\] [^\n]*\n", out.stderr), out.stderr

    def test_beam_overflow_names_model_and_video(self, workspace, tmp_path):
        """A finite checkpoint whose logits overflow leaves beam search no
        hypothesis with a finite log-prob: exit 3, and one stderr line naming the
        model and the first eval video. Run in a child process, as above."""
        root, cfg_path = workspace
        store = harness.load_features(*_stage_inputs(root)[3:6])
        lm_cfg = LMConfig(vocab_size=len(Vocabulary.load(root / "vocab.tsv")),
                          init_dim=store.dim("categ"), persist_dim=store.dim("feat-a"),
                          depth=1, hidden=4, embed_dim=4)
        params = init_lm_params(lm_cfg, make_rng(0))
        params["out_W"][:], params["l1_b"][:] = 1.7e308, 50.0
        ckpt = tmp_path / "m.vlmp"
        save_lm(ckpt, lm_cfg, params, init_feature="categ", persist_feature="feat-a")
        first = min(r.id for r in harness.load_dataset(root / "dataset.json").split("val"))
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
        out = subprocess.run([sys.executable, "-m", "vidcap.cli", "generate", *_stage_inputs(root),
                              "--model", f"m={ckpt}", "--config", str(cfg_path),
                              "--out", str(tmp_path / "p.jsonl")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 3
        assert out.stderr == (f"numeric error: model 'm', video {first!r}: beam search found "
                              "no hypothesis with a finite log-prob\n")
        assert not (tmp_path / "p.jsonl").exists()

    def test_train_lm_bounds_the_beam(self, workspace, tmp_path, capsys, trained):
        """Stagewise train-lm rejects a beam that cannot fit in memory before it
        trains, as `run` does under [data]."""
        root, cfg_path = workspace
        cfg = {**json.loads(cfg_path.read_text()), "beam_size": 10**12}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "m-a.vlmp"
        assert main(["train-lm", *_stage_inputs(root), "--model", "m-a", "--config",
                     str(tmp_path / "cfg.json"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error: the beam scores and states of model 'm-a' need" in err
        assert "Traceback" not in err and trained == [] and not out.exists()

    @pytest.mark.parametrize("where", ["file", "under-a-file"])
    def test_run_out_not_a_directory_is_2(self, workspace, tmp_path, capsys, trained, where):
        _, cfg_path = workspace
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" if where == "file" else tmp_path / "file" / "sub"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[data]" in err and str(out) in err and "Traceback" not in err
        assert trained == []


@pytest.mark.parametrize("override", [
    {"hidden": 2_000_000_000}, {"filter_widths": [2, 100_000_000]},
    {"embed_dim": 100_000_000_000}, {"beam_size": 100_000_000},
    {"filter_widths": [2, 100_000]},
    {"models": [{"tag": "m-a", "init_feature": "categ", "persist_feature": "feat-a",
                 "depth": 100_000_000},
                {"tag": "m-b", "init_feature": "categ", "persist_feature": "feat-b"}]}],
    ids=["hidden", "filter_widths", "embed_dim", "beam_size", "filter_width_transient",
         "depth"])
def test_model_larger_than_memory_is_1(tmp_path, override):
    """A model whose parameters, whose beam's scores and states, or whose
    evaluator training update would not fit in physical memory is a usage
    error of the data stage, never a MemoryError. The child's address space
    is capped at 4 GiB, so that a missing bound fails fast instead of paging.
    The evaluator's filter of width 100000 has parameters that fit (0.8 GB),
    but an update of 46 rows (4 anchors' positives and all 42 train captions
    as shared negatives) padded to 100000 tokens needs 11.8 GB, so that row
    expects less physical memory than that, as the beam_size row expects less
    than 40 GB."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    (tmp_path / "cfg.json").write_text(json.dumps({**override, "synth": {"n_videos": 20}}))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-m", "vidcap.cli", "run", "--config",
                          str(tmp_path / "cfg.json")], env=env, preexec_fn=cap,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stderr
    assert "usage error: [data]" in out.stderr and "bytes of physical memory" in out.stderr
    assert "Traceback" not in out.stderr


# Runs `vidcap run --config` in-process over the (label, config) pairs read
# from stdin; prints, per case, the exit code (None for an escaped exception),
# standard error and whether any LM step or evaluator training ran.
_SWEEP = """
import contextlib, io, json, sys, traceback
from vidcap import cli, decoder, harness

trained, step, train_evaluator = [], decoder.train_step, harness.train_evaluator
decoder.train_step = lambda *a: trained.append(1) or step(*a)
harness.train_evaluator = lambda *a, **k: trained.append(1) or train_evaluator(*a, **k)
results = []
for label, cfg in json.load(sys.stdin):
    with open(sys.argv[1], "w") as f:
        json.dump(cfg, f)
    trained.clear()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["run", "--config", sys.argv[1]])
        except BaseException:
            code = None
            traceback.print_exc(file=err)
    results.append([label, code, err.getvalue(), bool(trained)])
print(json.dumps(results))
"""

# Values that ask for work the run must do: that many epochs, or max_len beam
# steps for a model whose beams never complete (TestBeamStop covers an absurd
# max_len on a model whose beams do).
_SWEEP_WORK = {"lm_epochs", "eval_epochs", "max_len"}


def test_config_sweep(workspace, tmp_path):
    """Every int and float field of the config, its synth settings and its
    first model, at 0, -1 and an absurd value (10**9 or 1e300; for the fields
    in _SWEEP_WORK only 0 and -1), through `vidcap run --config` in one child
    process whose address space is capped at 4 GiB. Each run exits 0, 1, 2 or
    3 without a traceback or a MemoryError. A 1 or 2 trains nothing and names
    the data stage, or, for a value the config file's decoding rejects (the
    synth settings check themselves), the config file. A 3 names its stage."""
    _, cfg_path = workspace
    base = {**json.loads(cfg_path.read_text()),
            "models": [{"tag": "m-a", "init_feature": "categ", "persist_feature": "feat-a"},
                       {"tag": "m-b", "init_feature": "categ", "persist_feature": "feat-b"}]}
    cases = []
    for where, cls in (((), harness.ExperimentConfig), (("synth",), harness.SynthConfig),
                       (("models", 0), harness.ModelSpec)):
        for name, tp in typing.get_type_hints(cls).items():
            if tp not in (int, float):
                continue
            for value in (0, -1) if name in _SWEEP_WORK else (0, -1, 10**9 if tp is int else 1e300):
                cfg = json.loads(json.dumps(base))
                target = cfg
                for key in where:
                    target = target[key]
                target[name] = tp(value)
                cases.append([".".join(map(str, (*where, name))) + f"={value}", cfg])

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    path = tmp_path / "cfg.json"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", _SWEEP, str(path)], input=json.dumps(cases),
                         env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    bad = []
    for label, code, err, trained in json.loads(out.stdout.splitlines()[-1]):
        ok = code in (0, 1, 2, 3) and "Traceback" not in err and "MemoryError" not in err
        if code in (1, 2):
            ok &= not trained and ("[data]" in err or (code == 2 and str(path) in err))
        if code == 3:
            ok &= re.search(r"^numeric error: \[(train-lm:|train-eval|generate-rerank|score)",
                            err, re.M) is not None
        if not ok:
            bad.append(f"{label}: exit {code}, trained {trained}: {err[-300:]}")
    assert bad == []


# Runs `vidcap` in-process over the (case, argv) pairs read from stdin; prints,
# per case, the exit code and standard error.
_CASES = """
import contextlib, io, json, sys
from vidcap import cli

results = {}
for case, argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results[case] = [cli.main(argv), err.getvalue()]
print(json.dumps(results))
"""

# Every subcommand that writes a file; synth, score and run write into an --out directory.
WRITERS = ("synth", "vocab", "codebook", "encode", "train-lm", "train-eval", "generate",
           "rerank", "score", "run")


@pytest.fixture(scope="module")
def limited_writes(workspace, tmp_path_factory) -> dict:
    """Each writer subcommand, over inputs made here, run once in one child
    process whose files may not grow past 16 bytes (RLIMIT_FSIZE: Python
    ignores SIGXFSZ, so the write fails with EFBIG). Each first writes a path
    that holds an old file: {case: (that path, exit code, stderr)}."""
    root, cfg_path = workspace
    base = tmp_path_factory.mktemp("writers")
    cfg, inputs = ["--config", str(cfg_path)], _stage_inputs(root)
    lm, ev, pool, chosen = (str(base / n) for n in ("m.vlmp", "e.vevp", "p.jsonl", "c.json"))
    assert main(["train-lm", *inputs, "--model", "m-a", *cfg, "--out", lm]) == 0
    assert main(["train-eval", *inputs, *cfg, "--out", ev]) == 0
    assert main(["generate", *inputs, "--model", f"m-a={lm}", *cfg, "--out", pool]) == 0
    assert main(["rerank", "--pool", pool, "--evaluator", ev, *inputs[2:], "--out", chosen]) == 0
    _descriptors(base / "desc.json")
    (base / "acts.json").write_text(json.dumps({"videos": {"v0": [[1.0, 2.0], [3.0, 4.0]]}}))
    cases = {  # case: (argv without --out, the file it writes first)
        "synth": (["synth", *cfg], "dataset.json"),
        "vocab": (["vocab", "--data", inputs[1], *cfg], "vocab.tsv"),
        "codebook": (["codebook", "--descriptors", str(base / "desc.json"), "--channel", "HOG",
                      "--k", "2"], "HOG.vcbk"),
        "encode": (["encode", "--kind", "mean", "--activations", str(base / "acts.json"),
                    "--name", "g"], "g.vfea"),
        "train-lm": (["train-lm", *inputs, "--model", "m-a", *cfg], "m-a.vlmp"),
        "train-eval": (["train-eval", *inputs, *cfg], "e.vevp"),
        "generate": (["generate", *inputs, "--model", f"m-a={lm}", *cfg], "pools.jsonl"),
        "rerank": (["rerank", "--pool", pool, "--evaluator", ev, *inputs[2:]], "chosen.json"),
        "score": (["score", "--data", inputs[1], "--captions", chosen, *cfg], "report.txt"),
        "run": (["run", *cfg], "dataset.json"),
    }
    argvs, targets = [], {}
    for case in WRITERS:
        argv, name = cases[case]
        (base / case).mkdir()
        targets[case] = target = base / case / name
        target.write_bytes(b"old\n")
        out = target.parent if case in ("synth", "score", "run") else target
        argvs.append([case, [*argv, "--out", str(out)]])

    def limit():
        resource.setrlimit(resource.RLIMIT_FSIZE,
                           (16, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    out = subprocess.run([sys.executable, "-c", _CASES], input=json.dumps(argvs), env=env,
                         preexec_fn=limit, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    results = json.loads(out.stdout.splitlines()[-1])
    return {case: (targets[case], *results[case]) for case in WRITERS}


@pytest.mark.parametrize("case", WRITERS)
def test_failed_write_names_its_file_and_keeps_the_old_one(limited_writes, case):
    """A write that fails exits 2 with one line naming the file, under [write]
    for `run`; the old file keeps its bytes and no temporary file is left."""
    target, code, err = limited_writes[case]
    stage = "[write] " if case == "run" else ""
    assert (code, err) == (2, f"data error: {stage}{target}: [Errno 27] File too large\n")
    assert target.read_bytes() == b"old\n"
    assert os.listdir(target.parent) == [target.name]


class TestFlagPaths:
    def test_seed_flag_overrides_config_seed(self, tmp_path):
        cfg = {"lm_epochs": 1, "eval_epochs": 1, "hidden": 8, "embed_dim": 8, "joint_dim": 8,
               "filters_per_width": 4, "min_count": 1, "synth": {"n_videos": 16},
               "models": [{"tag": "m", "init_feature": "categ", "persist_feature": "feat-a",
                           "depth": 1}]}
        for seed in (2, 5):
            (tmp_path / f"cfg{seed}.json").write_text(json.dumps({**cfg, "seed": seed}))
        assert main(["run", "--config", str(tmp_path / "cfg2.json"), "--seed", "5",
                     "--out", str(tmp_path / "flag")]) == 0
        assert main(["run", "--config", str(tmp_path / "cfg5.json"),
                     "--out", str(tmp_path / "config")]) == 0
        written = sorted(p.name for p in (tmp_path / "config").iterdir())
        assert len(written) == 9
        assert sorted(p.name for p in (tmp_path / "flag").iterdir()) == written
        for name in written:
            assert (tmp_path / "flag" / name).read_bytes() == \
                (tmp_path / "config" / name).read_bytes(), name

    def test_model_without_path_is_1(self, workspace, tmp_path, capsys):
        root, cfg_path = workspace
        assert main(["generate", *_stage_inputs(root), "--model", "m-a", "--config",
                     str(cfg_path), "--out", str(tmp_path / "pool.jsonl")]) == 1
        assert "tag=path" in capsys.readouterr().err

    def test_codebook_max_samples_subsamples(self, tmp_path):
        from vidcap.features import Codebook, kmeans
        doc = _descriptors(tmp_path / "desc.json")
        out = tmp_path / "hog.vcbk"
        assert main(["codebook", "--descriptors", str(tmp_path / "desc.json"), "--channel",
                     "HOG", "--k", "3", "--max-samples", "10", "--seed", "4",
                     "--out", str(out)]) == 0
        samples = np.concatenate([doc["videos"][vid]["HOG"] for vid in sorted(doc["videos"])])
        rng = make_rng(4)
        picked = samples[np.sort(rng.choice(len(samples), size=10, replace=False))]
        centroids, _, _ = kmeans(picked, 3, rng)
        assert np.array_equal(Codebook.load(out).centroids, centroids.astype(np.float32))

    def test_bof_without_descriptors_is_1(self, tmp_path, capsys):
        assert main(["encode", "--kind", "bof", "--name", "x",
                     "--out", str(tmp_path / "x.vfea")]) == 1
        assert "--descriptors" in capsys.readouterr().err


@pytest.mark.parametrize("preset, pinned", [({}, "1"), ({"OMP_NUM_THREADS": "2"}, None)],
                         ids=["unset", "caller-set"])
def test_cli_pins_blas_unless_the_caller_did(preset, pinned):
    """Importing the CLI in a fresh interpreter pins BLAS to one thread before
    numpy loads, so `run` trains in a worker beside the calling process on two
    or more CPUs; a thread count the caller set is left alone."""
    probe = "import os, vidcap.cli as c; " \
            "print(repr(os.environ.get('OPENBLAS_NUM_THREADS')), c.harness._can_fork())"
    env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREADS}
    env.update(preset, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    value, can_fork = out.stdout.split()
    assert value == repr(pinned)
    if pinned:
        assert can_fork == str(len(os.sched_getaffinity(0)) > 1)
