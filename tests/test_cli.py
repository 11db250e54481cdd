import json

import pytest

from vidcap.cli import main
from vidcap.decoder import LMConfig, init_lm_params, save_lm
from vidcap.features import DESCRIPTOR_CHANNELS
from vidcap.numerics import make_rng


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
    """The stagewise chain over one config writes the files `vidcap run` writes."""
    root, cfg_path = workspace
    cfg = ["--config", str(cfg_path)]
    inputs = _stage_inputs(root)
    tags = ("m-a", "m-b")  # the default roster
    for tag in tags:
        assert main(["train-lm", *inputs, "--model", tag, *cfg,
                     "--out", str(root / f"{tag}.vlmp")]) == 0
    assert main(["train-eval", *inputs, *cfg, "--out", str(root / "e.vevp")]) == 0
    models = [arg for tag in tags for arg in ("--model", f"{tag}={root / tag}.vlmp")]
    assert main(["generate", *inputs, *models, *cfg, "--out", str(root / "pool.jsonl")]) == 0
    assert main(["rerank", "--pool", str(root / "pool.jsonl"), "--evaluator",
                 str(root / "e.vevp"), *inputs[2:], *cfg,  # inputs without --data
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
    ensemble = json.loads((run_dir / "results.json").read_text())["ensemble"]
    for key in ("bleu4", "cider", "rouge_l"):
        assert report[key] == ensemble[key], key


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

    def test_numeric_error_is_3(self, monkeypatch):
        from vidcap import cli
        from vidcap.errors import NumericError

        def boom(args):
            raise NumericError("loss went non-finite")

        monkeypatch.setattr(cli, "cmd_run", boom)
        assert cli.main(["run"]) == 3
