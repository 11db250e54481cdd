import errno
import json
import math
import os
import re
import signal
import threading
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vidcap import binio, cli, decoder, evaluator, harness, metrics
from vidcap.decoder import init_lm_params, lm_param_shapes
from vidcap.ensemble import GeneratorModel
from vidcap.errors import DataError, FormatError, NumericError, ParameterError
from vidcap.evaluator import check_training_fits, evaluator_param_shapes
from vidcap.harness import (
    Dataset,
    ExperimentConfig,
    FeatureStore,
    ModelSpec,
    SYNTH_FIXED_OBJECT,
    SYNTH_OBJECTS,
    SynthConfig,
    VideoRecord,
    load_dataset,
    load_features,
    run_experiment,
    save_dataset,
    save_features,
    synth_generate,
)
from vidcap.numerics import make_rng
from vidcap.text import tokenize


class TestVideoRecord:
    def test_category_out_of_range(self):
        with pytest.raises(DataError):
            VideoRecord(id="v", category=25, captions=["a"], split="train")

    def test_train_needs_captions(self):
        with pytest.raises(DataError):
            VideoRecord(id="v", category=0, captions=[], split="train")

    def test_test_split_may_lack_captions(self):
        VideoRecord(id="v", category=0, captions=[], split="test")


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        ds = Dataset([
            VideoRecord("v0", 3, ["a cat sits", "a cat rests"], "train"),
            VideoRecord("v1", 7, ["a dog runs"], "val"),
        ])
        path = tmp_path / "d.json"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert [r.id for r in loaded.records] == ["v0", "v1"]
        assert loaded.records[0].captions == ["a cat sits", "a cat rests"]
        assert loaded.counts() == {"train": 1, "val": 1, "test": 0}

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            Dataset([VideoRecord("v", 0, ["a"], "train"),
                     VideoRecord("v", 0, ["b"], "train")])

    def test_malformed_record_names_index(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"videos": [
            {"id": "v0", "category": 1, "split": "train", "captions": ["x"]},
            {"id": "v1", "split": "train", "captions": ["y"]},
        ]}))
        with pytest.raises(DataError, match=r"videos\[1\]"):
            load_dataset(path)

    @pytest.mark.parametrize("doc", [{"videos": 5}, {"videos": [
        {"id": "v0", "category": 1, "split": "train", "captions": "a cat"}]}])
    def test_wrong_types_rejected(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="bad.json"):
            load_dataset(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("not json {{{")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_empty_videos_ok(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"videos": []}))
        assert load_dataset(path).records == []


class TestFeatureStore:
    def test_round_trip_bit_exact(self, tmp_path):
        store = FeatureStore()
        rng = make_rng(0)
        for i in range(10):
            store.add("gcnn", f"v{i}", rng.normal(size=8))
        p1, p2 = tmp_path / "a.vfea", tmp_path / "b.vfea"
        save_features(store, "gcnn", p1)
        loaded = load_features(p1)
        save_features(loaded, "gcnn", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_compound_name_resolution(self):
        store = FeatureStore()
        store.add("a", "v", [1.0, 2.0])
        store.add("b", "v", [3.0])
        store.add("c", "v", [4.0])
        assert np.allclose(store.get("v", "a+b+c"), [1.0, 2.0, 3.0, 4.0])
        assert store.dim("a+b+c") == 4

    def test_unknown_name_raises_data_error(self):
        store = FeatureStore()
        store.add("a", "v", [1.0])
        with pytest.raises(DataError, match=r"'nope'.*'v'"):
            store.get("v", "nope")
        with pytest.raises(DataError, match=r"'nope'.*'v'"):
            store.get("v", "a+nope")
        with pytest.raises(DataError, match=r"'a'.*'other'"):
            store.get("other", "a")
        with pytest.raises(DataError, match="'nope'"):
            store.dim("a+nope")

    def test_dim_consistency_enforced(self):
        store = FeatureStore()
        store.add("a", "v0", [1.0, 2.0])
        with pytest.raises(DataError):
            store.add("a", "v1", [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        store = FeatureStore()
        with pytest.raises(DataError, match=r"'x' for 'v0'.*non-finite"):
            store.add("x", "v0", [bad, 1.0])
        assert store.videos("x") == []

    def test_non_finite_value_rejected_at_load(self, tmp_path):
        path = tmp_path / "nan.vfea"
        binio.write_feature_file(path, "gcnn", [("v0", np.ones(2, np.float32)),
                                                ("v1", np.array([1.0, np.nan], np.float32))])
        with pytest.raises(FormatError, match=r"nan\.vfea: tensor 'values' holds a non-finite"):
            load_features(path)

    def test_video_repeated_across_files_rejected(self, tmp_path):
        a, b, c = tmp_path / "a.vfea", tmp_path / "b.vfea", tmp_path / "c.vfea"
        binio.write_feature_file(a, "x", [("v0", np.ones(2)), ("v1", np.ones(2))])
        binio.write_feature_file(b, "x", [("v0", np.zeros(2))])
        binio.write_feature_file(c, "x", [("v2", np.zeros(2))])
        with pytest.raises(FormatError, match=r"b\.vfea: feature 'x' for video 'v0'"):
            load_features(a, b)
        assert load_features(a, c).videos("x") == ["v0", "v1", "v2"]  # one feature, two files

    def test_repeated_video_rejected(self):
        store = FeatureStore()
        store.add("x", "v0", [1.0])
        store.add("y", "v0", [1.0])  # another feature of the same video
        with pytest.raises(DataError, match="feature 'x' for video 'v0' is already in the store"):
            store.add("x", "v0", [2.0])
        assert store.get("v0", "x").tolist() == [1.0]

    @pytest.mark.parametrize("rows, words", [
        ([("v1", np.ones(2)), ("v1", np.zeros(2))],
         "feature 'x' for video 'v1' is already in the store"),
        ([("v1", np.ones(3))], "feature 'x': dim 3 != established dim 2"),
    ], ids=["repeat-within-a-file", "dim-across-files"])
    def test_rejected_row_names_its_file(self, tmp_path, rows, words):
        """The store rejects the row, and load_features names the file it came from."""
        a, b = tmp_path / "a.vfea", tmp_path / "b.vfea"
        binio.write_feature_file(a, "x", [("v0", np.ones(2))])
        binio.write_feature_file(b, "x", rows)
        with pytest.raises(FormatError, match=re.escape(f"{b}: {words}")):
            load_features(a, b)

    def test_empty_family_saves_zero_count_file(self, tmp_path):
        store = FeatureStore()
        path = tmp_path / "none.vfea"
        save_features(store, "ghost", path)
        loaded = load_features(path)
        assert loaded.videos("ghost") == []


def _mi(xs, ys):
    """Empirical mutual information of two discrete sequences (nats)."""
    n = len(xs)
    joint = Counter(zip(xs, ys))
    px = Counter(xs)
    py = Counter(ys)
    mi = 0.0
    for (x, y), c in joint.items():
        p = c / n
        mi += p * math.log(p * n * n / (px[x] * py[y]))
    return mi


class TestSynth:
    def test_byte_identical_given_seed(self, tmp_path):
        cfg = SynthConfig(n_videos=50)
        blobs = []
        for run in range(2):
            ds, store = synth_generate(cfg, make_rng(99))
            d_path = tmp_path / f"d{run}.json"
            save_dataset(ds, d_path)
            parts = [d_path.read_bytes()]
            for name in store.names():
                f_path = tmp_path / f"{run}-{name}.vfea"
                save_features(store, name, f_path)
                parts.append(f_path.read_bytes())
            blobs.append(b"".join(parts))
        assert blobs[0] == blobs[1]

    def test_captions_contain_object_concept(self):
        ds, _ = synth_generate(SynthConfig(n_videos=30), make_rng(1))
        object_words = set(SYNTH_OBJECTS) | {SYNTH_FIXED_OBJECT}
        for rec in ds.records:
            for cap in rec.captions:
                assert object_words & set(tokenize(cap)), cap

    def test_split_sizes(self):
        ds, _ = synth_generate(SynthConfig(n_videos=100), make_rng(2))
        counts = ds.counts()
        assert counts == {"train": 70, "val": 15, "test": 15}

    def test_feature_a_more_informative_about_objects(self):
        ds, store = synth_generate(SynthConfig(n_videos=200), make_rng(3))
        object_words = set(SYNTH_OBJECTS) | {SYNTH_FIXED_OBJECT}
        objects, bins_a, bins_b = [], [], []
        for rec in ds.records:
            words = set(tokenize(rec.captions[0])) & object_words
            assert len(words) == 1
            objects.append(words.pop())
            bins_a.append(int(np.argmax(store.get(rec.id, "feat-a"))))
            bins_b.append(int(np.argmax(store.get(rec.id, "feat-b"))))
        mi_a = _mi(bins_a, objects)
        mi_b = _mi(bins_b, objects)
        assert mi_a > mi_b

    def test_degenerate_config_rejected(self):
        with pytest.raises(ParameterError):
            SynthConfig(n_videos=0)
        with pytest.raises(ParameterError):
            SynthConfig(n_videos=10_000)
        for bad in ({"noise_sigma": -0.1}, {"train_frac": -0.1}, {"val_frac": -0.1},
                    {"train_frac": 0.9, "val_frac": 0.2}, {"val_frac": 1e300}):
            with pytest.raises(ParameterError, match="noise_sigma|train_frac and val_frac"):
                SynthConfig(**bad)
        SynthConfig(noise_sigma=0.0, train_frac=0.9, val_frac=0.1)  # the bounds are inclusive


class TestExperimentConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = ExperimentConfig(seed=7, lm_epochs=3)
        cfg.models = [ModelSpec("only", "categ", "feat-a", depth=1)]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        loaded = ExperimentConfig.load(path)
        assert loaded == cfg

    def test_duplicate_tags_rejected(self):
        cfg = ExperimentConfig()
        cfg.models = [ModelSpec("m", "categ", "feat-a"), ModelSpec("m", "categ", "feat-b")]
        cfg.synth = SynthConfig(n_videos=20)
        cfg.lm_epochs = cfg.eval_epochs = 1
        with pytest.raises(ParameterError, match=r"^\[data\] model tags must be unique"):
            run_experiment(cfg)


def _physical_memory(monkeypatch, n_bytes: int) -> None:
    """os.sysconf reports n_bytes of physical memory, in 8-byte pages."""
    real = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: {
        "SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": n_bytes // 8}.get(name) or real(name))


class TestRunExperiment:
    @pytest.mark.parametrize("n_negatives, rows", [(5, 9), (10**9, 46)])
    def test_evaluator_update_bounded_before_training(self, monkeypatch, n_negatives, rows):
        """prepare_evaluator, which `vidcap train-eval` calls, sizes the bound for
        the 4 anchors' positives and n_negatives shared rows, at most the 14 x
        3 train captions, padded to the widest filter or the longest train
        caption: BOS, six words such as "a red cat is posing today", EOS."""
        calls = []
        monkeypatch.setattr(evaluator, "check_fits_in_memory", lambda shapes, what: calls.extend(
            [shapes["embedded rows"][1:3]] if "embedded rows" in shapes else []))
        monkeypatch.setattr(harness, "train_evaluator",
                            lambda *a, **k: calls.append("trained") or ({}, []))
        for widths, cols in (((2, 3), 8), ((2, 40), 40)):
            calls.clear()
            cfg = ExperimentConfig(n_negatives=n_negatives, filter_widths=widths,
                                   synth=SynthConfig(n_videos=20))
            dataset, store = harness.load_data(cfg)
            harness.prepare_evaluator(cfg, dataset, store, harness.make_vocab(cfg, dataset))()
            assert calls == [(rows, cols), "trained"]

    def test_evaluator_update_bound_fails_under_data(self, monkeypatch):
        """With physical memory one float short of the evaluator's parameters,
        gradients and RMSProp accumulators plus an update of 4 positives and 42
        shared negatives (all 14 x 3 train captions) padded to the width-600
        filter, `run` stops under [data] before training. Exactly that much
        memory passes."""
        E, F, W = 32, 32, 600
        cfg = ExperimentConfig(filter_widths=(2, W), synth=SynthConfig(n_videos=20))
        dataset, store = harness.load_data(cfg)
        vocab = harness.make_vocab(cfg, dataset)
        eval_cfg = harness.evaluator_config(cfg, store, vocab)
        n_params = sum(math.prod(s) for s in evaluator_param_shapes(eval_cfg).values())
        # three copies of the parameters; embedded rows, windows and pre-activations, twice
        need = 8 * (3 * n_params + 2 * 46 * (W * E + (W - 1) * (2 * E + F) + W * E + F))

        trained = []
        monkeypatch.setattr(harness, "train_evaluator", lambda *a, **k: trained.append(1))
        monkeypatch.setattr(harness, "fit_lm", lambda *a, **k: trained.append(1))
        _physical_memory(monkeypatch, need - 8)
        with pytest.raises(ParameterError, match=rf"^\[data\] the evaluator's parameters, "
                                                 rf"gradients, RMSProp accumulators and "
                                                 rf"training update need {need} bytes"):
            run_experiment(cfg)
        assert trained == []
        _physical_memory(monkeypatch, need)
        check_training_fits(dataset.split("train"), vocab, eval_cfg)

    def test_generator_training_bound_fails_under_data(self, monkeypatch, tmp_path, capsys):
        """Memory that holds the largest model's parameters twice but not
        three times (parameters, gradients and RMSProp accumulators) stops
        `vidcap run` under [data] with exit 1 before any training; exactly
        three times passes."""
        cfg = ExperimentConfig(hidden=600, synth=SynthConfig(n_videos=20))
        dataset, store = harness.load_data(cfg)
        vocab = harness.make_vocab(cfg, dataset)
        lm_cfgs = [harness.lm_config(cfg, spec, store, vocab) for spec in cfg.models]
        n_params = max(sum(math.prod(s) for s in lm_param_shapes(c).values()) for c in lm_cfgs)
        trained = []
        for name in ("init_lm_params", "fit_lm", "train_evaluator"):
            monkeypatch.setattr(harness, name, lambda *a, _name=name, **k: trained.append(_name))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        _physical_memory(monkeypatch, 2 * 8 * n_params)
        assert cli.main(["run", "--config", str(path)]) == 1
        assert re.match(r"usage error: \[data\] the parameters, gradients and RMSProp "
                        r"accumulators of model '[^']+' need \d+ bytes", capsys.readouterr().err)
        assert trained == []
        _physical_memory(monkeypatch, 3 * 8 * n_params)
        for spec in cfg.models:
            harness.lm_config(cfg, spec, store, vocab)

    def test_data_stage_checks_each_stage_once(self, monkeypatch):
        """The data stage prepares every training stage, which checks its
        inputs once: one lm_config per roster model, one evaluator bound."""
        calls = Counter()
        for name in ("lm_config", "check_training_fits"):
            real = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *a, _name=name, _real=real:
                                calls.update([_name]) or _real(*a))
        run_experiment(_two_specialists())
        assert calls == {"lm_config": 2, "check_training_fits": 1}

    def test_model_rows_score_each_models_own_captions(self, monkeypatch):
        """Row i scores entry i of every pool, which generate_pool fills in
        roster order: here m-a's captions are one unseen word and m-b's the
        first reference."""
        real = harness.generate_pools

        def known_captions(cfg, models, dataset, store, vocab):
            pools = real(cfg, models, dataset, store, vocab)
            references = dataset.references(cfg.eval_split)
            for pool in pools:
                pool.entries[0].caption = "nothing"
                pool.entries[1].caption = references[pool.video_id][0]
            return pools

        monkeypatch.setattr(harness, "generate_pools", known_captions)
        cfg = ExperimentConfig(lm_epochs=1, eval_epochs=1, synth=SynthConfig(n_videos=20))
        rows = run_experiment(cfg).model_rows
        assert [row["tag"] for row in rows] == ["m-a", "m-b"]
        assert rows[0]["bleu4"] == rows[0]["cider"] == 0.0 < rows[1]["cider"]

    def test_single_model_roster_ensemble_equals_model(self):
        cfg = ExperimentConfig(seed=5)
        cfg.models = [ModelSpec("solo", "categ", "feat-a+feat-b", depth=1)]
        cfg.synth = SynthConfig(n_videos=30)
        cfg.lm_epochs = 4
        cfg.eval_epochs = 2
        cfg.hidden = cfg.embed_dim = 32
        result = run_experiment(cfg)
        row = result.model_rows[0]
        for key in ("bleu4", "cider", "rouge_l"):
            assert result.ensemble_row[key] == pytest.approx(row[key])

    def test_missing_feature_rejected_with_stage_tag(self):
        cfg = ExperimentConfig(seed=1)
        cfg.models = [ModelSpec("m", "categ", "no-such-feature")]
        cfg.synth = SynthConfig(n_videos=16)
        with pytest.raises(DataError, match=r"\[data\].*no-such-feature"):
            run_experiment(cfg)

    def test_stage_tags_a_message_that_starts_with_a_bracket(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "[x].json").write_text("{not json")
        with pytest.raises(DataError, match=r"^\[data\] \[x\]\.json: not valid JSON"):
            run_experiment(ExperimentConfig(data_path="[x].json"))

    def test_missing_evaluator_feature_rejected_before_training(self, monkeypatch):
        monkeypatch.setattr(harness, "fit_lm", lambda *a, **k: pytest.fail("train-lm ran"))
        with pytest.raises(DataError, match=r"\[data\].*nope"):
            run_experiment(ExperimentConfig(evaluator_feature="nope"))

    def test_generate_pools_bounds_the_beam(self):
        cfg = ExperimentConfig(beam_size=10**12, synth=SynthConfig(n_videos=20))
        dataset, store = harness.load_data(cfg)
        vocab = harness.make_vocab(cfg, dataset)
        spec = cfg.models[0]
        lm_cfg = harness.lm_config(cfg, spec, store, vocab)
        model = GeneratorModel(spec.tag, lm_cfg, init_lm_params(lm_cfg, make_rng(0)),
                               spec.init_feature, spec.persist_feature)
        with pytest.raises(ParameterError, match=r"beam scores and states of model 'm-a' need"):
            harness.generate_pools(cfg, [model], dataset, store, vocab)

    def test_output_files_written(self, tmp_path):
        cfg = ExperimentConfig(seed=3)
        cfg.models = [ModelSpec("m", "categ", "feat-a", depth=1)]
        cfg.synth = SynthConfig(n_videos=20)
        cfg.lm_epochs = cfg.eval_epochs = 1
        cfg.hidden = cfg.embed_dim = 16
        run_experiment(cfg, out_dir=tmp_path / "out")
        for name in ("dataset.json", "results.txt", "results.json", "pools.jsonl",
                     "chosen.json", "vocab.tsv", "feat-a.vfea", "feat-b.vfea",
                     "categ.vfea"):
            assert (tmp_path / "out" / name).exists(), name

    def test_no_reserved_tokens_in_captions(self):
        cfg = ExperimentConfig(seed=2)
        cfg.models = [ModelSpec("m", "categ", "feat-a", depth=1)]
        cfg.synth = SynthConfig(n_videos=20)
        cfg.lm_epochs = 2
        cfg.eval_epochs = 1
        cfg.hidden = cfg.embed_dim = 16
        result = run_experiment(cfg)
        for caption in result.chosen.values():
            assert "<" not in caption and ">" not in caption


def _two_specialists() -> ExperimentConfig:
    """A small two-model roster whose models tell apart by depth in fit_lm."""
    cfg = ExperimentConfig(seed=4, lm_epochs=2, eval_epochs=1, n_negatives=5,
                           hidden=16, embed_dim=16, joint_dim=16, filters_per_width=4,
                           min_count=1, synth=SynthConfig(n_videos=30))
    cfg.models = [ModelSpec("m-a", "categ", "feat-a", depth=1),
                  ModelSpec("m-b", "categ", "feat-b", depth=2)]
    return cfg


def _fail_model(monkeypatch, depth: int, fail) -> None:
    """Make fit_lm call fail() for the roster model of the given depth; a
    forked worker inherits the patch."""
    real_fit_lm = harness.fit_lm

    def fit_lm(params, lm_cfg, *args, **kwargs):
        if lm_cfg.depth == depth:
            fail()
        return real_fit_lm(params, lm_cfg, *args, **kwargs)

    monkeypatch.setattr(harness, "fit_lm", fit_lm)


def _raise(exc):
    def fail():
        raise exc
    return fail


def _count_forks(monkeypatch) -> list:
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    return forks


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture(params=[False, True], ids=["in-process", "forked"])
def split(request, monkeypatch):
    """Force run_experiment's training split to one path, and count its forks."""
    monkeypatch.setattr(harness, "_can_fork", lambda: request.param)
    yield SimpleNamespace(forked=request.param, forks=_count_forks(monkeypatch))
    assert _no_child_left()


class TestTrainingWorker:
    """Roster models 2..k train in a forked worker when _can_fork() allows;
    the results, the errors and the processes left over do not depend on it."""

    def test_can_fork_needs_two_cpus_and_one_thread(self, monkeypatch):
        monkeypatch.setattr(os, "listdir", lambda path: ["1"])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not harness._can_fork()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert harness._can_fork()
        monkeypatch.undo()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert not harness._can_fork()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_can_fork_without_proc_says_no(self, monkeypatch):
        def no_proc(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "listdir", no_proc)
        assert not harness._can_fork()
        monkeypatch.delattr(os, "sched_getaffinity")
        assert not harness._can_fork()

    def test_artifacts_identical_on_both_paths(self, monkeypatch, tmp_path):
        outputs = {}
        for fork in (False, True):
            with monkeypatch.context() as patch:
                patch.setattr(harness, "_can_fork", lambda: fork)
                forks = _count_forks(patch)
                out = tmp_path / str(fork)
                run_experiment(_two_specialists(), out_dir=out)
            assert len(forks) == fork
            outputs[fork] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(outputs[True]) == 9
        assert outputs[True] == outputs[False]
        assert _no_child_left()

    def test_worker_error_keeps_its_stage_and_exit_code(self, split, monkeypatch, tmp_path,
                                                       capsys):
        _fail_model(monkeypatch, 2, _raise(NumericError("loss went non-finite")))
        (tmp_path / "cfg.json").write_text(json.dumps(asdict(_two_specialists())))
        assert cli.main(["run", "--config", str(tmp_path / "cfg.json")]) == 3
        err = capsys.readouterr().err
        assert "[train-lm:m-b] loss went non-finite" in err and "Traceback" not in err
        assert len(split.forks) == split.forked

    def test_evaluator_error_raised_after_the_worker_joins(self, split, monkeypatch):
        """The evaluator's error reaches the caller with its tag once the
        worker, still training model 2, has been reaped."""
        monkeypatch.setattr(harness, "train_evaluator",
                            lambda *a, **k: _raise(DataError("evaluator failed"))())
        with pytest.raises(DataError, match=r"^\[train-eval\] evaluator failed$"):
            run_experiment(_two_specialists())
        assert len(split.forks) == split.forked

    def test_evaluator_error_wins_over_a_later_model(self, split, monkeypatch):
        """Errors surface in run order, model 1, the evaluator, models 2..k, and
        no model trains in this process after the evaluator failed."""
        _fail_model(monkeypatch, 2, _raise(NumericError("m-b diverged")))
        depths, fit_lm = [], harness.fit_lm
        monkeypatch.setattr(harness, "fit_lm", lambda params, lm_cfg, *a, **k:
                            depths.append(lm_cfg.depth) or fit_lm(params, lm_cfg, *a, **k))
        monkeypatch.setattr(harness, "train_evaluator",
                            lambda *a, **k: _raise(DataError("evaluator failed"))())
        with pytest.raises(DataError, match=r"^\[train-eval\] evaluator failed$"):
            run_experiment(_two_specialists())
        assert depths == [1]
        assert len(split.forks) == split.forked

    @pytest.mark.parametrize("exc", [NumericError("m-a diverged"), KeyboardInterrupt()],
                             ids=["numeric", "interrupt"])
    def test_first_model_error_stops_the_worker(self, split, monkeypatch, exc):
        _fail_model(monkeypatch, 1, _raise(exc))
        with pytest.raises(type(exc)):
            run_experiment(_two_specialists())
        assert len(split.forks) == split.forked

    def test_killed_worker_is_a_child_process_error(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(harness, "_can_fork", lambda: True)
        parent = os.getpid()

        def die():
            assert os.getpid() != parent, "m-b must train in the worker"
            os.kill(os.getpid(), signal.SIGKILL)

        _fail_model(monkeypatch, 2, die)
        (tmp_path / "cfg.json").write_text(json.dumps(asdict(_two_specialists())))
        assert cli.main(["run", "--config", str(tmp_path / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert "[train-lm:m-b] the worker process ended by signal 9" in err
        assert "Traceback" not in err
        assert _no_child_left()

    @pytest.mark.parametrize("synth, eval_split, words", [
        ({"n_videos": 3, "train_frac": 0.34, "val_frac": 0.33}, "val",
         "evaluator training needs at least two videos, each with a caption"),
        ({"n_videos": 10, "val_frac": 0.1}, "val",
         "cider_d needs at least two videos in the val split, got 1"),
        (None, "test", "the test split has no captions to measure perplexity on"),
        (1, "test", "video 'video0017' has no references in the test split"),
    ], ids=["one-video-train", "one-video-eval", "eval-without-captions",
            "eval-partly-without-captions"])
    def test_unusable_split_fails_before_training(self, split, monkeypatch, tmp_path, capsys,
                                                  synth, eval_split, words):
        """A split that evaluator training or scoring cannot use stops `vidcap
        run` under [data] with exit 2, before any LM step or evaluator training
        and before the output directory is made."""
        calls, step, train_evaluator = [], decoder.train_step, harness.train_evaluator
        monkeypatch.setattr(decoder, "train_step", lambda *a: calls.append("lm") or step(*a))
        monkeypatch.setattr(harness, "train_evaluator",
                            lambda *a, **k: calls.append("eval") or train_evaluator(*a, **k))
        cfg = {"min_count": 1, "lm_epochs": 1, "eval_epochs": 1, "eval_split": eval_split}
        if synth in (None, 1):  # a dataset file: no test video has captions, or the first has none
            dataset, store = harness.load_data(ExperimentConfig(synth=SynthConfig(n_videos=20)))
            for r in dataset.split("test")[:synth]:
                r.captions = []
            harness.write_data(dataset, store, tmp_path)
            cfg.update(data_path=str(tmp_path / "dataset.json"),
                       feature_paths=[str(tmp_path / f"{n}.vfea") for n in store.names()])
        else:
            cfg["synth"] = synth
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: [data] {words}\n"
        assert calls == [] and split.forks == [] and not out.exists()

    def test_single_model_roster_does_not_fork(self, split):
        cfg = _two_specialists()
        cfg.models = cfg.models[:1]
        run_experiment(cfg)
        assert split.forks == []

    def test_default_run_scores_in_process(self, monkeypatch):
        """A default run's score stage scores 30 videos: below
        metrics.FORK_MIN_CAPTIONS, so scoring never forks."""
        monkeypatch.setattr(harness, "_can_fork", lambda: False)
        monkeypatch.setattr(metrics, "_can_fork", lambda: True)
        forks = _count_forks(monkeypatch)
        run_experiment(ExperimentConfig())
        assert forks == []

    def test_failed_write_names_its_stage_and_file(self, monkeypatch, tmp_path, capsys):
        _cut_write(monkeypatch, "pools.jsonl")
        (tmp_path / "cfg.json").write_text(json.dumps(asdict(_two_specialists())))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"data error: [write] {out / 'pools.jsonl'}: [Errno 27] File too large\n"


def _cut_write(monkeypatch, name: str) -> None:
    """Make the write of each file called `name` stop halfway with EFBIG, as a
    full disk or a file size limit stops it: inside `binio.write_file`, on the
    temporary file it writes beside the target."""
    write_bytes = Path.write_bytes

    def cut(self, data):
        if self.name.startswith(f"{name}."):
            write_bytes(self, data[:len(data) // 2])
            raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))
        return write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", cut)


# A run's artifacts in the order run_experiment writes them.
ARTIFACTS = ("dataset.json", "categ.vfea", "feat-a.vfea", "feat-b.vfea", "vocab.tsv",
             "pools.jsonl", "chosen.json", "results.txt", "results.json")


class TestWrittenWhole:
    """`vidcap run --out` into a directory that holds a previous run, at
    another seed, with one write cut short."""

    @pytest.mark.parametrize("victim", [None, *ARTIFACTS])
    def test_each_file_is_whole_old_or_whole_new(self, victim, monkeypatch, tmp_path, capsys):
        """The files written before the cut one are the new run's, the cut one
        and those after it the old run's, each whole; no temporary file is left.
        With no cut, every file is the new run's."""
        (tmp_path / "cfg.json").write_text(json.dumps(asdict(_two_specialists())))
        run = ["run", "--config", str(tmp_path / "cfg.json"), "--out"]
        out, new = tmp_path / "out", tmp_path / "new"
        assert cli.main([*run, str(out)]) == 0
        assert cli.main([*run, str(new), "--seed", "5"]) == 0
        old = {name: (out / name).read_bytes() for name in ARTIFACTS}
        assert sorted(os.listdir(out)) == sorted(os.listdir(new)) == sorted(ARTIFACTS)
        assert all(old[name] != (new / name).read_bytes() for name in ARTIFACTS)
        capsys.readouterr()
        if victim:
            _cut_write(monkeypatch, victim)
        assert cli.main([*run, str(out), "--seed", "5"]) == (2 if victim else 0)
        if victim:
            assert capsys.readouterr().err == \
                f"data error: [write] {out / victim}: [Errno 27] File too large\n"
        cut = ARTIFACTS.index(victim) if victim else len(ARTIFACTS)
        assert sorted(os.listdir(out)) == sorted(ARTIFACTS)
        for i, name in enumerate(ARTIFACTS):
            want = (new / name).read_bytes() if i < cut else old[name]
            assert (out / name).read_bytes() == want, name


class TestScoreWorker:
    """`vidcap score` with the scorer's worker forced on for any corpus: its
    output, its failures and the processes it leaves."""

    @pytest.fixture
    def scored(self, monkeypatch, tmp_path):
        monkeypatch.setattr(metrics, "FORK_MIN_CAPTIONS", 0)
        monkeypatch.setattr(metrics, "_can_fork", lambda: True)
        dataset, store = harness.load_data(ExperimentConfig(synth=SynthConfig(n_videos=40)))
        harness.write_data(dataset, store, tmp_path)
        captions = tmp_path / "captions.json"
        captions.write_text(json.dumps({r.id: r.captions[-1] for r in dataset.split("val")}))
        forks = _count_forks(monkeypatch)
        parent, score_videos = os.getpid(), metrics._score_videos

        def score(act=None) -> int:
            """`vidcap score`; the worker calls act() before it scores."""
            def patched(*args):
                if act and os.getpid() != parent:
                    act()
                return score_videos(*args)

            monkeypatch.setattr(metrics, "_score_videos", patched)
            return cli.main(["score", "--data", str(tmp_path / "dataset.json"),
                             "--captions", str(captions)])

        yield SimpleNamespace(score=score, forks=forks, captions=captions)
        assert _no_child_left()

    def test_forked_output_equals_in_process(self, scored, monkeypatch, capsys):
        assert scored.score() == 0
        forked = capsys.readouterr()
        assert len(scored.forks) == 1 and _no_child_left()
        monkeypatch.setattr(metrics, "_can_fork", lambda: False)
        assert scored.score() == 0
        assert capsys.readouterr() == forked
        assert len(scored.forks) == 1

    def test_failing_worker_is_2(self, scored, capsys):
        assert scored.score(_raise(DataError("worker failed"))) == 2
        assert capsys.readouterr().err == f"data error: {scored.captions}: worker failed\n"
        assert len(scored.forks) == 1

    def test_killed_worker_is_2(self, scored, capsys):
        assert scored.score(lambda: os.kill(os.getpid(), signal.SIGKILL)) == 2
        assert capsys.readouterr().err == \
            "data error: [score] the worker process ended by signal 9 without a result\n"
        assert len(scored.forks) == 1
