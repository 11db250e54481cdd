"""The benchmark's correctness checks accept the program's outputs and reject
deliberately wrong ones. Each workload runs at a size that takes seconds.

    python3 -m pytest bench/test_checks.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

from workloads import CaptionLargeVocab, ScoreChallengeScale, TrainPipeline  # noqa: E402


def _small_run(cls, tmp_path, rounds=1):
    workload = cls(0, tmp_path, small=True)
    state = workload.setup(workload.prepare())
    outputs = [workload.run_round(state, i) for i in range(rounds)]
    return workload, state, outputs


@pytest.fixture(scope="module")
def train(tmp_path_factory):
    return _small_run(TrainPipeline, tmp_path_factory.mktemp("train"))


@pytest.fixture(scope="module")
def caption(tmp_path_factory):
    return _small_run(CaptionLargeVocab, tmp_path_factory.mktemp("caption"), rounds=2)


@pytest.fixture(scope="module")
def score(tmp_path_factory):
    return _small_run(ScoreChallengeScale, tmp_path_factory.mktemp("score"), rounds=2)


@pytest.mark.parametrize("run", ["train", "caption", "score"])
def test_correct_outputs_pass(run, request):
    workload, state, outputs = request.getfixturevalue(run)
    problems, quality = workload.check(state, outputs)
    assert problems == []
    assert sorted(quality) == ["bleu4", "cider", "rouge_l"]


def test_train_pipeline_rejects_swapped_choice(train, tmp_path):
    workload, cfg, outputs = train
    out = tmp_path / "round0"
    shutil.copytree(outputs[0]["out"], out)
    pools = {}
    for line in (out / "pools.jsonl").read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        pools.setdefault(rec["video_id"], []).append(rec["caption"])
    chosen = json.loads((out / "chosen.json").read_text(encoding="utf-8"))
    vid, other = next((v, c) for v, caps in pools.items() for c in caps if c != chosen[v])
    chosen[vid] = other
    (out / "chosen.json").write_text(json.dumps(chosen), encoding="utf-8")
    problems, _ = workload.check(cfg, [dict(outputs[0], out=out)])
    assert any("top-scored" in p for p in problems)


@pytest.mark.parametrize("row", ["ensemble", "model"])
@pytest.mark.parametrize("metric", ["bleu4", "rouge_l", "cider"])
def test_train_pipeline_rejects_metric_off(train, row, metric):
    workload, cfg, outputs = train
    result = copy.deepcopy(outputs[0]["result"])
    (result.ensemble_row if row == "ensemble" else result.model_rows[0])[metric] += 1e-6
    problems, _ = workload.check(cfg, [dict(outputs[0], result=result)])
    assert any(metric in p for p in problems)


def test_caption_rejects_swapped_choice(caption):
    workload, state, outputs = caption
    outputs = copy.deepcopy(outputs)
    item = next(o for r in outputs for o in r
                if len({c.caption for c in o["pool"].entries}) > 1)
    item["best"] = next(c for c in item["pool"].entries if c.caption != item["best"].caption)
    problems, _ = workload.check(state, outputs)
    assert any("argmax" in p for p in problems)


def test_caption_rejects_shifted_logprob(caption):
    workload, state, outputs = caption
    outputs = copy.deepcopy(outputs)
    outputs[0][0]["pool"].entries[0].logprob += 1e-6
    problems, _ = workload.check(state, outputs)
    assert any("log-prob" in p for p in problems)


@pytest.mark.parametrize("metric", ["bleu4", "rouge_l", "cider"])
def test_caption_rejects_metric_off(caption, metric):
    workload, state, outputs = caption
    hyps, refs, report = workload.score(outputs)
    setattr(report, metric, getattr(report, metric) + 1e-6)
    problems, _ = workload.check(state, outputs, scored=(hyps, refs, report))
    assert any(metric in p for p in problems)


@pytest.mark.parametrize("metric", ["bleu4", "rouge_l", "cider"])
def test_score_rejects_metric_off(score, metric):
    workload, data, outputs = score
    report = copy.deepcopy(outputs[0])
    setattr(report, metric, getattr(report, metric) + 1e-6)
    problems, _ = workload.check(data, [report])
    assert any(metric in p for p in problems)


@pytest.mark.parametrize("metric", ["rouge_l", "cider"])
def test_score_rejects_per_video_off(score, metric):
    workload, data, outputs = score
    report = copy.deepcopy(outputs[0])
    report.per_video["video00003"][metric] += 1e-6
    problems, _ = workload.check(data, [report])
    assert any(f"video00003 {metric}" in p for p in problems)


def test_score_rejects_copied_hypothesis_below_one(score):
    workload, data, outputs = score
    hypotheses, references = data
    report = copy.deepcopy(outputs[0])
    assert hypotheses["video00000"] in references["video00000"]
    report.per_video["video00000"]["rouge_l"] = 1.0 - 1e-6
    problems, _ = workload.check(data, [report])
    assert any("ROUGE-L != 1" in p for p in problems)


def test_score_rejects_rounds_that_differ(score):
    workload, data, outputs = score
    report = copy.deepcopy(outputs[1])
    report.cider += 1e-6
    problems, _ = workload.check(data, [outputs[0], report])
    assert any("call 1: scores differ from the first call" in p for p in problems)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "train-pipeline",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
