"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload caption-large-vocab --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it records the environment
and the run's timing.
Outputs and traces go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REQUIRED = (ROOT / "src" / "vidcap" / "__init__.py", ROOT / "tests" / "reference_metrics.py")

# Set-ups timed per run; the median is reported. caption-large-vocab trains
# three models in each set-up (about 10 s), so it repeats fewer times.
SETUP_REPS = {"train-pipeline": 5, "caption-large-vocab": 2, "score-challenge-scale": 5}


def pin_environment() -> None:
    """Sequential pipeline and single-threaded BLAS, before numpy loads."""
    os.environ.pop("VIDCAP_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"], "src_lines": src_lines}


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """The result line, and the run's timing for the environment line."""
    import layers
    from tracing import Tracer, clock
    from vidcap.errors import VidcapError
    from workloads import WORKLOADS

    out_dir = OUT / f"{name}-seed{seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, out_dir)
    tracer = Tracer()
    if trace:
        layers.install(tracer)

    wall_start = clock()
    idx = tracer.begin("bench.prepare")
    data = workload.prepare()
    tracer.end(idx)

    setup_times = []
    for _ in range(SETUP_REPS[name]):
        idx = tracer.begin("bench.setup")
        state = workload.setup(data)
        tracer.end(idx)
        setup_times.append(tracer.spans[idx].end - tracer.spans[idx].start)

    per_round = workload.videos_per_round(data)
    ops_per_round = workload.ops_per_round
    outputs, round_times, attempted, failed = [], [], 0, 0
    measure_start = clock()
    while True:
        idx = tracer.begin("bench.round")
        attempted += ops_per_round
        try:
            outputs.append(workload.run_round(state, len(round_times)))
        except VidcapError as e:
            failed += ops_per_round
            print(f"round {len(round_times)} failed: {e}", file=sys.stderr)
        tracer.end(idx)
        round_times.append(tracer.spans[idx].end - tracer.spans[idx].start)
        if len(round_times) == 1:
            # High-water mark of set-up plus one round, so that a faster
            # program fitting more rounds into the run does not read larger.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Stop at the round end nearest to the end of the window: a round of
        # train-pipeline or score-challenge-scale lasts a large part of it, and
        # stopping at the first round past the end would lengthen some runs by
        # most of a round and not others.
        if clock() - measure_start + statistics.median(round_times) / 2 >= seconds:
            break
    tracer.unwrap_all()

    idx = tracer.begin("bench.check")
    problems, quality = workload.check(state, outputs) if outputs else (["no round succeeded"], {})
    tracer.end(idx)
    wall = clock() - wall_start
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if trace:
        tracer.dump(OUT / f"trace-{name}-seed{seed}.json")
        metrics = layers.layer_metrics(tracer, wall)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            # Throughput over the whole window: on a shared machine CPU speed
            # can swing between states within seconds, and a median of short
            # rounds would jump to whichever state held the larger half.
            "videos_per_s": (per_round * len(round_times) / sum(round_times), "videos/s"),
            "cider": (quality.get("cider", 0.0), "score"),
            "bleu4": (quality.get("bleu4", 0.0), "score"),
            "rouge_l": (quality.get("rouge_l", 0.0), "score"),
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    # Prepare-to-checks wall time, so that traced and untraced runs of the
    # same seed give the tracing overhead.
    timing = {"trace": trace, "wall_s": wall, "rounds": len(round_times),
              "setup_median_s": statistics.median(setup_times),
              "round_median_s": statistics.median(round_times)}
    return result, timing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_REPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"cannot run: the program's sources are missing ({', '.join(missing)})",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    result, timing = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"env": environment(), "timing": timing}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
