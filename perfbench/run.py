"""sleepstage benchmark: one workload per run, in one process, one caller.

    python3 perfbench/run.py --workload ingest|train|score --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing and imports sleepstage
from ./src. The seed makes the synthetic corpus; the program only sees the
generated EDF bytes. Human-readable lines come first, with the machine facts
and the samples behind each median; the last line of stdout is one JSON
object. Scratch files go to .perfbench_work/ and are removed on exit.

--trace 0 runs the workload for S seconds after set-up and reports the
end-to-end metrics, each the median of its samples in the run:

  setup_s            corpus generation (in a child process that writes the
                     EDF files) and model init, median of 3 set-ups
  epochs_per_s       ingest: cached epochs per second of cache.load_all
                     (load_epochs_per_s); train: training epochs per
                     second of training.train, validation included; score:
                     epochs scored per second of evaluate, metrics, curves
                     and figures
  op_s               ingest: seconds per night from its EDF files to the
                     cache (ingest_mb_per_s, EDF MB in per second, is
                     printed too, but not gated: it is the same samples);
                     train: seconds per training step, validation left
                     out; score: seconds to predict one 8-h night from its
                     EDF files to a hypnogram SVG
  peak_rss_mb        peak resident memory of this process after one
                     session: ingest's first pass up to load_all; train's
                     preprocess, load and first training call; score's
                     preprocess, load, first evaluate round and first
                     predicted night. The corpus is on disk, so this is the
                     interpreter, the model and the program's data; the
                     peak right after set-up is printed next to it.
  success_ratio      operations whose output checks passed / attempted

--trace 1 runs a fixed plan three times: untraced to warm up, traced, and
untraced again. It reports the per-layer metrics of the traced run and the
tracing overhead against the last, untraced one.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("ingest", "train", "score")
SETUPS = 3
# --trace 1: ingest passes, train calls, score rounds and predicted nights
TRACE_PLAN = {"ingest": 12, "train": 4, "score": (3, 1)}
# figures printed but not gated, by unit
UNGATED = {"ingest_mb_per_s": "MB/s"}
# names the shared end-to-end metrics go by on one workload
ALIASES = {
    "ingest": {"epochs_per_s": "load_epochs_per_s", "op_s": "ingest_night_s"},
    "train": {"epochs_per_s": "train_epochs_per_s", "op_s": "train_step_s"},
    "score": {"epochs_per_s": "score_epochs_per_s", "op_s": "predict_night_s"},
}


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_workload(name: str, ctx, tally, seconds: float | None):
    """Samples of the workload's own figures, and its wall time with
    checks left out."""
    from perfbench import workloads as w

    start, check_s = time.perf_counter(), tally.check_s
    if name == "ingest":
        budget = w.Budget(seconds, None if seconds else TRACE_PLAN["ingest"])
        figures = w.run_ingest(ctx, tally, budget)
    elif name == "train":
        budget = w.Budget(seconds, None if seconds else TRACE_PLAN["train"])
        figures = w.run_train(ctx, tally, budget)
    else:
        rounds, nights = TRACE_PLAN["score"]
        figures = w.run_score(
            ctx, tally,
            w.Budget(w.SCORE_SHARE * seconds) if seconds else w.Budget(count=rounds),
            w.Budget((1 - w.SCORE_SHARE) * seconds) if seconds else w.Budget(count=nights))
    return figures, time.perf_counter() - start - (tally.check_s - check_s)


def measure(args, workdir: Path) -> dict:
    from perfbench import trace, workloads as w

    setup_s = []
    for _ in range(1 if args.trace else SETUPS):
        ctx = None  # let the previous corpus go before timing the next
        t0 = time.perf_counter()
        ctx = w.setup(args.workload, args.seed, workdir)
        setup_s.append(time.perf_counter() - t0)

    setup_rss_mb = w.peak_rss_mb()
    tally = w.Tally()
    samples = {}
    if not args.trace:
        samples, _ = run_workload(args.workload, ctx, tally, args.seconds)
        samples["setup_s"] = setup_s
        metrics = {name: statistics.median(values) for name, values in samples.items()}
    else:
        # warm up untraced, then trace, then time the same plan untraced
        run_workload(args.workload, ctx, tally, None)
        tracer = trace.Tracer()
        traced = w.Tally(tracer)
        with trace.instrument(tracer), tracer.span(trace.ROOT):
            _, traced_wall = run_workload(args.workload, ctx, traced, None)
        _, wall = run_workload(args.workload, ctx, tally, None)
        metrics = trace.layer_metrics(tracer)
        metrics["trace.overhead"] = traced_wall / wall - 1.0
        metrics["trace.wall_s"] = traced_wall
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.problems += traced.problems
    w.check_reference(tally, args.workload, workdir)
    if not args.trace:
        metrics["success_ratio"] = (tally.attempted - tally.failed) / tally.attempted
    return {"tally": tally, "metrics": metrics, "samples": samples,
            "setup_rss_mb": setup_rss_mb}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sleepstage" / "__init__.py").is_file():
        print(f"error: no sleepstage sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # unless set, BLAS gets at most 2 threads
        os.environ.setdefault(var, "2")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally, metrics, samples = result["tally"], result["metrics"], result["samples"]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    print("machine: " + json.dumps(machine_facts()))
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(f"{args.workload}: {tally.attempted} operations, {tally.failed} failed, "
          f"failed_ratio = {tally.failed / tally.attempted:g}")
    for name in wanted + [n for n in UNGATED if n in metrics]:
        alias = None if args.trace else ALIASES[args.workload].get(name)
        unit = units.get(name) or UNGATED[name]
        print(f"  {name} = {metrics[name]!r} {unit}" + (f"  ({alias})" if alias else ""))
        if name == "peak_rss_mb":
            print(f"    peak after set-up: {result['setup_rss_mb']:.1f} MB")
        if len(samples.get(name, ())) > 1:
            q = statistics.quantiles(samples[name], n=4, method="inclusive")
            print(f"    median of n={len(samples[name])}: min {min(samples[name]):.6g} "
                  f"q1 {q[0]:.6g} q3 {q[2]:.6g} max {max(samples[name]):.6g}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
