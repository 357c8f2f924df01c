"""The three workloads, each a closed loop with one caller.

Every workload starts like a user session: its corpus goes EDF files ->
cache file in `cmd_preprocess`'s order and is read back with
`cache.load_all`, as `cmd_train` and `cmd_eval` do. `ingest` repeats that
session; `train` then runs `training.train` at the paper's settings; `score`
runs `cmd_eval`'s and `cmd_predict`'s calls. Only public functions of
sleepstage are called, always through their module so that tracing can
patch them.
"""
from __future__ import annotations

import ctypes
import ctypes.util
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sleepstage import cache, edf, evaluation, figures, model, preprocess, training

from . import checks, corpus
from .trace import CHECK, Tracer

BATCH = 8                       # paper settings: batch 8, lr 5e-4, flip 0.5, 1% noise
LEARNING_RATE = 5e-4
AUGMENT = dict(flip_probability=0.5, noise_fraction=0.01)
EVAL_BATCH = 32
# per training.train call: 5 steps over a night-like stage mix, then
# validation on a quarter as many epochs, as the default 0.8 holdout split
# and 5-fold split give
TRAIN_MIX = {4: 6, 3: 8, 2: 5, 1: 15, 0: 6}
VAL_MIX = {4: 2, 3: 2, 2: 1, 1: 3, 0: 2}
SCORE_EPOCHS = 128              # held-out epochs per evaluate round
SCORE_SHARE = 0.5               # share of the run given to evaluate rounds
LOADS_PER_PASS = 3              # load_all is short: more samples per pass
TRAIN_SUBJECT, HELD_OUT_SUBJECT = "SC40", "SC41"
REFERENCE = Path(__file__).with_name("reference.json")
ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Context:
    """Set-up output: the generated corpus on disk and the initial model."""

    seed: int
    nights: list[corpus.Night]
    params: model.ModelParams | None
    cache_dir: Path


def setup(workload: str, seed: int, workdir: Path) -> Context:
    """Write the corpus from a child process, so that generating it leaves
    no mark on this process's peak memory, then init the model."""
    corpus_dir, cache_dir = workdir / "edf", workdir / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    subprocess.run([sys.executable, "-m", "perfbench.corpus", "--seed", str(seed),
                    "--out", str(corpus_dir)], check=True, cwd=ROOT, env=env)
    params = None if workload == "ingest" else model.init_params(model.ModelConfig(), seed)
    return Context(seed=seed, nights=corpus.load_corpus(corpus_dir), params=params,
                   cache_dir=cache_dir)


_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))


def fresh_heap() -> None:
    """Hand the heap's free memory back to the system, as a new process
    starts without it. Called before each timed operation: otherwise an
    operation's speed depends on how much free heap earlier ones left (a
    load_all that reuses it takes half the time of one that faults pages
    in), and so on how many operations the run has done. Only glibc has
    malloc_trim; elsewhere this does nothing."""
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far.

    Each workload reads this at a fixed point, after its first session, so
    that the figure does not depend on how many operations a run fits in:
    repeated sessions can grow the heap through allocator fragmentation."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Operations attempted and failed, and the time spent checking them."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.problems: list[str] = []

    def check(self, ops: int, fn, *args) -> None:
        """Count `ops` operations, all failed if `fn(*args)` reports a problem."""
        start = time.perf_counter()
        with self.tracer.span(CHECK) if self.tracer else nullcontext():
            problems = fn(*args)
        self.check_s += time.perf_counter() - start
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems.extend(problems)


class Budget:
    """Run for `seconds` from the first question, or `count` times; at
    least once either way."""

    def __init__(self, seconds: float | None = None, count: int | None = None):
        self.seconds = seconds
        self.count = count
        self.deadline = None

    def more(self, done: int) -> bool:
        if self.count is not None:
            return done < self.count
        if self.deadline is None:
            self.deadline = time.perf_counter() + self.seconds
        return done == 0 or time.perf_counter() < self.deadline


# --- EDF -> cache ---

def ingest_night(night: corpus.Night, cache_dir: Path) -> None:
    """One recording through `cmd_preprocess`'s calls."""
    psg = night.psg.read_bytes()
    rec = edf.read_recording(psg, corpus.EEG_CHANNEL, night.subject)
    stages = edf.parse_hypnogram(night.hypnogram.read_bytes() if night.hypnogram else psg)
    stats = preprocess.compute_stats(rec.samples)
    rec.samples = preprocess.normalize(rec.samples, stats)
    epochs = edf.epoch_recording(rec, stages)
    cache.save_epochs(epochs, cache_dir / f"{night.cache_name}{cache.EPOCH_SUFFIX}")
    cache.save_stats(stats, cache_dir / f"{night.cache_name}{cache.STATS_SUFFIX}")


@dataclass
class IngestPass:
    night_s: list[float]        # per cached night
    night_mb: list[float]       # EDF bytes in, per cached night
    load_s: list[float]         # back-to-back cache.load_all calls
    n_epochs: int
    peak_rss_mb: float          # after the loads, before the checks


def ingest_pass(ctx: Context, tally: Tally) -> tuple[IngestPass, list]:
    """Cache every night, load the cache back, then check what it holds."""
    errors: dict[str, BaseException | None] = {}
    night_s, night_mb = [], []
    for night in ctx.nights:
        fresh_heap()
        t0 = time.perf_counter()
        try:
            ingest_night(night, ctx.cache_dir)
            errors[night.stem] = None
        except Exception as exc:  # a wrong exception type is a failed check
            errors[night.stem] = exc
        if errors[night.stem] is None:
            night_s.append(time.perf_counter() - t0)
            night_mb.append(1e-6 * night.nbytes)
    load_s, epochs = [], None
    for _ in range(LOADS_PER_PASS):
        epochs = None  # a session holds one loaded cache at a time
        fresh_heap()
        t0 = time.perf_counter()
        epochs = cache.load_all(ctx.cache_dir)
        load_s.append(time.perf_counter() - t0)
    peak = peak_rss_mb()

    offset = 0
    for night in sorted(ctx.nights, key=lambda n: n.cache_name):
        if night.truncated:
            tally.check(1, checks.ingested_night, night, errors[night.stem], [], [])
            continue
        mine = epochs[offset:offset + len(night.expected_labels())]
        offset += len(mine)
        tally.check(1, checks.ingested_night, night, errors[night.stem],
                    [int(e.label) for e in mine], [e.samples for e in mine])
    return IngestPass(night_s, night_mb, load_s, len(epochs), peak), epochs


def prepare(ctx: Context, tally: Tally) -> list:
    """Build the cache and load it back, like `sleepstage preprocess`
    before `train` or `eval`."""
    return ingest_pass(ctx, tally)[1]


# --- workloads; each returns samples of its end-to-end figures by metric ---

def run_ingest(ctx: Context, tally: Tally, budget: Budget) -> dict[str, list[float]]:
    passes = []
    while budget.more(len(passes)):
        passes.append(ingest_pass(ctx, tally)[0])
    measured = passes[1:] or passes  # the first pass warms the page cache
    return {
        "epochs_per_s": [p.n_epochs / s for p in measured for s in p.load_s],
        "op_s": [s for p in measured for s in p.night_s],
        "ingest_mb_per_s": [mb / s for p in measured for mb, s in zip(p.night_mb, p.night_s)],
        "peak_rss_mb": [passes[0].peak_rss_mb],  # one preprocess + load session
    }


def stratified(rng: np.random.Generator, labels: np.ndarray, pool: np.ndarray,
               mix: dict[int, int]) -> list[int]:
    """Indices from `pool` with exactly mix[c] epochs of each stage c."""
    chosen = []
    for stage, count in mix.items():
        candidates = pool[labels[pool] == stage]
        chosen.extend(int(i) for i in rng.choice(candidates, size=count, replace=False))
    return sorted(chosen)


def _subject_pool(epochs, subject: str) -> np.ndarray:
    return np.asarray([i for i, e in enumerate(epochs) if e.subject_id == subject])


@contextmanager
def timed_validation(spans: list[float]):
    """Append the duration of each `evaluation.evaluate` call, the
    validation `training.train` runs after its steps, to `spans`."""
    evaluate = evaluation.evaluate

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return evaluate(*args, **kwargs)
        finally:
            spans.append(time.perf_counter() - t0)

    evaluation.evaluate = timed
    try:
        yield
    finally:
        evaluation.evaluate = evaluate


def run_train(ctx: Context, tally: Tally, budget: Budget) -> dict[str, list[float]]:
    out, epochs = {}, prepare(ctx, tally)
    labels = np.asarray([int(e.label) for e in epochs])
    rng = np.random.default_rng(np.random.SeedSequence(ctx.seed, spawn_key=(1,)))
    train_pool = _subject_pool(epochs, TRAIN_SUBJECT)
    val_idx = stratified(rng, labels, _subject_pool(epochs, HELD_OUT_SUBJECT), VAL_MIX)
    n_train = sum(TRAIN_MIX.values())
    steps = -(-n_train // BATCH)
    params = ctx.params
    call_s, validation_s = [], []
    while budget.more(len(call_s)):
        k = len(call_s)
        train_idx = stratified(rng, labels, train_pool, TRAIN_MIX)
        fresh_heap()
        t0 = time.perf_counter()
        with timed_validation(validation_s):
            result = training.train(
                epochs, train_idx, val_idx,
                training.TrainConfig(learning_rate=LEARNING_RATE, batch_size=BATCH,
                                     max_passes=1, seed=ctx.seed + k),
                model.ModelConfig(),
                augment_cfg=preprocess.AugmentConfig(rng_seed=ctx.seed + k, **AUGMENT),
                initial=params)
        call_s.append(time.perf_counter() - t0)
        if k == 0:
            out["peak_rss_mb"] = [peak_rss_mb()]  # preprocess, load, one train call
        params = result.final_params
        # a non-finite step loss makes its pass mean non-finite
        tally.check(steps, checks.finite_losses, [row.train_loss for row in result.log])
    samples = list(zip(call_s, validation_s))
    measured = samples[1:] or samples  # the first call warms allocator and BLAS
    out["epochs_per_s"] = [n_train / call for call, _ in measured]
    out["op_s"] = [(call - val) / steps for call, val in measured]
    return out


def predict_night(mp: model.ModelParams, night: corpus.Night, tally: Tally) -> None:
    """`cmd_predict`: one night from EDF bytes to a hypnogram SVG."""
    psg = night.psg.read_bytes()
    rec = edf.read_recording(psg, corpus.EEG_CHANNEL, night.stem)
    stats = preprocess.compute_stats(rec.samples)
    samples = preprocess.normalize(rec.samples, stats)
    length = mp.cfg.input_length
    n_windows = len(samples) // length
    windows = samples[:n_windows * length].reshape(n_windows, length)
    probs = evaluation.predict_probabilities(mp, windows)
    pred = probs.argmax(axis=1)
    reference: dict[int, int] = {}
    hyp = night.hypnogram.read_bytes() if night.hypnogram else psg
    for onset, duration, token in edf.parse_hypnogram(hyp):
        label = edf.map_label(token)
        if label is None:
            continue
        first = int(np.ceil(onset / edf.EPOCH_SECONDS))
        last = int(np.floor((onset + duration) / edf.EPOCH_SECONDS))
        for w in range(first, min(last, n_windows)):
            reference[w] = int(label)
    indices = sorted(reference)
    svg = figures.hypnogram_svg([int(pred[i]) for i in indices], indices=indices,
                                reference=[reference[i] for i in indices],
                                title=f"{night.stem}: predicted vs reference")
    tally.check(1, checks.predicted_night, night, probs, len(indices), svg)


def score_round(mp: model.ModelParams, epochs, indices, tally: Tally) -> None:
    """`cmd_eval`: evaluate, metrics table, ROC/PR curves and both figures."""
    result = evaluation.evaluate(mp, epochs, indices, batch_size=EVAL_BATCH)
    summary = evaluation.summary_metrics(result.cm)
    present = sorted(set(int(c) for c in result.y_true))
    evaluation.roc_pr_curves(result.probabilities, result.y_true, classes=present)
    figures.confusion_heatmap_svg(result.cm)
    figures.hypnogram_svg(result.y_pred, indices=range(result.y_pred.size),
                          reference=result.y_true,
                          title="Validation staging: predicted vs reference")
    tally.check(-(-len(indices) // EVAL_BATCH), checks.scored, result, summary, len(indices))


def run_score(ctx: Context, tally: Tally, rounds: Budget, nights: Budget) -> dict[str, list[float]]:
    out, epochs = {}, prepare(ctx, tally)
    pool = _subject_pool(epochs, HELD_OUT_SUBJECT)
    valid = [n for n in ctx.nights if not n.truncated]

    def eval_round(k: int) -> None:
        # a contiguous stretch of the held-out night, like a hypnogram
        first = (k * SCORE_EPOCHS) % (len(pool) - SCORE_EPOCHS)
        score_round(ctx.params, epochs, pool[first:first + SCORE_EPOCHS].tolist(), tally)

    eval_round(0)  # warms allocator and BLAS; not timed
    round_s, night_s = [], []
    while nights.more(len(night_s)):
        night = valid[(1 + len(night_s)) % len(valid)]  # starts with the EDF+ night
        fresh_heap()
        t0 = time.perf_counter()
        predict_night(ctx.params, night, tally)
        night_s.append(time.perf_counter() - t0)
        if len(night_s) == 1:
            out["peak_rss_mb"] = [peak_rss_mb()]  # preprocess, load, eval, predict
    while rounds.more(len(round_s)):
        fresh_heap()
        t0 = time.perf_counter()
        eval_round(1 + len(round_s))
        round_s.append(time.perf_counter() - t0)
    # pooled over all rounds: rounds are short and vary more than runs
    out["epochs_per_s"] = [SCORE_EPOCHS * len(round_s) / sum(round_s)]
    out["op_s"] = night_s
    return out


# --- checks against values recorded at a known-good commit ---

def _reference_inputs(workdir: Path):
    """Fixed inputs, independent of --seed: a 2-h seed-0 night written to
    `workdir`, a stratified train/validation split of it and the seed-0
    default model."""
    night = corpus.make_night(0, "REF", 0, workdir, n_epochs=240)
    rec = edf.read_recording(night.psg.read_bytes(), corpus.EEG_CHANNEL, night.subject)
    rec.samples = preprocess.normalize(rec.samples, preprocess.compute_stats(rec.samples))
    epochs = edf.epoch_recording(rec, edf.parse_hypnogram(night.hypnogram.read_bytes()))
    labels = np.asarray([int(e.label) for e in epochs])
    rng = np.random.default_rng(0)
    everything = np.arange(len(epochs))
    val_idx = stratified(rng, labels, everything, {4: 2, 3: 2, 2: 1, 1: 2, 0: 1})
    train_idx = stratified(rng, labels, np.setdiff1d(everything, val_idx),
                           {4: 4, 3: 5, 2: 3, 1: 8, 0: 4})
    return epochs, train_idx, val_idx, model.init_params(model.ModelConfig(), 0)


def reference_loss(workdir: Path) -> float:
    """Mean loss of three training steps at the paper's settings."""
    epochs, train_idx, val_idx, initial = _reference_inputs(workdir)
    result = training.train(
        epochs, train_idx, val_idx,
        training.TrainConfig(learning_rate=LEARNING_RATE, batch_size=BATCH, max_passes=1),
        model.ModelConfig(), augment_cfg=preprocess.AugmentConfig(**AUGMENT), initial=initial)
    return result.log[-1].train_loss


def reference_probabilities(workdir: Path) -> list:
    """Eval-mode probabilities of every eighth epoch."""
    epochs, _, _, initial = _reference_inputs(workdir)
    scored = evaluation.evaluate(initial, epochs, list(range(0, len(epochs), 8)),
                                 batch_size=EVAL_BATCH)
    return scored.probabilities.tolist()


def check_reference(tally: Tally, workload: str, workdir: Path) -> None:
    """Compare this commit's reference run with the recorded values."""
    if workload == "train":
        recorded = json.loads(REFERENCE.read_text())
        tally.check(1, checks.loss_matches, reference_loss(workdir), recorded["train_loss"])
    elif workload == "score":
        recorded = json.loads(REFERENCE.read_text())
        tally.check(1, checks.predictions_match, reference_probabilities(workdir),
                    recorded["probabilities"])
