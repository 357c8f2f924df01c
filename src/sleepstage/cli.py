"""Command-line surface: fetch, preprocess, train, eval, predict, plot. A
command parses, prints and writes its outputs; the library reads a night.

Exit codes: 0 success, 2 configuration problems, 3 data problems,
4 runtime/network problems. Every run copies its resolved configuration
into the output directory; all artifacts are byte-deterministic given
(config, seed, corpus). Training bytes also depend on the BLAS thread count
wherever `parallel` finds no OpenBLAS thread setter; there,
`OPENBLAS_NUM_THREADS=1` gives byte-identical reruns. A checkpoint
(`sleepstage.checkpoint`) says by itself which model, channel and split it
holds: `eval` runs on its split and `predict` reads its channel. Text files
are read and written as UTF-8.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import re
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import cache, evaluation, figures, training
from .checkpoint import load_checkpoint, save_checkpoint
from .config import DATASET_ROOT_ENV, RunConfig, format_kv, load_run_config
from .edf import EPOCH_SECONDS, N_STAGES, EpochSet, StageLabel
from .errors import (  # the EXIT_* codes are re-exported for callers of main()
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_RUNTIME,
    ConfigError,
    DataError,
    SingleClassPresent,
    SleepStageError,
)
from .evaluation import ConfusionMatrix, SplitConfig
from .files import write_csv_atomic, write_text_atomic
from .model import ModelConfig, ModelParams, state_sizes

log = logging.getLogger("sleepstage")

_SUBJECT_RE = re.compile(r"^(SC4|ST7)\d{2}")


# --- shared helpers ---

def _split_overrides(spec: str | None) -> dict[str, str]:
    if spec is None:
        return {}
    kind, _, arg = spec.partition(":")
    arg_key = {"kfold": "split.k", "holdout": "split.ratio"}.get(kind)
    if arg_key is None:
        raise ConfigError(f"--split must be kfold[:k] or holdout[:ratio], got {spec!r}")
    out = {"split.kind": kind}
    if arg:
        out[arg_key] = arg
    return out


def _run_config(args) -> RunConfig:
    overrides: dict[str, str] = {}
    if getattr(args, "dataset_root", None):
        overrides["dataset.root"] = args.dataset_root
    if getattr(args, "channel", None):
        overrides["dataset.channel"] = args.channel
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = str(args.seed)
    if getattr(args, "out", None):
        overrides["output.dir"] = args.out
    if getattr(args, "fold", None) is not None:
        overrides["split.fold"] = str(args.fold)
    overrides.update(_split_overrides(getattr(args, "split", None)))
    return load_run_config(getattr(args, "config", None), overrides)


def _write_resolved(rc: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(out_dir / "config.resolved", format_kv(rc.resolved()))


def discover_recordings(dataset_root: Path) -> list[tuple[Path, Path | None, str, str]]:
    """(psg, hypnogram-or-None, subject_id, recording_stem) per EDF in the corpus.

    A sidecar hypnogram pairs only with the PSG in its directory that shares its
    longest name prefix (the first such PSG on a tie); a PSG without one is
    staged from its own annotations. A Sleep-EDF stem's subject is its first
    five characters; any other's is the part before its first '__', as
    `cache.subject_of` reads it back from the cache name."""
    edfs = sorted(p for p in dataset_root.rglob("*.edf") if p.is_file())
    hyps = [p for p in edfs if "Hypnogram" in p.name]
    psgs = [p for p in edfs if p not in hyps]

    def base(psg: Path) -> str:
        return psg.name.removesuffix(".edf").removesuffix("-PSG")

    def shared(psg: Path, hyp: Path) -> int:
        """Length of the common name prefix; 0 across directories."""
        hbase = hyp.name.removesuffix(".edf").removesuffix("-Hypnogram")
        return len(os.path.commonprefix([base(psg), hbase])) if hyp.parent == psg.parent else 0

    owner = {h: max(psgs, key=lambda p: shared(p, h), default=None) for h in hyps}
    found = []
    for psg in psgs:
        stem = base(psg)
        best = max((h for h in hyps if owner[h] == psg), key=lambda h: shared(psg, h),
                   default=None)
        if best is not None and shared(psg, best) < max(1, len(stem) - 2):
            best = None  # prefix too short to be the same night
        subject = stem[:5] if _SUBJECT_RE.match(stem) else cache.subject_of(stem)
        found.append((psg, best, subject, stem))
    return found


# --- metrics serialization ---

def _metrics_payload(cm: ConfusionMatrix, rc: RunConfig, split_desc: dict) -> dict:
    return {
        "schema_version": 1,
        "channel": rc.channel,
        "seed": rc.seed,
        "split": split_desc,
        "n_epochs": cm.total,
        "confusion_matrix": {
            "label_order": [s.name for s in StageLabel],
            "rows_true_cols_pred": cm.counts.tolist(),
        },
        "per_stage": {s.name: asdict(evaluation.stage_metrics(cm, s)) for s in StageLabel},
        "summary": asdict(evaluation.summary_metrics(cm)),
    }


def write_metrics_json(payload: dict, path: Path) -> None:
    write_text_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.2f}"


def print_metrics_table(cm: ConfusionMatrix) -> None:
    print("stage   acc(%)  rec(%)  pre(%)   f1(%)")
    for s in evaluation.DISPLAY_ROW_ORDER:
        m = evaluation.stage_metrics(cm, s)
        print(f"{s.name:5} {_fmt(m.accuracy):>8} {_fmt(m.recall):>7} "
              f"{_fmt(m.precision):>7} {_fmt(m.f1):>7}")
    summary = evaluation.summary_metrics(cm)
    kappa = "-" if summary.kappa is None else f"{summary.kappa:.4f}"
    mf1 = "-" if summary.macro_f1 is None else f"{summary.macro_f1:.4f}"
    print(f"overall accuracy {summary.overall_accuracy:.2f}%  kappa {kappa}  "
          f"mean acc {_fmt(summary.mean_accuracy)}%  macro-F1 {mf1}")


def _write_split_log(parts, split: SplitConfig, path: Path) -> None:
    payload = {"kind": split.kind, "seed": split.seed,
               "parts": [np.asarray(p).tolist() for p in parts]}
    write_text_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_curves_csv(curves: dict[int, evaluation.CurveSet], out_dir: Path) -> None:
    stages = [(StageLabel(c).name, cs) for c, cs in sorted(curves.items())]
    write_csv_atomic(out_dir / "roc.csv", ["stage", "fpr", "tpr"],
                     ([name, repr(fpr), repr(tpr)]
                      for name, cs in stages for fpr, tpr in cs.roc_points.tolist()))
    write_csv_atomic(out_dir / "pr.csv", ["stage", "recall", "precision"],
                     ([name, repr(rec), repr(prec)]
                      for name, cs in stages for rec, prec in cs.pr_points.tolist()))
    write_csv_atomic(out_dir / "auc.csv", ["stage", "roc_auc", "pr_auc"],
                     ([name, repr(cs.roc_auc), repr(cs.pr_auc)] for name, cs in stages))


# --- commands ---

def cmd_fetch(args) -> int:
    from . import fetch  # urllib, http.client and ssl load only for this command

    if args.retries < 1:
        raise ConfigError(f"--retries must be >= 1, got {args.retries}")
    if not 0 <= args.backoff < float("inf"):
        raise ConfigError(f"--backoff must be a finite number >= 0, got {args.backoff}")
    root = Path(args.dataset_root if args.dataset_root else
                (load_run_config(args.config).dataset_root if args.config else "."))
    entries = fetch.load_manifest(args.manifest)
    downloaded = fetch.fetch_all(entries, root, workers=args.workers,
                                 retries=args.retries, backoff=args.backoff)
    print(f"{downloaded} of {len(entries)} files downloaded, rest verified in place")
    return 0


def cmd_preprocess(args) -> int:
    rc = _run_config(args)
    rc.cache_dir.mkdir(parents=True, exist_ok=True)
    recs = discover_recordings(rc.dataset_root)
    if not recs:
        raise SleepStageError(f"no EDF recordings under {rc.dataset_root}")
    owners: dict[str, Path] = {}
    for psg, _, subject, stem in recs:
        other = owners.setdefault(f"{subject}__{stem}", psg)
        if other != psg:
            raise DataError(f"{other} and {psg} would share the cache name {subject}__{stem}")
    cache.prune(rc.cache_dir, owners)
    last_error: SleepStageError | None = None
    totals = np.zeros(N_STAGES, dtype=np.int64)
    for psg, hyp, subject, stem in recs:
        psg_bytes = psg.read_bytes()
        hyp_bytes = None if hyp is None else hyp.read_bytes()
        try:
            epochs = cache.ingest_night(psg_bytes, hyp_bytes, rc.channel, rc.cache_dir,
                                        f"{subject}__{stem}", stem)
        except SleepStageError as exc:
            last_error = exc
            print(f"error: {stem}: {exc}", file=sys.stderr)
            continue
        totals += np.bincount(epochs.labels, minlength=N_STAGES)

    grand = int(totals.sum())
    print("stage   epochs  share")
    for s in (StageLabel.W, StageLabel.N1, StageLabel.N2, StageLabel.N3, StageLabel.R):
        share = 100.0 * totals[s] / grand if grand else 0.0
        print(f"{s.name:5} {totals[s]:8d}  {share:5.1f}%")
    print(f"total {grand:8d}")
    if last_error is not None and grand == 0:
        raise last_error
    return 0


def _periodic_saver(rc: RunConfig, out_dir: Path, stem: str, split: SplitConfig):
    if rc.train.checkpoint_every <= 0:
        return None

    def save(row: training.LogRow, mp: ModelParams) -> None:
        if row.train_pass % rc.train.checkpoint_every == 0:
            save_checkpoint(mp, out_dir / f"{stem}_pass{row.train_pass}.ckpt", rc.channel, split)

    return save


def _load_cache(rc: RunConfig, input_length: int, expected: str) -> EpochSet:
    """The cached epochs, which must exist and hold `input_length` samples each."""
    epochs = cache.load_all(rc.cache_dir)
    if not epochs:
        raise SleepStageError(
            f"no cached epochs in {rc.cache_dir}; run `sleepstage preprocess` first")
    if epochs.samples.shape[1] != input_length:
        raise ConfigError(
            f"cached epochs hold {epochs.samples.shape[1]} samples, {expected} {input_length}")
    return epochs


def _check_training_fits(model: ModelConfig) -> None:
    """Refuse a model whose training state exceeds MemAvailable: 52 bytes a
    value, for five float64 copies (master, gradient, Adam m and v, the kept
    best) and three float32 ones (replica weights, two replica gradients).
    The sum stops at the first running total above MemAvailable, so a long
    config is refused without walking all of it. Where /proc/meminfo cannot
    be read, nothing is checked."""
    try:
        meminfo = Path("/proc/meminfo").read_text(encoding="ascii")
        available = 1024 * int(re.search(r"^MemAvailable:\s*(\d+) kB$", meminfo, re.M)[1])
    except (OSError, TypeError, ValueError):
        return
    need = 0
    for size in state_sizes(model):
        need += 52 * size
        if need > available:
            raise ConfigError(f"the model's training state needs at least {need} bytes, "
                              f"more than the {available} bytes of MemAvailable")


def cmd_train(args) -> int:
    rc = _run_config(args)
    out_dir = rc.output_dir
    _check_training_fits(rc.model)
    _write_resolved(rc, out_dir)
    epochs = _load_cache(rc, rc.model.input_length, "model.input_length is")

    parts, plan, split_desc = evaluation.plan_folds(epochs, rc.split)
    _write_split_log(parts, rc.split, out_dir / "split.json")
    merged = ConfusionMatrix()
    for name, train_idx, val_idx, split in plan:
        stem = name.replace(" ", "")  # "fold 1" -> fold1.ckpt
        result = training.train(
            epochs, train_idx, val_idx, rc.train, rc.model,
            augment_cfg=rc.augment,
            on_pass=_periodic_saver(rc, out_dir, stem, split))
        training.write_training_log(result.log, out_dir / f"{stem}_train_log.csv")
        save_checkpoint(result.params, out_dir / f"{stem}.ckpt", rc.channel, split)
        merged = merged.merged(result.validation.cm)
        kappa = "nan" if result.best_kappa != result.best_kappa else f"{result.best_kappa:.4f}"
        print(f"{name}: best pass {result.best_pass}, validation kappa {kappa}")

    payload = _metrics_payload(merged, rc, split_desc)
    write_metrics_json(payload, out_dir / "metrics.json")
    print_metrics_table(merged)
    return 0


def cmd_eval(args) -> int:
    rc = _run_config(args)
    out_dir = rc.output_dir
    ckpt = load_checkpoint(Path(args.checkpoint), rc.channel)
    # the split evaluated is the one the checkpoint holds, whatever the config says
    rc, mp = replace(rc, split=ckpt.split()), ckpt.params
    _write_resolved(rc, out_dir)
    epochs = _load_cache(rc, mp.cfg.input_length, "checkpoint expects")
    parts, [(_, _, val_idx, _)], split_desc = evaluation.plan_folds(epochs, rc.split)
    _write_split_log(parts, rc.split, out_dir / "split.json")

    result = evaluation.evaluate(mp, epochs, val_idx)
    payload = _metrics_payload(result.cm, rc, split_desc)
    write_metrics_json(payload, out_dir / "metrics.json")
    write_text_atomic(out_dir / "confusion.svg", figures.confusion_heatmap_svg(result.cm))
    write_text_atomic(out_dir / "hypnogram.svg", figures.hypnogram_svg(
        result.y_pred, indices=range(result.y_pred.size), reference=result.y_true,
        title="Validation staging: predicted vs reference"))
    present = sorted(set(int(c) for c in result.y_true))
    try:
        curves = evaluation.roc_pr_curves(result.probabilities, result.y_true, classes=present)
        _write_curves_csv(curves, out_dir)
    except SingleClassPresent as exc:
        log.warning("skipping ROC/PR curves: %s", exc)
    print_metrics_table(result.cm)
    return 0


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(Path(args.checkpoint), args.channel or None)
    mp, channel = ckpt.params, ckpt.channel
    out_dir = Path(args.out or "out")
    out_dir.mkdir(parents=True, exist_ok=True)

    psg_path = Path(args.edf)
    psg_bytes = psg_path.read_bytes()
    hyp_bytes = Path(args.hypnogram).read_bytes() if args.hypnogram else None
    pred, index, labels = evaluation.stage_night(mp, psg_bytes, hyp_bytes, channel, psg_path.name)
    reference = dict(zip(index.tolist(), (StageLabel(c).name for c in labels)))

    csv_path = out_dir / "predictions.csv"
    write_csv_atomic(csv_path, ["epoch_index", "onset_seconds", "predicted", "reference"],
                     ([i, i * EPOCH_SECONDS, StageLabel(p).name, reference.get(i, "")]
                      for i, p in enumerate(pred)))

    if index.size:
        agree = float(np.mean(pred[index] == labels))
        print(f"agreement with reference hypnogram: {100.0 * agree:.2f}% "
              f"over {index.size} scored epochs")
        svg = figures.hypnogram_svg(pred[index], indices=index, reference=labels,
                                    title=f"{psg_path.stem}: predicted vs reference")
    else:
        svg = figures.hypnogram_svg(pred, title=f"{psg_path.stem}: predicted staging")
    write_text_atomic(out_dir / "hypnogram.svg", svg)
    print(f"wrote {csv_path}")
    return 0


def _read_predictions(path: str):
    """(epoch indices, predicted stages, reference stages or None) of a predictions.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise DataError(f"{path}: empty predictions file")
    indices = [int(r["epoch_index"]) for r in rows]
    if min(indices) < 0:
        raise DataError(f"{path}: negative epoch_index {min(indices)}")
    pred = [StageLabel[r["predicted"]] for r in rows]
    have_ref = all(r.get("reference") for r in rows)
    ref = [StageLabel[r["reference"]] for r in rows] if have_ref else None
    return indices, pred, ref


def cmd_plot(args) -> int:
    out_dir = Path(args.out or "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    wrote = []
    if args.predictions:
        try:
            indices, pred, ref = _read_predictions(args.predictions)
        except (csv.Error, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{args.predictions}: bad predictions file: {exc!r}") from None
        path = out_dir / "hypnogram.svg"
        write_text_atomic(path, figures.hypnogram_svg(pred, indices=indices, reference=ref))
        wrote.append(path)
    if args.metrics:
        try:
            payload = json.loads(Path(args.metrics).read_text(encoding="utf-8"))
            cm = ConfusionMatrix(payload["confusion_matrix"]["rows_true_cols_pred"])
        except (KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
            raise DataError(f"{args.metrics}: bad metrics file: {exc!r}") from None
        path = out_dir / "confusion.svg"
        write_text_atomic(path, figures.confusion_heatmap_svg(cm))
        wrote.append(path)
    if not wrote:
        raise ConfigError("plot needs --predictions and/or --metrics")
    for p in wrote:
        print(f"wrote {p}")
    return 0


# --- argument parsing / dispatch ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sleepstage",
        description="Single-channel EEG sleep staging: dataset fetching, "
                    "preprocessing, training, evaluation, prediction, figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, split=True):
        p.add_argument("--config", help="key=value run configuration file")
        p.add_argument("--dataset-root",
                       help=f"corpus directory (or ${DATASET_ROOT_ENV})")
        p.add_argument("--channel", help="EEG channel label, e.g. 'EEG Fpz-Cz'")
        p.add_argument("--seed", type=int, help="global run seed")
        p.add_argument("--out", help="output directory")
        if split:
            p.add_argument("--split", help="kfold[:k] or holdout[:ratio]")
            p.add_argument("--fold", type=int, help="train only this k-fold fold")

    p = sub.add_parser("fetch", help="download and verify the corpus from a manifest")
    p.add_argument("--manifest", required=True, help="JSON manifest of url/path/size/sha256")
    p.add_argument("--dataset-root", help="destination directory")
    p.add_argument("--config", help="run configuration providing dataset.root")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--backoff", type=float, default=0.5)
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("preprocess", help="parse EDFs into the labeled epoch cache")
    common(p, split=False)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train on the cached epochs")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on its validation split")
    common(p, split=False)  # the checkpoint names its split
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="stage one EDF recording")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--edf", required=True, help="PSG EDF file")
    p.add_argument("--hypnogram", help="reference hypnogram EDF (optional)")
    p.add_argument("--channel", help="must match the checkpoint channel")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("plot", help="render figures from run artifacts")
    p.add_argument("--predictions", help="predictions.csv from predict/eval")
    p.add_argument("--metrics", help="metrics.json from train/eval")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SleepStageError as exc:
        print(f"{exc.kind} error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"runtime error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
