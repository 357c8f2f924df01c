"""Command-line surface: fetch, preprocess, train, eval, predict, plot.

Exit codes: 0 success, 2 configuration problems, 3 data problems,
4 runtime/network problems. Every run copies its resolved configuration
into the output directory; all artifacts are byte-deterministic given
(config, seed, corpus).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import re
import sys
from pathlib import Path

import numpy as np

from . import cache, evaluation, fetch, figures, training
from .autograd import load_arrays, save_arrays
from .config import (
    DATASET_ROOT_ENV,
    RunConfig,
    build_run_config,
    format_kv,
    load_run_config,
    parse_kv_text,
)
from .edf import (
    EPOCH_SECONDS,
    EpochSet,
    StageLabel,
    epoch_recording,
    extract_annotations,
    parse_hypnogram,
    read_recording,
)
from .errors import (  # the EXIT_* codes are re-exported for callers of main()
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_RUNTIME,
    ConfigError,
    ConfigMismatch,
    DataError,
    SingleClassPresent,
    SleepStageError,
)
from .evaluation import ConfusionMatrix, FoldSplit, holdout_split, kfold_split
from .model import ModelConfig, ModelParams
from .preprocess import compute_stats, normalize

log = logging.getLogger("sleepstage")

_SUBJECT_RE = re.compile(r"^(SC4|ST7)\d{2}")


# --- shared helpers ---

def _split_overrides(spec: str | None) -> dict[str, str]:
    if spec is None:
        return {}
    kind, _, arg = spec.partition(":")
    if kind == "kfold":
        out = {"split.kind": "kfold"}
        if arg:
            out["split.k"] = arg
        return out
    if kind == "holdout":
        out = {"split.kind": "holdout"}
        if arg:
            out["split.ratio"] = arg
        return out
    raise ConfigError(f"--split must be kfold[:k] or holdout[:ratio], got {spec!r}")


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
    (out_dir / "config.resolved").write_text(format_kv(rc.resolved()))


def _file_fingerprint(path: Path) -> dict[str, str]:
    stat = path.stat()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"size": str(stat.st_size), "mtime_ns": str(stat.st_mtime_ns), "sha256": digest}


def discover_recordings(dataset_root: Path) -> list[tuple[Path, Path | None, str, str]]:
    """(psg, hypnogram-or-None, subject_id, recording_stem) per EDF in the corpus."""
    edfs = sorted(p for p in dataset_root.rglob("*.edf") if p.is_file())
    hyps = [p for p in edfs if "Hypnogram" in p.name]
    psgs = [p for p in edfs if p not in hyps]
    found = []
    for psg in psgs:
        stem = psg.name[:-len(".edf")]
        base = stem[:-len("-PSG")] if stem.endswith("-PSG") else stem
        best, best_len = None, 0
        for h in hyps:
            if h.parent != psg.parent:
                continue
            hstem = h.name[:-len(".edf")]
            hbase = hstem[:-len("-Hypnogram")] if hstem.endswith("-Hypnogram") else hstem
            common = 0
            for a, b in zip(base, hbase):
                if a != b:
                    break
                common += 1
            if common > best_len:
                best, best_len = h, common
        if best is not None and best_len < max(1, len(base) - 2):
            best = None  # prefix too short to be the same night
        subject = base[:5] if _SUBJECT_RE.match(base) else base
        found.append((psg, best, subject, base))
    return found


# --- checkpoint container + adjacent manifest ---

def save_checkpoint(mp: ModelParams, path: Path, channel: str,
                    split_info: dict[str, str]) -> None:
    save_arrays(mp.state_arrays(), path)
    meta = {
        "channel": channel,
        "stats.version": "1",
        "model": json.dumps(mp.cfg.to_dict(), sort_keys=True),
    }
    meta.update({f"split.{k}": v for k, v in split_info.items()})
    Path(str(path) + ".meta").write_text(format_kv(meta))


def load_checkpoint(path: Path) -> tuple[ModelParams, dict[str, str]]:
    meta_path = Path(str(path) + ".meta")
    if not Path(path).is_file():
        raise ConfigError(f"checkpoint {path} does not exist")
    if not meta_path.is_file():
        raise ConfigMismatch(f"checkpoint manifest {meta_path} is missing")
    meta = parse_kv_text(meta_path.read_text(), source=str(meta_path))
    for key in ("channel", "model"):
        if key not in meta:
            raise DataError(f"checkpoint manifest {meta_path} lacks {key!r}")
    try:
        cfg = ModelConfig.from_dict(json.loads(meta["model"]))
    except (ValueError, TypeError) as exc:
        raise DataError(f"checkpoint manifest {meta_path}: bad 'model' entry: {exc}") from None
    mp = ModelParams.from_state(cfg, load_arrays(path))
    return mp, meta


# --- metrics serialization ---

def _metrics_payload(cm: ConfusionMatrix, rc: RunConfig,
                     split_desc: dict, n_epochs: int) -> dict:
    per_stage = {}
    for s in StageLabel:
        m = evaluation.stage_metrics(cm, s)
        per_stage[s.name] = {
            "accuracy": m.accuracy, "recall": m.recall,
            "precision": m.precision, "f1": m.f1,
        }
    summary = evaluation.summary_metrics(cm)
    return {
        "schema_version": 1,
        "channel": rc.channel,
        "seed": rc.seed,
        "split": split_desc,
        "n_epochs": n_epochs,
        "confusion_matrix": {
            "label_order": [s.name for s in StageLabel],
            "rows_true_cols_pred": cm.counts.tolist(),
        },
        "per_stage": per_stage,
        "summary": {
            "overall_accuracy": summary.overall_accuracy,
            "kappa": summary.kappa,
            "mean_accuracy": summary.mean_accuracy,
            "mean_recall": summary.mean_recall,
            "macro_f1": summary.macro_f1,
            "undefined_stages": list(summary.undefined_stages),
        },
    }


def write_metrics_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


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


def _write_split_log(split: FoldSplit, path: Path) -> None:
    payload = {"kind": split.kind, "seed": split.seed,
               "parts": [list(p) for p in split.parts]}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_curves_csv(curves: dict[int, evaluation.CurveSet], out_dir: Path) -> None:
    with open(out_dir / "roc.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["stage", "fpr", "tpr"])
        for c, cs in sorted(curves.items()):
            for fpr, tpr in cs.roc_points:
                w.writerow([StageLabel(c).name, repr(fpr), repr(tpr)])
    with open(out_dir / "pr.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["stage", "recall", "precision"])
        for c, cs in sorted(curves.items()):
            for rec, prec in cs.pr_points:
                w.writerow([StageLabel(c).name, repr(rec), repr(prec)])
    with open(out_dir / "auc.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["stage", "roc_auc", "pr_auc"])
        for c, cs in sorted(curves.items()):
            w.writerow([StageLabel(c).name, repr(cs.roc_auc), repr(cs.pr_auc)])


# --- commands ---

def cmd_fetch(args) -> int:
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
    failures = 0
    last_error: SleepStageError | None = None
    totals = np.zeros(len(StageLabel), dtype=np.int64)
    for psg, hyp, subject, stem in recs:
        cache_name = f"{subject}__{stem}"
        epochs_path = rc.cache_dir / f"{cache_name}{cache.EPOCH_SUFFIX}"
        src_path = rc.cache_dir / f"{cache_name}.src"
        fingerprint = {f"psg.{k}": v for k, v in _file_fingerprint(psg).items()}
        if hyp is not None:
            fingerprint.update({f"hyp.{k}": v for k, v in _file_fingerprint(hyp).items()})
        fingerprint["channel"] = rc.channel
        if epochs_path.is_file() and src_path.is_file() and \
                parse_kv_text(src_path.read_text(), str(src_path)) == fingerprint:
            log.info("%s: cache up to date", stem)
            totals += np.bincount(cache.load_epochs(epochs_path, subject).labels,
                                  minlength=len(StageLabel))
            continue
        try:
            psg_bytes = psg.read_bytes()
            rec = read_recording(psg_bytes, rc.channel, subject)
            stages = parse_hypnogram(hyp.read_bytes() if hyp is not None else psg_bytes)
            if not stages:
                raise SleepStageError(f"{stem}: no stage annotations found")
            stats = compute_stats(rec.samples)
            rec.samples = normalize(rec.samples, stats)
            epochs = epoch_recording(rec, stages)
            if not epochs:
                raise SleepStageError(f"{stem}: no scorable 30-s epochs")
        except SleepStageError as exc:
            failures += 1
            last_error = exc
            print(f"error: {stem}: {exc}", file=sys.stderr)
            continue
        cache.save_epochs(epochs, epochs_path)
        cache.save_stats(stats, rc.cache_dir / f"{cache_name}{cache.STATS_SUFFIX}")
        src_path.write_text(format_kv(fingerprint))
        totals += np.bincount([int(e.label) for e in epochs], minlength=len(StageLabel))
        log.info("%s: cached %d epochs", stem, len(epochs))

    grand = int(totals.sum())
    print("stage   epochs  share")
    for s in (StageLabel.W, StageLabel.N1, StageLabel.N2, StageLabel.N3, StageLabel.R):
        share = 100.0 * totals[s] / grand if grand else 0.0
        print(f"{s.name:5} {totals[s]:8d}  {share:5.1f}%")
    print(f"total {grand:8d}")
    if failures and grand == 0:
        raise last_error
    return 0


def plan_folds(epochs: EpochSet, kind: str, seed: int, k: int, ratio: float, fold: int | None):
    """The split protocol as a list of folds to train or evaluate.

    Returns (split, [(name, train_idx, val_idx, info)], split_desc): `info`
    goes into the checkpoint manifest and `split_desc` into metrics.json.
    k-fold runs every fold, or only `fold` when given; hold-out is one fold.
    """
    if kind == "kfold":
        if fold is not None and not 0 <= fold < k:
            raise ConfigError(f"split.fold must lie in [0, {k}), got {fold}")
        split = kfold_split(len(epochs), k=k, seed=seed)
        folds = [fold] if fold is not None else list(range(k))
        plan = [(f"fold {i}", *split.fold(i),
                 {"kind": "kfold", "seed": str(seed), "k": str(k), "fold": str(i)})
                for i in folds]
        return split, plan, {"kind": "kfold", "k": k, "seed": seed, "folds": folds}
    split = holdout_split(np.unique(epochs.subjects).tolist(), ratio=ratio, seed=seed)
    plan = [("holdout",
             np.flatnonzero(np.isin(epochs.subjects, split.train_subjects)),
             np.flatnonzero(np.isin(epochs.subjects, split.eval_subjects)),
             {"kind": "holdout", "seed": str(seed), "ratio": repr(ratio)})]
    return split, plan, {"kind": "holdout", "ratio": ratio, "seed": seed}


def _periodic_saver(rc: RunConfig, out_dir: Path, stem: str, split_info: dict):
    if rc.train.checkpoint_every <= 0:
        return None

    def save(pass_index: int, mp: ModelParams) -> None:
        if pass_index % rc.train.checkpoint_every == 0:
            save_checkpoint(mp, out_dir / f"{stem}_pass{pass_index}.ckpt",
                            rc.channel, split_info)

    return save


def cmd_train(args) -> int:
    rc = _run_config(args)
    out_dir = rc.output_dir
    _write_resolved(rc, out_dir)
    epochs = cache.load_all(rc.cache_dir)
    if not epochs:
        raise SleepStageError(
            f"no cached epochs in {rc.cache_dir}; run `sleepstage preprocess` first")
    if epochs.samples.shape[1] != rc.model.input_length:
        raise ConfigMismatch(
            f"cached epochs hold {epochs.samples.shape[1]} samples, "
            f"model.input_length is {rc.model.input_length}")
    augment_cfg = rc.augment if rc.augment_enabled else None

    split, plan, split_desc = plan_folds(epochs, rc.split_kind, rc.seed, rc.split_k,
                                         rc.split_ratio, rc.fold)
    _write_split_log(split, out_dir / "split.json")
    merged = ConfusionMatrix()
    for name, train_idx, val_idx, info in plan:
        stem = name.replace(" ", "")  # "fold 1" -> fold1.ckpt
        result = training.train(
            epochs, train_idx, val_idx, rc.train, rc.model,
            augment_cfg=augment_cfg,
            on_pass=_periodic_saver(rc, out_dir, stem, info))
        training.write_training_log(result.log, out_dir / f"{stem}_train_log.csv")
        save_checkpoint(result.params, out_dir / f"{stem}.ckpt", rc.channel, info)
        final = evaluation.evaluate(result.params, epochs, val_idx)
        merged = merged.merged(final.cm)
        kappa = "nan" if result.best_kappa != result.best_kappa else f"{result.best_kappa:.4f}"
        print(f"{name}: best pass {result.best_pass}, validation kappa {kappa}")

    payload = _metrics_payload(merged, rc, split_desc, merged.total)
    write_metrics_json(payload, out_dir / "metrics.json")
    print_metrics_table(merged)
    return 0


def cmd_eval(args) -> int:
    rc = _run_config(args)
    out_dir = rc.output_dir
    _write_resolved(rc, out_dir)
    mp, meta = load_checkpoint(Path(args.checkpoint))
    if meta["channel"] != rc.channel:
        raise ConfigMismatch(
            f"checkpoint was trained on channel {meta['channel']!r}, run asks for {rc.channel!r}")
    epochs = cache.load_all(rc.cache_dir)
    if not epochs:
        raise SleepStageError(
            f"no cached epochs in {rc.cache_dir}; run `sleepstage preprocess` first")
    if epochs.samples.shape[1] != mp.cfg.input_length:
        raise ConfigMismatch(
            f"cached epochs hold {epochs.samples.shape[1]} samples, "
            f"checkpoint expects {mp.cfg.input_length}")

    # the split as the manifest records it; the run's values stand in for absent fields
    recorded = {k: meta[k] for k in ("split.kind", "split.k", "split.ratio", "split.fold")
                if k in meta}
    try:
        src = build_run_config({
            "dataset.root": str(rc.dataset_root), "split.kind": "holdout",
            "split.k": str(rc.split_k), "split.ratio": repr(rc.split_ratio),
            "seed": meta.get("split.seed", str(rc.seed)), **recorded})
        split, plan, split_desc = plan_folds(epochs, src.split_kind, src.seed, src.split_k,
                                             src.split_ratio, src.fold)
    except ConfigError as exc:
        raise DataError(f"checkpoint manifest {args.checkpoint}.meta: {exc}") from None
    if len(plan) != 1:
        raise DataError(f"checkpoint manifest {args.checkpoint}.meta names no split.fold")
    _, _, val_idx, _ = plan[0]
    _write_split_log(split, out_dir / "split.json")

    result = evaluation.evaluate(mp, epochs, val_idx)
    payload = _metrics_payload(result.cm, rc, split_desc, result.y_true.size)
    write_metrics_json(payload, out_dir / "metrics.json")
    (out_dir / "confusion.svg").write_text(figures.confusion_heatmap_svg(result.cm))
    (out_dir / "hypnogram.svg").write_text(figures.hypnogram_svg(
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
    mp, meta = load_checkpoint(Path(args.checkpoint))
    channel = args.channel or meta["channel"]
    if channel != meta["channel"]:
        raise ConfigMismatch(
            f"checkpoint was trained on channel {meta['channel']!r}, run asks for {channel!r}")
    out_dir = Path(args.out or "out")
    out_dir.mkdir(parents=True, exist_ok=True)

    psg_path = Path(args.edf)
    psg_bytes = psg_path.read_bytes()
    rec = read_recording(psg_bytes, channel, psg_path.stem)
    stats = compute_stats(rec.samples)
    samples = normalize(rec.samples, stats)
    length = mp.cfg.input_length
    rate = length / EPOCH_SECONDS
    if abs(rec.sample_rate - rate) > 1e-9:
        raise ConfigMismatch(
            f"recording runs at {rec.sample_rate} Hz, checkpoint expects {rate} Hz")
    n_windows = len(samples) // length
    if n_windows == 0:
        raise SleepStageError(f"{psg_path.name}: shorter than one 30-s epoch")
    windows = samples[:n_windows * length].reshape(n_windows, length)
    probs = evaluation.predict_probabilities(mp, windows)
    pred = probs.argmax(axis=1)

    reference: dict[int, int] = {}
    hyp_bytes = None
    if args.hypnogram:
        hyp_bytes = Path(args.hypnogram).read_bytes()
    elif extract_annotations(psg_bytes):
        hyp_bytes = psg_bytes
    if hyp_bytes is not None:
        reference = {e.epoch_index: int(e.label)
                     for e in epoch_recording(rec, parse_hypnogram(hyp_bytes))}

    csv_path = out_dir / "predictions.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch_index", "onset_seconds", "predicted", "reference"])
        for i in range(n_windows):
            ref = StageLabel(reference[i]).name if i in reference else ""
            w.writerow([i, i * EPOCH_SECONDS, StageLabel(int(pred[i])).name, ref])

    ref_track = None
    indices = list(range(n_windows))
    if reference:
        indices = sorted(reference)
        ref_track = [reference[i] for i in indices]
        agree = float(np.mean([int(pred[i]) == reference[i] for i in indices]))
        print(f"agreement with reference hypnogram: {100.0 * agree:.2f}% "
              f"over {len(indices)} scored epochs")
        svg = figures.hypnogram_svg([int(pred[i]) for i in indices], indices=indices,
                                    reference=ref_track,
                                    title=f"{psg_path.stem}: predicted vs reference")
    else:
        svg = figures.hypnogram_svg([int(p) for p in pred], indices=indices,
                                    title=f"{psg_path.stem}: predicted staging")
    (out_dir / "hypnogram.svg").write_text(svg)
    print(f"wrote {csv_path}")
    return 0


def cmd_plot(args) -> int:
    out_dir = Path(args.out or "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    wrote = []
    if args.predictions:
        rows = list(csv.DictReader(open(args.predictions, newline="")))
        if not rows:
            raise SleepStageError(f"{args.predictions}: empty predictions file")
        indices = [int(r["epoch_index"]) for r in rows]
        pred = [StageLabel[r["predicted"]] for r in rows]
        have_ref = all(r.get("reference") for r in rows)
        ref = [StageLabel[r["reference"]] for r in rows] if have_ref else None
        path = out_dir / "hypnogram.svg"
        path.write_text(figures.hypnogram_svg(pred, indices=indices, reference=ref))
        wrote.append(path)
    if args.metrics:
        payload = json.loads(Path(args.metrics).read_text())
        cm = ConfusionMatrix(np.asarray(payload["confusion_matrix"]["rows_true_cols_pred"]))
        path = out_dir / "confusion.svg"
        path.write_text(figures.confusion_heatmap_svg(cm))
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
    common(p)
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


if __name__ == "__main__":
    sys.exit(main())
