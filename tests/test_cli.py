"""End-to-end CLI behavior on synthetic corpora plus config and fetch logic."""
import hashlib
import json
import threading
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from sleepstage import cli, errors, fetch
from sleepstage.config import (
    DATASET_ROOT_ENV,
    build_run_config,
    format_kv,
    parse_kv_text,
)
from sleepstage.edf import build_edf, encode_annotation_signal
from sleepstage.errors import ChecksumMismatch, ConfigError, NetworkFailure
from sleepstage.model import ModelConfig, init_params

from helpers import EEG_CHANNEL, build_corpus_recording, digitize, eeg_signal_header

MICRO_MODEL_LINES = """
dataset.channel = EEG Fpz-Cz
model.branch_channels = 2
model.input_length = 300
model.pool_sizes = 8,4,4
train.max_passes = 1
train.batch_size = 4
seed = 11
"""


# case -> (manifest edits, model JSON edits, container rewrite, text the error names);
# an edit to None deletes the key
CORRUPT_CHECKPOINTS = {
    "channel-None": ({"channel": None}, {}, None, "channel"),
    "model-None": ({"model": None}, {}, None, "model"),
    "model-num_classes": ({}, {"num_classes": None}, None, "num_classes"),
    "split.fold-None": ({"split.fold": None}, {}, None, "split.fold"),
    "split.k-three": ({"split.k": "three"}, {}, None, "split.k"),
    "model-truncated": ({"model": '{"branch'}, {}, None, "model"),
    "model-spatial_kernel": ({}, {"spatial_kernel": 4}, None, "spatial_kernel"),
    "container-garbage": ({}, {}, lambda blob: b"garbage" * 20, "not a parameter container"),
    "container-truncated": ({}, {}, lambda blob: blob[:40], "container ends inside entry"),
}
# every case under `eval` (ids as the case names) and under `predict`
CORRUPT_CHECKPOINT_RUNS = [
    pytest.param(case, command, id=case if command == "eval" else f"{case}-{command}")
    for case in CORRUPT_CHECKPOINTS for command in ("eval", "predict")]


def _edited(values: dict, edits: dict) -> dict:
    out = {**values, **edits}
    return {k: v for k, v in out.items() if v is not None}


class TestConfigFormat:
    def test_parse_kv(self):
        values = parse_kv_text("# comment\n\na.b = 1\nc = hello = world\n")
        assert values == {"a.b": "1", "c": "hello = world"}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_kv_text("not a key value line\n")

    def test_format_round_trip(self):
        values = {"b.key": "2", "a.key": "x"}
        assert parse_kv_text(format_kv(values)) == values

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config({"dataset.root": "/x", "mistyped.key": "1"})

    def test_missing_dataset_root(self, monkeypatch):
        monkeypatch.delenv(DATASET_ROOT_ENV, raising=False)
        with pytest.raises(ConfigError):
            build_run_config({})

    def test_env_var_supplies_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DATASET_ROOT_ENV, str(tmp_path))
        rc = build_run_config({})
        assert rc.dataset_root == tmp_path

    def test_override_precedence(self, tmp_path):
        rc = build_run_config({"dataset.root": str(tmp_path), "seed": "1"},
                              overrides={"seed": "7"})
        assert rc.seed == 7
        assert rc.train.seed == 7

    def test_typed_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            build_run_config({"dataset.root": str(tmp_path), "split.k": "five"})
        with pytest.raises(ConfigError):
            build_run_config({"dataset.root": str(tmp_path), "split.kind": "loocv"})
        for key, value in [("split.k", "0"), ("split.ratio", "1.5"), ("split.ratio", "0"),
                           ("model.channel_attention_reduction", "0")]:
            with pytest.raises(ConfigError):
                build_run_config({"dataset.root": str(tmp_path), key: value})

    def test_model_overrides_take_effect(self, tmp_path):
        rc = build_run_config({"dataset.root": str(tmp_path),
                               "model.branch_channels": "4",
                               "model.pool_sizes": "2,2,2",
                               "model.input_length": "64"})
        assert rc.model.branch_channels == 4
        assert rc.model.pool_sizes == (2, 2, 2)

    def test_resolved_reparses_identically(self, tmp_path):
        rc = build_run_config({"dataset.root": str(tmp_path), "seed": "3"})
        again = build_run_config(parse_kv_text(format_kv(rc.resolved())))
        assert again == rc

    def test_resolved_default_literal(self):
        rc = build_run_config({"dataset.root": "/data"})
        assert format_kv(rc.resolved()) == (
            "augment.enabled = true\n"
            "augment.flip_probability = 0.5\n"
            "augment.noise_fraction = 0.01\n"
            "cache.dir = /data/cache\n"
            "dataset.channel = EEG Fpz-Cz\n"
            "dataset.root = /data\n"
            "model.attention_blocks = 3\n"
            "model.branch_channels = 32\n"
            "model.branch_kernel_sizes = 3,5,7\n"
            "model.channel_attention_reduction = 4\n"
            "model.input_length = 3000\n"
            "model.num_classes = 5\n"
            "model.pool_sizes = 8,4,4\n"
            "model.spatial_kernel = 3\n"
            "output.dir = out\n"
            "seed = 0\n"
            "split.k = 5\n"
            "split.kind = kfold\n"
            "split.ratio = 0.8\n"
            "train.adam_beta1 = 0.9\n"
            "train.adam_beta2 = 0.999\n"
            "train.adam_eps = 1e-08\n"
            "train.batch_size = 8\n"
            "train.checkpoint_every = 0\n"
            "train.learning_rate = 0.0005\n"
            "train.max_passes = 30\n"
        )


# exit code and stderr prefix of every error class, as main() reports them
EXIT_TABLE = {
    "SleepStageError": (4, "runtime"),
    "ShapeMismatch": (4, "runtime"),
    "NegativeThreshold": (4, "runtime"),
    "NonScalarLoss": (4, "runtime"),
    "GraphConsumed": (4, "runtime"),
    "MissingGradient": (4, "runtime"),
    "UndefinedMetric": (4, "runtime"),
    "NetworkFailure": (4, "network"),
    "ConfigError": (2, "configuration"),
    "ConfigMismatch": (2, "configuration"),
    "DataError": (3, "data"),
    "TruncatedFile": (3, "data"),
    "MalformedHeader": (3, "data"),
    "SignalNotFound": (3, "data"),
    "DegenerateCalibration": (3, "data"),
    "OverlappingAnnotations": (3, "data"),
    "UnknownStageString": (3, "data"),
    "SampleRateMismatch": (3, "data"),
    "EmptySignal": (3, "data"),
    "DegenerateSignal": (3, "data"),
    "ChecksumMismatch": (3, "data"),
    "TooFewSamples": (3, "data"),
    "TooFewSubjects": (3, "data"),
    "EmptySplit": (3, "data"),
    "SingleClassPresent": (3, "data"),
    "ZeroProportion": (3, "data"),
}


def _error_classes(cls=errors.SleepStageError):
    out = {cls.__name__: cls}
    for sub in cls.__subclasses__():
        out.update(_error_classes(sub))
    return out


class TestExitCodes:
    def test_table_covers_every_error_class(self):
        assert set(_error_classes()) == set(EXIT_TABLE)

    @pytest.mark.parametrize("name", sorted(EXIT_TABLE))
    def test_exit_code_and_prefix(self, name, monkeypatch, capsys):
        def fail(args):
            raise _error_classes()[name]("boom")

        monkeypatch.setattr(cli, "cmd_plot", fail)
        code, prefix = EXIT_TABLE[name]
        assert run_cli("plot") == code
        assert capsys.readouterr().err == f"{prefix} error: boom\n"


def write_config(tmp_path: Path, corpus: Path, extra: str = "") -> Path:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset.root = {corpus}\n{MICRO_MODEL_LINES}\n{extra}\n")
    return cfg


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture
def preprocessed(tiny_corpus, tmp_path):
    cfg = write_config(tmp_path, tiny_corpus)
    assert run_cli("preprocess", "--config", cfg) == 0
    return cfg, tiny_corpus


class TestPreprocess:
    def test_builds_cache_and_prints_table(self, tiny_corpus, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_corpus)
        assert run_cli("preprocess", "--config", cfg) == 0
        out = capsys.readouterr().out
        assert "stage" in out and "total" in out and "W" in out
        cache_dir = tiny_corpus / "cache"
        assert sorted(p.name for p in cache_dir.glob("*.epochs")) == [
            "subjA__subjA.epochs", "subjB__subjB.epochs"]
        assert (cache_dir / "subjA__subjA.stats").is_file()

    def test_rerun_reuses_cache(self, preprocessed, capsys):
        cfg, corpus = preprocessed
        before = {p.name: p.stat().st_mtime_ns
                  for p in (corpus / "cache").glob("*.epochs")}
        assert run_cli("preprocess", "--config", cfg) == 0
        after = {p.name: p.stat().st_mtime_ns
                 for p in (corpus / "cache").glob("*.epochs")}
        assert before == after

    def test_changed_source_invalidates_cache(self, preprocessed):
        cfg, corpus = preprocessed
        psg = corpus / "subjA-PSG.edf"
        psg.write_bytes(psg.read_bytes())  # rewrite bumps mtime
        epochs_file = corpus / "cache" / "subjA__subjA.epochs"
        before = epochs_file.stat().st_mtime_ns
        assert run_cli("preprocess", "--config", cfg) == 0
        assert epochs_file.stat().st_mtime_ns != before

    def test_missing_hypnogram_fails_that_file_only(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        build_corpus_recording(corpus, "good", [4, 3, 2, 1, 0], n_epochs=10,
                               seed=3, rate=10)
        build_corpus_recording(corpus, "bad", [4, 3, 2, 1, 0], n_epochs=10,
                               seed=4, rate=10)
        (corpus / "bad-Hypnogram.edf").unlink()
        cfg = write_config(tmp_path, corpus)
        assert run_cli("preprocess", "--config", cfg) == 0
        err = capsys.readouterr().err
        assert "bad" in err
        assert (corpus / "cache" / "good__good.epochs").is_file()
        assert not (corpus / "cache" / "bad__bad.epochs").is_file()

    def test_missing_channel_is_data_error(self, tiny_corpus, tmp_path):
        cfg = write_config(tmp_path, tiny_corpus)
        assert run_cli("preprocess", "--config", cfg, "--channel", "EEG Pz-Oz") == cli.EXIT_DATA


class TestTrainEvalPredict:
    def test_holdout_pipeline(self, preprocessed, tmp_path, capsys):
        cfg, corpus = preprocessed
        out = tmp_path / "run1"
        assert run_cli("train", "--config", cfg, "--split", "holdout:0.5",
                       "--out", out) == 0
        assert (out / "holdout.ckpt").is_file()
        assert (out / "holdout.ckpt.meta").is_file()
        assert (out / "metrics.json").is_file()
        assert (out / "split.json").is_file()
        assert (out / "config.resolved").is_file()
        log = (out / "holdout_train_log.csv").read_text().splitlines()
        assert log[0].startswith("pass,step,train_loss")

        payload = json.loads((out / "metrics.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["split"]["kind"] == "holdout"
        assert len(payload["confusion_matrix"]["rows_true_cols_pred"]) == 5

        eval_out = tmp_path / "eval1"
        assert run_cli("eval", "--config", cfg, "--checkpoint", out / "holdout.ckpt",
                       "--out", eval_out) == 0
        for name in ("metrics.json", "confusion.svg", "hypnogram.svg", "split.json"):
            assert (eval_out / name).is_file(), name
        svg = (eval_out / "hypnogram.svg").read_text()
        assert svg.startswith("<svg") and "predicted" in svg

        metrics_train = json.loads((out / "metrics.json").read_text())
        metrics_eval = json.loads((eval_out / "metrics.json").read_text())
        assert metrics_train["confusion_matrix"] == metrics_eval["confusion_matrix"]

    def test_kfold_pipeline(self, preprocessed, tmp_path):
        cfg, corpus = preprocessed
        out = tmp_path / "kfold"
        assert run_cli("train", "--config", cfg, "--split", "kfold:3", "--out", out) == 0
        for i in range(3):
            assert (out / f"fold{i}.ckpt").is_file()
        payload = json.loads((out / "metrics.json").read_text())
        # merged validation matrices cover every cached epoch exactly once
        assert payload["n_epochs"] == 30

    def test_single_fold_restriction(self, preprocessed, tmp_path):
        cfg, corpus = preprocessed
        out = tmp_path / "one_fold"
        assert run_cli("train", "--config", cfg, "--split", "kfold:3",
                       "--fold", 1, "--out", out) == 0
        assert (out / "fold1.ckpt").is_file()
        assert not (out / "fold0.ckpt").exists()

    @pytest.mark.parametrize("fold", [7, -1])
    def test_fold_out_of_range_is_config_error(self, preprocessed, tmp_path, fold):
        cfg, corpus = preprocessed
        out = tmp_path / "bad_fold"
        assert run_cli("train", "--config", cfg, "--split", "kfold:3",
                       "--fold", fold, "--out", out) == cli.EXIT_CONFIG
        assert not (out / "split.json").exists()

    @pytest.mark.parametrize("split, stem", [("kfold:3", "fold1"), ("holdout:0.5", "holdout")])
    def test_eval_reproduces_train_metrics(self, preprocessed, tmp_path, split, stem):
        cfg, corpus = preprocessed
        out = tmp_path / "train"
        argv = ["--fold", 1] if split.startswith("kfold") else []
        assert run_cli("train", "--config", cfg, "--split", split, *argv, "--out", out) == 0
        eval_out = tmp_path / "eval"
        assert run_cli("eval", "--config", cfg, "--checkpoint", out / f"{stem}.ckpt",
                       "--out", eval_out) == 0
        assert (eval_out / "metrics.json").read_bytes() == (out / "metrics.json").read_bytes()

    @pytest.mark.parametrize("case, command", CORRUPT_CHECKPOINT_RUNS)
    def test_incomplete_checkpoint_manifest_is_data_error(self, preprocessed, tmp_path,
                                                          capsys, case, command):
        manifest_edits, model_edits, container, named = CORRUPT_CHECKPOINTS[case]
        cfg, corpus = preprocessed
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--split", "kfold:3", "--fold", 1,
                       "--out", out) == 0
        ckpt = out / "fold1.ckpt"
        meta_path = out / "fold1.ckpt.meta"
        meta = parse_kv_text(meta_path.read_text())
        if model_edits:
            meta["model"] = json.dumps(_edited(json.loads(meta["model"]), model_edits))
        meta_path.write_text(format_kv(_edited(meta, manifest_edits)))
        if container is not None:
            ckpt.write_bytes(container(ckpt.read_bytes()))
        capsys.readouterr()
        if command == "eval":
            code = run_cli("eval", "--config", cfg, "--checkpoint", ckpt,
                           "--out", tmp_path / "eval")
        else:
            code = run_cli("predict", "--checkpoint", ckpt, "--edf", corpus / "subjA-PSG.edf",
                           "--out", tmp_path / "pred")
        if command == "predict" and named.startswith("split."):
            assert code == 0  # predict reads no split field
            return
        assert code == cli.EXIT_DATA
        assert named in capsys.readouterr().err

    def test_eval_channel_mismatch_is_config_error(self, preprocessed, tmp_path):
        cfg, corpus = preprocessed
        out = tmp_path / "run2"
        assert run_cli("train", "--config", cfg, "--split", "holdout:0.5",
                       "--out", out) == 0
        code = run_cli("eval", "--config", cfg, "--checkpoint", out / "holdout.ckpt",
                       "--channel", "EEG Pz-Oz", "--out", tmp_path / "eval2")
        assert code == cli.EXIT_CONFIG

    def test_predict_with_reference(self, preprocessed, tmp_path, capsys):
        cfg, corpus = preprocessed
        out = tmp_path / "run3"
        assert run_cli("train", "--config", cfg, "--split", "holdout:0.5",
                       "--out", out) == 0
        pred_out = tmp_path / "pred"
        assert run_cli("predict", "--checkpoint", out / "holdout.ckpt",
                       "--edf", corpus / "subjA-PSG.edf",
                       "--hypnogram", corpus / "subjA-Hypnogram.edf",
                       "--out", pred_out) == 0
        stdout = capsys.readouterr().out
        assert "agreement with reference hypnogram" in stdout
        rows = (pred_out / "predictions.csv").read_text().splitlines()
        assert rows[0] == "epoch_index,onset_seconds,predicted,reference"
        assert len(rows) == 16  # 15 epochs + header
        svg = (pred_out / "hypnogram.svg").read_text()
        assert "reference" in svg

    def test_predict_without_reference(self, preprocessed, tmp_path, capsys):
        cfg, corpus = preprocessed
        out = tmp_path / "run4"
        assert run_cli("train", "--config", cfg, "--split", "holdout:0.5",
                       "--out", out) == 0
        # subjB has embedded annotations; strip them by pointing at subjA and
        # NOT passing the hypnogram: subjA's PSG has no annotation signal
        pred_out = tmp_path / "pred2"
        assert run_cli("predict", "--checkpoint", out / "holdout.ckpt",
                       "--edf", corpus / "subjA-PSG.edf", "--out", pred_out) == 0
        stdout = capsys.readouterr().out
        assert "agreement" not in stdout
        svg = (pred_out / "hypnogram.svg").read_text()
        assert "reference" not in svg

    def test_predict_clamps_reference_before_recording_start(self, tmp_path, capsys):
        """A hypnogram interval that starts before the PSG scores window 0
        only, as in the epoch cache; nothing maps onto the last window."""
        length = 300
        sig = eeg_signal_header(samples_per_record=length)
        rng = np.random.default_rng(0)
        psg = build_edf([(sig, digitize(20.0 * rng.normal(size=6 * length), sig))],
                        record_count=6, record_duration=Fraction(30))
        ann_sig, ann = encode_annotation_signal(
            [(-30.0, 60.0, "W"), (30.0, 60.0, "2"), (90.0, 90.0, "R")],
            record_count=6, record_duration=30.0)
        raw = ann.astype("<i2").tobytes()
        record = 2 * ann_sig.samples_per_record
        # the encoder writes every onset with a '+'; a TAL spells a negative one "-30"
        first = raw[:record].replace(b"+-30\x15", b"-30\x15") + b"\x00"
        ann = np.frombuffer(first + raw[record:], dtype="<i2").astype(np.int32)
        (tmp_path / "n-PSG.edf").write_bytes(psg)
        (tmp_path / "n-Hypnogram.edf").write_bytes(
            build_edf([(ann_sig, ann)], record_count=6, record_duration=Fraction(30)))
        cfg = ModelConfig(branch_channels=2, input_length=length, pool_sizes=(8, 4, 4))
        cli.save_checkpoint(init_params(cfg, seed=0), tmp_path / "m.ckpt", EEG_CHANNEL, {})
        assert run_cli("predict", "--checkpoint", tmp_path / "m.ckpt",
                       "--edf", tmp_path / "n-PSG.edf",
                       "--hypnogram", tmp_path / "n-Hypnogram.edf",
                       "--out", tmp_path / "pred") == 0
        assert "over 6 scored epochs" in capsys.readouterr().out
        rows = (tmp_path / "pred" / "predictions.csv").read_text().splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["W", "N2", "N2", "R", "R", "R"]

    def test_predict_embedded_annotations_found(self, preprocessed, tmp_path, capsys):
        cfg, corpus = preprocessed
        out = tmp_path / "run5"
        assert run_cli("train", "--config", cfg, "--split", "holdout:0.5",
                       "--out", out) == 0
        assert run_cli("predict", "--checkpoint", out / "holdout.ckpt",
                       "--edf", corpus / "subjB-PSG.edf",
                       "--out", tmp_path / "pred3") == 0
        assert "agreement" in capsys.readouterr().out

    def test_predict_channel_mismatch(self, preprocessed, tmp_path):
        cfg, corpus = preprocessed
        out = tmp_path / "run6"
        assert run_cli("train", "--config", cfg, "--split", "holdout:0.5",
                       "--out", out) == 0
        code = run_cli("predict", "--checkpoint", out / "holdout.ckpt",
                       "--edf", corpus / "subjA-PSG.edf",
                       "--channel", "EEG Pz-Oz", "--out", tmp_path / "pred4")
        assert code == cli.EXIT_CONFIG

    def test_plot_from_artifacts(self, preprocessed, tmp_path):
        cfg, corpus = preprocessed
        out = tmp_path / "run7"
        assert run_cli("train", "--config", cfg, "--split", "holdout:0.5",
                       "--out", out) == 0
        pred_out = tmp_path / "pred7"
        assert run_cli("predict", "--checkpoint", out / "holdout.ckpt",
                       "--edf", corpus / "subjA-PSG.edf",
                       "--hypnogram", corpus / "subjA-Hypnogram.edf",
                       "--out", pred_out) == 0
        plot_out = tmp_path / "plots"
        assert run_cli("plot", "--predictions", pred_out / "predictions.csv",
                       "--metrics", out / "metrics.json", "--out", plot_out) == 0
        assert (plot_out / "hypnogram.svg").is_file()
        assert (plot_out / "confusion.svg").is_file()

    def test_plot_without_inputs_is_config_error(self, tmp_path):
        assert run_cli("plot", "--out", tmp_path) == cli.EXIT_CONFIG

    def test_train_before_preprocess_is_runtime_error(self, tiny_corpus, tmp_path):
        cfg = write_config(tmp_path, tiny_corpus)
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "x") == cli.EXIT_RUNTIME


class TestPeriodicCheckpoints:
    def test_checkpoint_every_pass(self, preprocessed, tmp_path):
        cfg, corpus = preprocessed
        extra = cfg.read_text() + "train.checkpoint_every = 1\ntrain.max_passes = 2\n"
        cfg2 = tmp_path / "periodic.cfg"
        cfg2.write_text(extra)
        out = tmp_path / "periodic"
        assert run_cli("train", "--config", cfg2, "--split", "holdout:0.5",
                       "--out", out) == 0
        assert (out / "holdout_pass1.ckpt").is_file()
        assert (out / "holdout_pass2.ckpt").is_file()
        assert (out / "holdout.ckpt").is_file()


class TestDeterminism:
    def test_rerun_from_persisted_config_reproduces_metrics(self, preprocessed, tmp_path):
        cfg, corpus = preprocessed
        first = tmp_path / "orig"
        assert run_cli("train", "--config", cfg, "--split", "holdout:0.5",
                       "--out", first) == 0
        second = tmp_path / "replay"
        assert run_cli("train", "--config", first / "config.resolved",
                       "--out", second) == 0
        assert (first / "metrics.json").read_bytes() == (second / "metrics.json").read_bytes()

    def test_two_train_runs_byte_identical_metrics(self, preprocessed, tmp_path):
        cfg, corpus = preprocessed
        outs = [tmp_path / "d1", tmp_path / "d2"]
        for out in outs:
            assert run_cli("train", "--config", cfg, "--split", "holdout:0.5",
                           "--out", out) == 0
        a = (outs[0] / "metrics.json").read_bytes()
        b = (outs[1] / "metrics.json").read_bytes()
        assert a == b
        la = (outs[0] / "holdout_train_log.csv").read_bytes()
        lb = (outs[1] / "holdout_train_log.csv").read_bytes()
        assert la == lb


class _RangeHandler(BaseHTTPRequestHandler):
    """Static file handler with enough Range support for resume tests."""

    root: Path = Path(".")

    def do_GET(self):
        target = self.root / self.path.lstrip("/")
        if not target.is_file():
            self.send_error(404)
            return
        blob = target.read_bytes()
        rng = self.headers.get("Range")
        if rng and rng.startswith("bytes="):
            start = int(rng[len("bytes="):].split("-")[0])
            body = blob[start:]
            self.send_response(206)
            self.send_header("Content-Range", f"bytes {start}-{len(blob) - 1}/{len(blob)}")
        else:
            body = blob
            self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_root(tmp_path):
    served = tmp_path / "served"
    served.mkdir()
    handler = type("H", (_RangeHandler,), {"root": served})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield served, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()


def make_manifest(served: Path, base: str, tmp_path: Path, names) -> Path:
    rng = np.random.default_rng(4)
    entries = []
    for name in names:
        payload = rng.bytes(3000)
        (served / name).write_bytes(payload)
        entries.append({
            "url": f"{base}/{name}",
            "path": name,
            "size": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
        })
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries))
    return manifest


class TestFetch:
    def test_download_verify_idempotent(self, http_root, tmp_path, capsys):
        served, base = http_root
        manifest = make_manifest(served, base, tmp_path, ["a.edf", "b.edf"])
        root = tmp_path / "data"
        assert run_cli("fetch", "--manifest", manifest, "--dataset-root", root) == 0
        assert "2 of 2 files downloaded" in capsys.readouterr().out
        assert (root / "a.edf").stat().st_size == 3000
        assert run_cli("fetch", "--manifest", manifest, "--dataset-root", root) == 0
        assert "0 of 2 files downloaded" in capsys.readouterr().out

    def test_corrupted_file_refetched(self, http_root, tmp_path):
        served, base = http_root
        manifest = make_manifest(served, base, tmp_path, ["a.edf"])
        root = tmp_path / "data"
        assert run_cli("fetch", "--manifest", manifest, "--dataset-root", root) == 0
        (root / "a.edf").write_bytes(b"corrupted")
        assert run_cli("fetch", "--manifest", manifest, "--dataset-root", root) == 0
        entry = fetch.load_manifest(manifest)[0]
        assert hashlib.sha256((root / "a.edf").read_bytes()).hexdigest() == entry.sha256

    def test_partial_download_resumes(self, http_root, tmp_path):
        served, base = http_root
        manifest = make_manifest(served, base, tmp_path, ["a.edf"])
        root = tmp_path / "data"
        root.mkdir()
        full = (served / "a.edf").read_bytes()
        (root / "a.edf.part").write_bytes(full[:1000])
        entry = fetch.load_manifest(manifest)[0]
        assert fetch.fetch_entry(entry, root) is True
        assert (root / "a.edf").read_bytes() == full
        assert not (root / "a.edf.part").exists()

    def test_wrong_checksum_raises(self, http_root, tmp_path):
        served, base = http_root
        manifest = make_manifest(served, base, tmp_path, ["a.edf"])
        entries = json.loads(manifest.read_text())
        entries[0]["sha256"] = "0" * 64
        manifest.write_text(json.dumps(entries))
        entry = fetch.load_manifest(manifest)[0]
        with pytest.raises(ChecksumMismatch):
            fetch.fetch_entry(entry, tmp_path / "data", retries=2, backoff=0.01)

    def test_unreachable_host_exit_code(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{
            "url": "http://127.0.0.1:1/a.edf", "path": "a.edf",
            "size": 10, "sha256": "0" * 64,
        }]))
        code = run_cli("fetch", "--manifest", manifest,
                       "--dataset-root", tmp_path / "data",
                       "--retries", 1, "--backoff", 0.01)
        assert code == cli.EXIT_RUNTIME

    def test_unreachable_raises_network_failure(self, tmp_path):
        entry = fetch.ManifestEntry(url="http://127.0.0.1:1/x", path="x",
                                    size=10, sha256="0" * 64)
        with pytest.raises(NetworkFailure):
            fetch.fetch_entry(entry, tmp_path, retries=1, backoff=0.01)
