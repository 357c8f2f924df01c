"""End-to-end CLI behavior on synthetic corpora plus config and fetch logic."""
import collections
import csv
import hashlib
import json
import logging
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sleepstage import autograd as ag
from sleepstage import cache, cli, errors, evaluation, fetch
from sleepstage.autograd import Tensor
from sleepstage.checkpoint import load_arrays, load_checkpoint, save_arrays, save_checkpoint
from sleepstage.config import (
    DATASET_ROOT_ENV,
    RunConfig,
    build_run_config,
    format_kv,
    load_run_config,
    parse_kv_text,
)
from sleepstage.edf import (
    EegRecording,
    SignalHeader,
    StageLabel,
    build_edf,
    calibrate,
    encode_annotation_signal,
    epoch_recording,
    find_signal,
    map_label,
    parse_edf,
    parse_hypnogram,
)
from sleepstage.errors import ChecksumMismatch, ConfigError, DataError, NetworkFailure
from sleepstage.evaluation import (
    ConfusionMatrix,
    SplitConfig,
    holdout_split,
    kfold_split,
    stage_metrics,
)
from sleepstage.model import ModelConfig, init_params, state_shapes
from sleepstage.preprocess import compute_stats
from sleepstage.training import AdamState, TrainConfig, adam_step, class_weights, train

from helpers import (EEG_CHANNEL, build_corpus_recording, digitize, eeg_signal_header,
                     float64_normalize, micro_model_config, sine_epochs, tensor_sum,
                     version1_cache_bytes)

MICRO_MODEL_LINES = """
dataset.channel = EEG Fpz-Cz
model.branch_channels = 2
model.input_length = 300
model.pool_sizes = 8,4,4
train.max_passes = 1
train.batch_size = 4
seed = 11
"""


def _drop_entry(name: str):
    def rewrite(ckpt: Path) -> None:
        manifest, arrays = load_arrays(ckpt)
        del arrays[name]
        save_arrays(arrays, manifest, ckpt)
    return rewrite


def _set_entry(name: str, value: float):
    def rewrite(ckpt: Path) -> None:
        manifest, arrays = load_arrays(ckpt)
        arrays[name].flat[0] = value
        save_arrays(arrays, manifest, ckpt)
    return rewrite


def _append_to_manifest(line: str):
    def rewrite(ckpt: Path) -> None:
        manifest, arrays = load_arrays(ckpt)
        save_arrays(arrays, manifest + line, ckpt)
    return rewrite


def _four_class_head(ckpt: Path) -> None:
    manifest, arrays = load_arrays(ckpt)
    arrays["head.fc.weight"] = arrays["head.fc.weight"][:, :4]
    arrays["head.fc.bias"] = arrays["head.fc.bias"][:4]
    save_arrays(arrays, manifest, ckpt)


def _rename_entry(name: str, new: str):
    """Rename entry `name` to `new`, of the same length, in the file's bytes."""
    def rewrite(ckpt: Path) -> None:
        blob = ckpt.read_bytes()
        assert len(name) == len(new) and blob.count(name.encode()) == 1
        ckpt.write_bytes(blob.replace(name.encode(), new.encode()))
    return rewrite


def _not_utf8(ckpt: Path) -> None:
    blob = bytearray(ckpt.read_bytes())
    blob[12] = 0xFF  # the manifest's first byte
    ckpt.write_bytes(bytes(blob))


# case -> (manifest edits, rewrite of the checkpoint file, text the error names);
# an edit to None deletes the key
CORRUPT_CHECKPOINTS = {
    "channel-None": ({"dataset.channel": None}, None, "dataset.channel"),
    "model-None": ({f"model.{f.name}": None for f in fields(ModelConfig)}, None, "model."),
    "split.fold-None": ({"split.fold": None}, None, "split.fold"),
    "split.k-three": ({"split.k": "three"}, None, "split.k"),
    "split.kind-None": ({"split.kind": None}, None, "split.kind"),
    "split.seed-None": ({"split.seed": None}, None, "split.seed"),
    "split.seed-negative": ({"split.seed": "-1"}, None, "seed must be >= 0"),
    "model-truncated": ({"model.pool_sizes": "8,4,[4"}, None, "model.pool_sizes"),
    "model-spatial_kernel": ({"model.spatial_kernel": "4"}, None, "spatial_kernel"),
    "model-spatial_kernel-negative": ({"model.spatial_kernel": "-1"}, None, "spatial_kernel"),
    "model-branch_kernel_sizes-empty": ({"model.branch_kernel_sizes": ""}, None,
                                        "branch_kernel_sizes"),
    "model-branch_kernel_sizes-duplicate": ({"model.branch_kernel_sizes": "3,3"}, None,
                                            "branch_kernel_sizes"),
    "model-branch_kernel_sizes-negative": ({"model.branch_kernel_sizes": "-1"}, None,
                                           "branch_kernel_sizes"),
    "model-pool_sizes": ({"model.pool_sizes": "8,4,40"}, None, "pool_sizes"),
    "container-garbage": ({}, lambda ckpt: ckpt.write_bytes(b"garbage" * 20),
                          "not a parameter container"),
    "container-truncated": ({}, lambda ckpt: ckpt.write_bytes(ckpt.read_bytes()[:40]),
                            "container ends inside the manifest"),
    "container-truncated-entry": ({}, lambda ckpt: ckpt.write_bytes(ckpt.read_bytes()[:-40]),
                                  "container ends inside entry"),
    "container-running_mean-None": ({}, _drop_entry("branch3.bn1.running_mean"),
                                    "branch3.bn1.running_mean"),
    "container-head.fc.weight-None": ({}, _drop_entry("head.fc.weight"), "head.fc.weight"),
    "container-head-4-class": ({}, _four_class_head,
                               "'head.fc.weight' has shape (6, 4), config expects (6, 5)"),
    "container-head.fc.bias-nan": ({}, _set_entry("head.fc.bias", np.nan), "'head.fc.bias'"),
    "container-block0.conv1.weight-inf": ({}, _set_entry("block0.conv1.weight", -np.inf),
                                          "'block0.conv1.weight'"),
    "container-running_var-negative": ({}, _set_entry("branch3.bn1.running_var", -5.0),
                                       "'branch3.bn1.running_var' holds a negative variance"),
    "container-repeated-name": ({}, _rename_entry("branch5.conv1.weight", "branch3.conv1.weight"),
                                "repeats the name 'branch3.conv1.weight'"),
    "manifest-not-utf8": ({}, _not_utf8, "the manifest is not UTF-8 text"),
    "manifest-line-without-equals": ({}, _append_to_manifest("no key value here\n"),
                                     "expected 'key = value'"),
}
# every case under `eval` (ids as the case names) and under `predict`
CORRUPT_CHECKPOINT_RUNS = [
    pytest.param(case, command, id=case if command == "eval" else f"{case}-{command}")
    for case in CORRUPT_CHECKPOINTS for command in ("eval", "predict")]


def metrics_with_cell(cell: str) -> str:
    """metrics.json text whose 5x5 matrix holds the JSON value `cell` among counts of 1."""
    rows = [["1"] * 5 for _ in range(5)]
    rows[1][2] = cell
    matrix = ", ".join(f"[{', '.join(row)}]" for row in rows)
    return f'{{"confusion_matrix": {{"rows_true_cols_pred": [{matrix}]}}}}'


def write_night(path: Path, stem: str, intervals, n_epochs: int, embedded: bool) -> None:
    """<stem>-PSG.edf of n_epochs 30-s records of noise at 10 Hz, scored by
    `intervals` in <stem>-Hypnogram.edf or, when embedded, in the PSG itself."""
    sig = eeg_signal_header(samples_per_record=300)
    eeg = digitize(20.0 * np.random.default_rng(0).normal(size=n_epochs * 300), sig)
    ann = encode_annotation_signal(intervals, record_count=n_epochs, record_duration=30.0,
                                   samples_per_record=128)
    if embedded:
        psg = build_edf([(sig, eeg), ann], record_count=n_epochs, record_duration=Fraction(30))
    else:
        psg = build_edf([(sig, eeg)], record_count=n_epochs, record_duration=Fraction(30))
        (path / f"{stem}-Hypnogram.edf").write_bytes(
            build_edf([ann], record_count=n_epochs, record_duration=Fraction(30)))
    (path / f"{stem}-PSG.edf").write_bytes(psg)


def micro_checkpoint(path: Path) -> Path:
    cfg = ModelConfig(branch_channels=2, input_length=300, pool_sizes=(8, 4, 4))
    save_checkpoint(init_params(cfg, seed=0), path, EEG_CHANNEL, SplitConfig())
    return path


def _edited(values: dict, edits: dict) -> dict:
    out = {**values, **edits}
    return {k: v for k, v in out.items() if v is not None}


# config text of real keys with values near their bounds, so that the
# property below reaches past parse_kv_text into build_run_config
CONFIG_KEYS = sorted(build_run_config({"dataset.root": "/data"}).resolved())
CONFIG_LINE = st.tuples(
    st.sampled_from(CONFIG_KEYS),
    st.sampled_from(["0", "1", "-1", "3", "0.5", "1e999", "nan", "2,2,2", "8,4,4", "",
                     "kfold", "holdout", "true", "/data", "a\0b"]) | st.text(max_size=8),
).map(lambda kv: f"{kv[0]} = {kv[1]}")
CONFIG_TEXT = st.lists(CONFIG_LINE, max_size=6).map(
    lambda lines: "\n".join(["dataset.root = /data", *lines]).encode())


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

    def test_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"train.seed = \xff\xfe\n")
        assert run_cli("preprocess", "--config", cfg) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config file {cfg} is not UTF-8 text")

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64) | CONFIG_TEXT)
    def test_any_bytes_give_run_config_or_config_error(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("config") / "run.cfg"
        path.write_bytes(blob)
        try:
            rc = load_run_config(path)
        except ConfigError:
            return
        assert isinstance(rc, RunConfig)
        assert all("\0" not in str(p) for p in (rc.dataset_root, rc.cache_dir, rc.output_dir))
        again = build_run_config(parse_kv_text(format_kv(rc.resolved())))
        assert again.resolved() == rc.resolved()

    @pytest.mark.parametrize("key, value", [
        ("train.learning_rate", "nan"), ("train.learning_rate", "inf"),
        ("augment.noise_fraction", "nan"), ("augment.noise_fraction", "inf"),
        ("model.branch_kernel_sizes", ""), ("model.branch_kernel_sizes", "3,3"),
        ("model.branch_kernel_sizes", "-1"), ("model.branch_kernel_sizes", "3,-3"),
        ("model.spatial_kernel", "-1")])
    def test_non_finite_or_out_of_range_values_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key.split(".")[1]):
            build_run_config({"dataset.root": "/data", key: value})

    @pytest.mark.parametrize("key", ["dataset.root", "cache.dir", "output.dir"])
    def test_nul_in_a_path_exits_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"dataset.root = {tmp_path}\n{key} = a\0b\n".encode())
        assert run_cli("preprocess", "--config", cfg) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: {key}: a path cannot hold a NUL character\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config({"dataset.root": "/x", "mistyped.key": "1"})

    # not configuration keys: Adam's constants, the stage count, an
    # augmentation switch (both augmentation strengths at 0 turn it off), and
    # the block count (one attention block per entry of model.pool_sizes)
    @pytest.mark.parametrize("key, value", [
        ("train.adam_beta1", "1"), ("train.adam_beta1", "0.9"),
        ("train.adam_beta2", "-0.1"), ("train.adam_beta2", "nan"),
        ("train.adam_eps", "0"), ("train.adam_eps", "nan"),
        ("model.num_classes", "4"), ("model.num_classes", "5"),
        ("augment.enabled", "false"), ("augment.enabled", "true"),
        ("model.attention_blocks", "3")])
    def test_removed_keys_exit_2_as_unknown(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset.root = {tmp_path}\n{key} = {value}\n")
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "out") == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"configuration error: unknown configuration keys: ['{key}']\n")
        assert not (tmp_path / "out").exists()

    def test_resolved_file_with_removed_keys_names_them(self, tmp_path, capsys):
        """A config.resolved that still lists the five removed keys is refused
        before the run starts, naming all five."""
        cfg = tmp_path / "config.resolved"
        cfg.write_text(format_kv(build_run_config({"dataset.root": str(tmp_path)}).resolved())
                       + "augment.enabled = true\nmodel.num_classes = 5\n"
                       "train.adam_beta1 = 0.9\ntrain.adam_beta2 = 0.999\n"
                       "train.adam_eps = 1e-08\n")
        assert run_cli("train", "--config", cfg) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: unknown configuration keys: ['augment.enabled', "
            "'model.num_classes', 'train.adam_beta1', 'train.adam_beta2', 'train.adam_eps']\n")

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
        for key, value in [("split.k", "0"), ("split.k", "1"), ("split.ratio", "1.5"),
                           ("split.ratio", "0"),
                           ("model.channel_attention_reduction", "0"), ("seed", "-1"),
                           ("train.max_passes", "0"),
                           ("model.input_length", "30"), ("model.pool_sizes", "2,-2,2")]:
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
        for extra in ({}, {"split.fold": "2"}):
            rc = build_run_config({"dataset.root": str(tmp_path), "seed": "3", **extra})
            assert rc.resolved().get("split.fold") == extra.get("split.fold")
            again = build_run_config(parse_kv_text(format_kv(rc.resolved())))
            assert again == rc

    def test_resolved_default_literal(self):
        rc = build_run_config({"dataset.root": "/data"})
        assert format_kv(rc.resolved()) == (
            "augment.flip_probability = 0.5\n"
            "augment.noise_fraction = 0.01\n"
            "cache.dir = /data/cache\n"
            "dataset.channel = EEG Fpz-Cz\n"
            "dataset.root = /data\n"
            "model.branch_channels = 32\n"
            "model.branch_kernel_sizes = 3,5,7\n"
            "model.channel_attention_reduction = 4\n"
            "model.input_length = 3000\n"
            "model.pool_sizes = 8,4,4\n"
            "model.spatial_kernel = 3\n"
            "output.dir = out\n"
            "seed = 0\n"
            "split.k = 5\n"
            "split.kind = kfold\n"
            "split.ratio = 0.8\n"
            "train.batch_size = 8\n"
            "train.checkpoint_every = 0\n"
            "train.learning_rate = 0.0005\n"
            "train.max_passes = 30\n"
        )


# a valid config file, and what an edit of it may put in: huge, negative and
# non-finite numbers, and in about one example in ten a pool list of 10**5
# entries, which costs ~30 ms to parse
VALID_CONFIG_LINES = format_kv(build_run_config({"dataset.root": "/data"}).resolved()).splitlines()
EDITED_VALUES = st.sampled_from([
    str(10**30), "9" * 5000, "1e308", "-1", "-1e30", "nan", "inf", "-inf", "1e400",
    ",".join([str(10**30)] * 3), "-8,4,4", "", "text"])
CONFIG_EDITS = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 99)),
    st.tuples(st.just("duplicate"), st.integers(0, 99), st.none() | EDITED_VALUES),
    st.tuples(st.just("unknown"), st.sampled_from(["model.attention_blocks", "mistyped.key",
                                                   "train.stop_fn", "model"]),
              EDITED_VALUES))
LONG_POOL_LISTS = st.integers(0, 9).flatmap(lambda n: st.none() if n != 1 else st.sampled_from(
    ["8" + ",0" * 99_999, "8" + ",1" * 99_999, "8,4" + ",4" * 99_998,
     str(10**30) + ",0" * 99_999]))


@settings(max_examples=200, deadline=None)
@given(st.lists(CONFIG_EDITS, max_size=4), LONG_POOL_LISTS, st.none() | st.tuples(
    st.integers(0, 2000), st.sampled_from([b"\xff", b"\x80", b"\xc3("])))
def test_any_edit_of_a_valid_config_fits_or_is_refused(tmp_path_factory, edits, pools,
                                                       bad_bytes):
    """A valid config file with lines dropped or duplicated (the copy given an
    edited value or none), unknown keys added, a 10**5-entry pool list set,
    or bytes that are not UTF-8 inserted: loading it gives a `RunConfig`
    that `train`'s memory check passes, or a `ConfigError`, and nothing
    else."""
    lines = list(VALID_CONFIG_LINES)
    for kind, *args in edits:
        if kind == "unknown":
            lines.append(f"{args[0]} = {args[1]}")
            continue
        i = args[0] % len(lines)
        if kind == "drop":
            del lines[i]
        else:
            key = lines[i].partition("=")[0].strip()
            lines.append(lines[i] if args[1] is None else f"{key} = {args[1]}")
        if not lines:
            break
    if pools is not None:
        lines.append(f"model.pool_sizes = {pools}")
    blob = "\n".join(lines).encode()
    if bad_bytes is not None:
        at, insert = bad_bytes
        blob = blob[:at] + insert + blob[at:]
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_bytes(blob)
    try:
        rc = load_run_config(path)
        cli._check_training_fits(rc.model)
    except ConfigError:
        return
    assert isinstance(rc, RunConfig)


# exit code and stderr prefix of every error class, as main() reports them
EXIT_TABLE = {
    "SleepStageError": (4, "runtime"),
    "NetworkFailure": (4, "network"),
    "ConfigError": (2, "configuration"),
    "DataError": (3, "data"),
    "TruncatedFile": (3, "data"),
    "ChecksumMismatch": (3, "data"),
    "EmptySplit": (3, "data"),
    "SingleClassPresent": (3, "data"),
}


def _backward_twice(tmp_path):
    x = Tensor(np.ones(2), requires_grad=True)
    loss = tensor_sum(ag.mul(x, x))
    loss.backward()
    loss.backward()


def _backward_of_a_vector(tmp_path):
    x = Tensor(np.zeros(3), requires_grad=True)
    ag.mul(x, x).backward()


def _training_on_nan_rows(tmp_path):
    epochs = sine_epochs(30, seed=12, length=64, rate=64 / 30.0)
    epochs.samples[:] = np.nan
    idx = np.arange(len(epochs))
    train(epochs, idx[:20], idx[20:], TrainConfig(max_passes=1, batch_size=4),
          micro_model_config())


def _checkpoint_of_another_channel(tmp_path):
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(init_params(micro_model_config(), seed=0), ckpt, EEG_CHANNEL, SplitConfig())
    load_checkpoint(ckpt, "EEG Pz-Oz")


def _one_signal_header():
    sig = eeg_signal_header(samples_per_record=4)
    return parse_edf(build_edf([(sig, np.zeros(4, dtype=np.int32))], record_count=1))[0]


def _digital_range_empty(tmp_path):
    sig = eeg_signal_header(samples_per_record=4)
    sig.digital_min, sig.digital_max = 5, 5
    parse_edf(build_edf([(sig, np.zeros(4, dtype=np.int32))], record_count=1))


def _recording_at(rate):
    return EegRecording(subject_id="s1", sample_rate=rate,
                        samples=np.zeros(int(round(90 * rate))))


# failure -> (raise it, exit code, stderr prefix, message): one failure of each
# kind the pipeline tells apart only by its message
FAILURES = {
    "conv1d-channels": (
        lambda tmp_path: ag.conv1d(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((1, 3, 3))),
                                   Tensor(np.zeros(1))),
        4, "runtime", "conv1d: 2 input channels vs kernel 3"),
    "soft-threshold-negative": (
        lambda tmp_path: ag.soft_threshold(Tensor(np.ones(3)),
                                           Tensor(np.array([-0.1, 0.0, 0.1]))),
        4, "runtime", "soft_threshold needs tau >= 0 elementwise"),
    "backward-of-a-vector": (
        _backward_of_a_vector, 4, "runtime", "backward() needs a scalar, got shape (3,)"),
    "backward-twice": (
        _backward_twice, 4, "runtime", "backward() already ran on this graph"),
    "adam-without-gradient": (
        lambda tmp_path: adam_step(p := {"x": Tensor(np.array([1.0]), requires_grad=True)},
                                   AdamState(p), TrainConfig()),
        4, "runtime", "parameter 'x' has no gradient"),
    "training-loss-nan": (
        _training_on_nan_rows, 4, "runtime",
        "training stopped at pass 1, step 1: loss nan, gradient norm nan"),
    "metrics-of-empty-matrix": (
        lambda tmp_path: stage_metrics(ConfusionMatrix(), StageLabel.W),
        4, "runtime", "empty confusion matrix"),
    "checkpoint-channel": (
        _checkpoint_of_another_channel, 2, "configuration",
        f"checkpoint was trained on channel {EEG_CHANNEL!r}, run asks for 'EEG Pz-Oz'"),
    "edf-digital-range": (
        _digital_range_empty, 3, "data", "signal 0: digital_min 5 >= digital_max 5"),
    "edf-signal-missing": (
        lambda tmp_path: find_signal(_one_signal_header(), "EEG Pz-Oz"),
        3, "data", f"channel 'EEG Pz-Oz' not in [{EEG_CHANNEL!r}]"),
    "calibration-range-empty": (
        lambda tmp_path: calibrate(np.array([7]),
                                   SignalHeader(label="x", digital_min=7, digital_max=7)),
        3, "data", "signal 'x': digital_min == digital_max"),
    "hypnogram-overlap": (
        lambda tmp_path: parse_hypnogram([(0.0, 60.0, "W"), (30.0, 30.0, "1")]),
        3, "data", "interval at 0.0s (duration 60.0s) overlaps onset 30.0s"),
    "stage-token-unknown": (
        lambda tmp_path: map_label("Sleep stage 9"),
        3, "data", "stage token 'Sleep stage 9'"),
    "epoch-length-fractional": (
        lambda tmp_path: epoch_recording(_recording_at(100.01), [(0.0, 90.0, "W")]),
        3, "data", "sample rate 100.01 Hz gives non-integer epoch length"),
    "signal-empty": (
        lambda tmp_path: compute_stats(np.array([])),
        3, "data", "cannot take percentiles of an empty signal"),
    "signal-constant": (
        lambda tmp_path: compute_stats(np.full(100, 3.25)),
        3, "data", "5th and 95th percentiles coincide at 3.25"),
    "proportions-short": (
        lambda tmp_path: class_weights(np.full(4, 0.25)),
        3, "data", "need a proportion for each of the 5 stages"),
    "kfold-too-few-epochs": (
        lambda tmp_path: kfold_split(3, k=5, seed=0),
        3, "data", "3 epochs cannot fill 5 folds"),
    "holdout-one-subject": (
        lambda tmp_path: holdout_split(["only"], seed=0),
        3, "data", "hold-out needs >= 2 subjects, got 1"),
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

    @pytest.mark.parametrize("name", sorted(FAILURES))
    def test_failure_exit_code_and_prefix(self, name, tmp_path, monkeypatch, capsys):
        """Each failure below ends, through main(), with its base's exit code
        and prefix and its own message."""
        fail, code, prefix, message = FAILURES[name]
        monkeypatch.setattr(cli, "cmd_plot", lambda args: fail(tmp_path))
        assert run_cli("plot") == code
        assert capsys.readouterr().err == f"{prefix} error: {message}\n"


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

    def test_outlier_past_float32_is_cached_as_inf_without_a_warning(self, tiny_corpus,
                                                                     tmp_path, monkeypatch):
        """A normalized sample past the float32 range is cached as inf, the
        bytes of the float64 formula rounded once, and preprocess exits 0
        with no warning. A 16-bit EDF channel cannot reach that range, so
        the outlier is put into the calibrated recording."""
        read = cli.read_recording

        def with_outlier(*args):
            rec = read(*args)
            rec.samples[7] = 1e300
            return rec
        monkeypatch.setattr(cli, "read_recording", with_outlier)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("preprocess", "--config", write_config(tmp_path, tiny_corpus)) == 0

        psg = (tiny_corpus / "subjA-PSG.edf").read_bytes()
        rec = with_outlier(psg, EEG_CHANNEL, "subjA")
        rec.samples = float64_normalize(rec.samples, compute_stats(rec.samples))
        expected = epoch_recording(rec, parse_hypnogram(
            (tiny_corpus / "subjA-Hypnogram.edf").read_bytes()))
        assert np.isposinf(expected.samples[0, 7])
        cache.save_epochs(expected, tmp_path / "expected.epochs")
        assert ((tiny_corpus / "cache" / "subjA__subjA.epochs").read_bytes()
                == (tmp_path / "expected.epochs").read_bytes())

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
        blob = bytearray(psg.read_bytes())
        blob[8] = ord("Y") if blob[8] != ord("Y") else ord("Z")  # patient id: same size
        psg.write_bytes(bytes(blob))
        epochs_file = corpus / "cache" / "subjA__subjA.epochs"
        before = epochs_file.stat().st_mtime_ns
        assert run_cli("preprocess", "--config", cfg) == 0
        assert epochs_file.stat().st_mtime_ns != before

    def test_byte_identical_copy_reuses_cache(self, preprocessed, tmp_path):
        """The fingerprint is size and content: copies with new mtimes keep the cache."""
        cfg, corpus = preprocessed
        copy = tmp_path / "copied"
        shutil.copytree(corpus, copy, copy_function=shutil.copyfile)  # fresh mtimes
        os.utime(copy / "subjA-PSG.edf", ns=(1, 1))
        before = {p.name: p.stat().st_mtime_ns for p in (copy / "cache").iterdir()}
        assert run_cli("preprocess", "--config", write_config(copy, copy)) == 0
        assert {p.name: p.stat().st_mtime_ns for p in (copy / "cache").iterdir()} == before

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

    @pytest.mark.parametrize("garbage", [b"not a key value line\n", b"\xff\xfe"],
                             ids=["line-without-equals", "not-utf8"])
    def test_corrupt_source_fingerprint_rebuilds_cache(self, preprocessed, garbage):
        cfg, corpus = preprocessed
        src = corpus / "cache" / "subjA__subjA.src"
        epochs_file = corpus / "cache" / "subjA__subjA.epochs"
        written = src.read_bytes()
        src.write_bytes(garbage + written)
        before = epochs_file.stat().st_mtime_ns
        assert run_cli("preprocess", "--config", cfg) == 0
        assert src.read_bytes() == written
        assert epochs_file.stat().st_mtime_ns != before

    def test_version1_cache_is_rebuilt(self, preprocessed):
        """A cache in the version-1 layout, beside the .src text written with
        it (which named no cache version), is rebuilt to the bytes a fresh
        preprocess writes, not taken as up to date."""
        cfg, corpus = preprocessed
        cache_dir = corpus / "cache"
        written = {p.name: p.read_bytes() for p in cache_dir.iterdir()}
        for name in ("subjA__subjA", "subjB__subjB"):
            src = written[f"{name}.src"]
            assert src.startswith(b"cache.version = 2\n")
            (cache_dir / f"{name}.src").write_bytes(src.removeprefix(b"cache.version = 2\n"))
            (cache_dir / f"{name}.epochs").write_bytes(
                version1_cache_bytes(written[f"{name}.epochs"]))
        assert run_cli("preprocess", "--config", cfg) == 0
        assert {p.name: p.read_bytes() for p in cache_dir.iterdir()} == written

    def test_failed_rebuild_removes_the_stale_cache(self, preprocessed, capsys):
        """A night whose source changed and no longer reads loses its cache
        files, so `train` loads exactly the epochs the table counts."""
        cfg, corpus = preprocessed
        psg = corpus / "subjA-PSG.edf"
        psg.write_bytes(psg.read_bytes()[:5000])
        capsys.readouterr()
        assert run_cli("preprocess", "--config", cfg) == 0
        out, err = capsys.readouterr()
        assert "error: subjA: " in err
        cache_dir = corpus / "cache"
        assert sorted(p.name for p in cache_dir.iterdir()) == [
            "subjB__subjB.epochs", "subjB__subjB.src", "subjB__subjB.stats"]
        assert f"total {len(cache.load_all(cache_dir)):8d}\n" in out

    def test_recording_that_left_the_corpus_loses_its_cache(self, tmp_path, capsys, caplog):
        """A night deleted from the corpus loses its three cache files, with
        one log line, so `train` loads exactly the epochs the table counts;
        a file of another kind in the cache directory stays."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, seed in (("kept", 1), ("gone", 2)):
            build_corpus_recording(corpus, name, [4, 3, 2, 1, 0], n_epochs=20,
                                   seed=seed, rate=10)
        cfg = write_config(tmp_path, corpus)
        assert run_cli("preprocess", "--config", cfg) == 0
        cache_dir = corpus / "cache"
        assert len(cache.load_all(cache_dir)) == 40
        (cache_dir / "notes.txt").write_text("kept\n")
        (corpus / "gone-PSG.edf").unlink()
        capsys.readouterr()
        with caplog.at_level(logging.INFO, logger="sleepstage"):
            assert run_cli("preprocess", "--config", cfg) == 0
        out = capsys.readouterr().out
        assert sorted(p.name for p in cache_dir.iterdir()) == [
            "kept__kept.epochs", "kept__kept.src", "kept__kept.stats", "notes.txt"]
        assert f"total {len(cache.load_all(cache_dir)):8d}\n" in out
        assert "total       20\n" in out
        assert [r.getMessage() for r in caplog.records if "gone" in r.getMessage()] == [
            "gone__gone: recording left the corpus, cache removed"]

    def test_damaged_cache_is_rebuilt(self, preprocessed, capsys, caplog):
        """An up-to-date .src beside an .epochs file that does not load is a
        warning and a rebuild, to the bytes a fresh preprocess writes."""
        cfg, corpus = preprocessed
        cache_dir = corpus / "cache"
        written = {p.name: p.read_bytes() for p in cache_dir.iterdir()}
        capsys.readouterr()
        assert run_cli("preprocess", "--config", cfg) == 0
        table = capsys.readouterr().out
        damaged = cache_dir / "subjA__subjA.epochs"
        damaged.write_bytes(written[damaged.name][:-100])
        assert run_cli("preprocess", "--config", cfg) == 0
        assert capsys.readouterr().out == table
        assert {p.name: p.read_bytes() for p in cache_dir.iterdir()} == written
        assert any(r.levelname == "WARNING" and str(damaged) in r.getMessage()
                   for r in caplog.records)

    def test_recordings_sharing_a_cache_name_are_refused(self, tmp_path, capsys):
        """One PSG file name in two directories would map to one cache file."""
        corpus = tmp_path / "corpus"
        for sub, n_epochs in (("a", 20), ("b", 10)):
            (corpus / sub).mkdir(parents=True)
            build_corpus_recording(corpus / sub, "SC4001", [4, 3, 2, 1, 0],
                                   n_epochs=n_epochs, seed=n_epochs, rate=10)
        assert run_cli("preprocess", "--config", write_config(tmp_path, corpus)) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert str(corpus / "a" / "SC4001-PSG.edf") in err
        assert str(corpus / "b" / "SC4001-PSG.edf") in err
        assert list(corpus.rglob("*.epochs")) + list(corpus.rglob("*.src")) == []

    def test_fresh_preprocess_reads_each_edf_once(self, tiny_corpus, tmp_path, monkeypatch):
        reads = collections.Counter()
        read_bytes = Path.read_bytes

        def counting(path):
            reads[path.name] += 1
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        assert run_cli("preprocess", "--config", write_config(tmp_path, tiny_corpus)) == 0
        assert {name: n for name, n in reads.items() if name.endswith(".edf")} == {
            "subjA-PSG.edf": 1, "subjA-Hypnogram.edf": 1, "subjB-PSG.edf": 1}

    @pytest.mark.parametrize("names, pairs", [
        (["SC4001E0-PSG.edf", "SC4001EC-Hypnogram.edf", "SC4002E0-PSG.edf",
          "SC4002EC-Hypnogram.edf", "SC4011E0-PSG.edf"],
         {"SC4001E0-PSG.edf": "SC4001EC-Hypnogram.edf",
          "SC4002E0-PSG.edf": "SC4002EC-Hypnogram.edf", "SC4011E0-PSG.edf": None}),
        (["subjA-PSG.edf", "subjA-Hypnogram.edf", "subjB-PSG.edf"],
         {"subjA-PSG.edf": "subjA-Hypnogram.edf", "subjB-PSG.edf": None}),
        (["night1-PSG.edf", "night2-PSG.edf", "night2-Hypnogram.edf"],
         {"night1-PSG.edf": None, "night2-PSG.edf": "night2-Hypnogram.edf"}),
        (["SC401-PSG.edf", "SC401-Hypnogram.edf", "SC402-PSG.edf"],
         {"SC401-PSG.edf": "SC401-Hypnogram.edf", "SC402-PSG.edf": None}),
        (["a/SC4001E0-PSG.edf", "b/SC4001EC-Hypnogram.edf"], {"a/SC4001E0-PSG.edf": None}),
    ], ids=["physionet", "tiny-corpus", "night1-night2", "SC401-SC402", "other-directory"])
    def test_discover_recordings_pairs_each_sidecar_once(self, tmp_path, names, pairs):
        for name in names:
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).touch()
        found = cli.discover_recordings(tmp_path)
        assert {psg.relative_to(tmp_path).as_posix(): hyp and hyp.relative_to(tmp_path).as_posix()
                for psg, hyp, _, _ in found} == pairs

    @pytest.mark.parametrize("stem", ["SC4001E0", "ST7011J0", "subjX", "night__1"])
    def test_cache_name_reads_back_the_discovered_subject(self, tmp_path, stem):
        (tmp_path / f"{stem}-PSG.edf").touch()
        [(_, _, subject, _)] = cli.discover_recordings(tmp_path)
        assert cache.subject_of(f"{subject}__{stem}") == subject

    def test_load_all_holds_the_discovered_subjects(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for stem in ("night__1", "night__2"):
            write_night(corpus, stem, [(0.0, 120.0, "W")], n_epochs=4, embedded=False)
        assert run_cli("preprocess", "--config", write_config(tmp_path, corpus)) == 0
        discovered = {subject for _, _, subject, _ in cli.discover_recordings(corpus)}
        assert set(cache.load_all(corpus / "cache").subjects.tolist()) == discovered

    def test_missing_channel_is_data_error(self, tiny_corpus, tmp_path):
        cfg = write_config(tmp_path, tiny_corpus)
        assert run_cli("preprocess", "--config", cfg, "--channel", "EEG Pz-Oz") == cli.EXIT_DATA

    @pytest.mark.parametrize("case", ["no-annotations", "nothing-scorable", "predict-too-short"])
    def test_unusable_night_is_data_error(self, tmp_path, capsys, case):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        if case == "no-annotations":
            build_corpus_recording(corpus, "n", [4, 3], n_epochs=4, seed=0, rate=10)
            (corpus / "n-Hypnogram.edf").unlink()
            argv, text = ["preprocess", "--config", write_config(tmp_path, corpus)], \
                "n: no stage annotations found"
        elif case == "nothing-scorable":
            write_night(corpus, "n", [(0.0, 60.0, "M"), (60.0, 60.0, "?")], n_epochs=4,
                        embedded=False)
            argv, text = ["preprocess", "--config", write_config(tmp_path, corpus)], \
                "n: no scorable 30-s epochs"
        else:
            sig = eeg_signal_header(samples_per_record=100)  # one 10-s record at 10 Hz
            (corpus / "n-PSG.edf").write_bytes(build_edf(
                [(sig, digitize(20.0 * np.random.default_rng(0).normal(size=100), sig))],
                record_count=1, record_duration=Fraction(10)))
            argv, text = ["predict", "--checkpoint", micro_checkpoint(tmp_path / "m.ckpt"),
                          "--edf", corpus / "n-PSG.edf", "--out", tmp_path / "pred"], \
                "n-PSG.edf: shorter than one 30-s epoch"
        assert run_cli(*argv) == cli.EXIT_DATA
        assert capsys.readouterr().err.endswith(f"data error: {text}\n")


class TestTrainEvalPredict:
    def test_holdout_pipeline(self, preprocessed, tmp_path, capsys):
        cfg, corpus = preprocessed
        out = tmp_path / "run1"
        assert run_cli("train", "--config", cfg, "--split", "holdout:0.5",
                       "--out", out) == 0
        assert (out / "holdout.ckpt").is_file()
        assert not (out / "holdout.ckpt.meta").exists()
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
        for name in ("roc.csv", "pr.csv", "auc.csv"):
            with open(eval_out / name, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows, name
            for row in rows:
                [float(cell) for cell in row[1:]]  # plain numbers, no numpy reprs

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

    @pytest.mark.parametrize("argv, extra, message", [
        (["--split", "kfold:1"], "", "split.k must be >= 2, got 1"),
        ([], "split.k = 1", "split.k must be >= 2, got 1"),
        (["--split", "holdout", "--fold", "3"], "", "split.fold applies to k-fold splits"),
    ], ids=["flag", "config", "holdout-fold"])
    def test_one_fold_split_exits_2_before_writing(self, preprocessed, tmp_path, capsys,
                                                   argv, extra, message):
        """k = 1 leaves no epoch to train on, and hold-out has no fold to
        pick; both are refused at config load, before the output directory
        is made."""
        _, corpus = preprocessed
        out = tmp_path / "one_fold_split"
        assert run_cli("train", "--config", write_config(tmp_path, corpus, extra),
                       "--out", out, *argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_oversized_spatial_kernel_exits_2_before_writing(self, preprocessed, tmp_path,
                                                              capsys):
        _, corpus = preprocessed
        out = tmp_path / "wide_gate"
        cfg = write_config(tmp_path, corpus, "model.spatial_kernel = 99999")
        assert run_cli("train", "--config", cfg, "--out", out) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: spatial_kernel 99999 exceeds 3: its outer taps would read "
            "only the padding of the narrowest map an attention gate convolves, 2 wide "
            "(input_length 300)\n")
        assert not out.exists()

    @staticmethod
    def run_capped(*argv) -> subprocess.CompletedProcess:
        """`main(argv)` in a child whose address space is capped at 8 GiB,
        well above a normal run's, so that an allocation bomb fails at once."""
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (8 << 30, 8 << 30))\n"
                "from sleepstage.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
        return subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=300)

    def test_oversized_manifest_exits_3_before_allocating(self, preprocessed, tmp_path):
        """A checkpoint whose manifest names a far bigger model than its
        arrays is refused by its shape check, before the model it names is
        allocated: `eval` and `predict` end with exit 3 and one stderr line
        naming the file and its first mismatched entry. The unedited
        checkpoint evaluates under the same cap."""
        cfg, corpus = preprocessed
        ckpt, big = tmp_path / "m.ckpt", tmp_path / "big.ckpt"
        save_checkpoint(init_params(ModelConfig(branch_channels=2, input_length=300,
                                                pool_sizes=(8, 4, 4)), seed=0),
                        ckpt, EEG_CHANNEL, SplitConfig(kind="holdout", ratio=0.5))
        manifest, arrays = load_arrays(ckpt)
        save_arrays(arrays, format_kv(_edited(parse_kv_text(manifest),
                                              {"model.branch_channels": "100000"})), big)
        assert self.run_capped("eval", "--config", cfg, "--checkpoint", ckpt,
                               "--out", tmp_path / "ok").returncode == 0
        for argv in (["eval", "--config", cfg], ["predict", "--edf", corpus / "subjA-PSG.edf"]):
            done = self.run_capped(*argv, "--checkpoint", big, "--out", tmp_path / "big")
            assert (done.returncode, done.stderr) == (cli.EXIT_DATA, (
                f"data error: {big}: checkpoint entry 'branch3.conv1.weight' has shape "
                f"(2, 1, 3), config expects (100000, 1, 3)\n"))

    def test_oversized_model_exits_2_before_writing(self, preprocessed, tmp_path):
        """`train` refuses a model whose training state, 52 bytes a value,
        exceeds MemAvailable, before `config.resolved` or `split.json` is
        written."""
        _, corpus = preprocessed
        out = tmp_path / "big"
        done = self.run_capped("train", "--config", write_config(
            tmp_path, corpus, "model.branch_channels = 100000"), "--out", out)
        assert done.returncode == cli.EXIT_CONFIG, done.stderr
        # the sum stops at branch3.conv2.weight, 3e10 values
        assert re.fullmatch(r"configuration error: the model's training state needs at least "
                            r"1560031200000 bytes, more than the \d+ bytes of "
                            r"MemAvailable\n", done.stderr)
        assert not out.exists()

    def test_long_model_is_summed_lazily(self):
        """`train`'s memory check walks the shape table lazily, so a config of
        10,000 default attention blocks, whose 36.6 GB of training state it
        refuses with exit 2 wherever MemAvailable is smaller, costs it no
        memory that grows with the config's length. The config is built
        outside the trace."""
        cfg = ModelConfig(pool_sizes=(8,) + (0,) * 9_999)
        tracemalloc.start()
        try:
            cli._check_training_fits(cfg)
        except ConfigError as exc:
            assert str(exc).startswith("the model's training state needs at least ")
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_memory_check_stops_at_the_first_total_past_mem_available(self, monkeypatch):
        """With MemAvailable at 1 MiB, the check of a config of 10,000
        default attention blocks stops at the first entry whose running total
        passes it, block0.conv1.weight, and names that total as a lower
        bound, instead of walking the config to its end."""
        read_text = Path.read_text
        monkeypatch.setattr(Path, "read_text", lambda self, *args, **kwargs: (
            "MemAvailable:    1024 kB\n" if self == Path("/proc/meminfo")
            else read_text(self, *args, **kwargs)))
        seen = []

        def counted(cfg):
            for entry in state_shapes(cfg):
                seen.append(entry)
                yield entry

        monkeypatch.setattr(cli, "state_shapes", counted)
        with pytest.raises(ConfigError, match=r"^the model's training state needs at least "
                                              r"(\d+) bytes, more than the 1048576 bytes of "
                                              r"MemAvailable$") as info:
            cli._check_training_fits(ModelConfig(pool_sizes=(8,) + (0,) * 9_999))
        assert seen[-1][0] == "block0.conv1.weight"
        need = 52 * sum(math.prod(shape) for _, shape in seen)
        assert info.match(f"needs at least {need} bytes")

    def test_out_of_memory_is_one_line_exit_4(self, preprocessed, tmp_path, capsys,
                                              monkeypatch):
        """A `MemoryError` that escapes a command ends with exit 4 and one
        stderr line, not a traceback."""
        cfg, _ = preprocessed
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_params(ModelConfig(branch_channels=2, input_length=300,
                                                pool_sizes=(8, 4, 4)), seed=0),
                        ckpt, EEG_CHANNEL, SplitConfig(kind="holdout", ratio=0.5))

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 224. GiB")

        monkeypatch.setattr(evaluation, "evaluate", exhausted)
        assert run_cli("eval", "--config", cfg, "--checkpoint", ckpt,
                       "--out", tmp_path / "eval") == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "runtime error: out of memory: Unable to allocate 224. GiB\n"
        assert "Traceback" not in err

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

    # the split as the checkpoint manifest and metrics.json record it, byte for byte
    @pytest.mark.parametrize("split, argv, stem, meta_lines, metrics_split", [
        ("kfold:3", ["--fold", 1], "fold1",
         "split.fold = 1\nsplit.k = 3\nsplit.kind = kfold\nsplit.seed = 11\n",
         '  "split": {\n    "folds": [\n      1\n    ],\n    "k": 3,\n'
         '    "kind": "kfold",\n    "seed": 11\n  }'),
        ("holdout:0.5", [], "holdout",
         "split.kind = holdout\nsplit.ratio = 0.5\nsplit.seed = 11\n",
         '  "split": {\n    "kind": "holdout",\n    "ratio": 0.5,\n    "seed": 11\n  }'),
    ], ids=["kfold", "holdout"])
    def test_split_records_literal(self, preprocessed, tmp_path, split, argv, stem,
                                   meta_lines, metrics_split):
        cfg, corpus = preprocessed
        out = tmp_path / "train"
        assert run_cli("train", "--config", cfg, "--split", split, *argv, "--out", out) == 0
        manifest = load_arrays(out / f"{stem}.ckpt")[0].splitlines(keepends=True)
        assert "".join(line for line in manifest if line.startswith("split.")) == meta_lines
        assert metrics_split in (out / "metrics.json").read_text()

    @pytest.mark.parametrize("case, command", CORRUPT_CHECKPOINT_RUNS)
    def test_incomplete_checkpoint_manifest_is_data_error(self, preprocessed, tmp_path,
                                                          capsys, case, command):
        manifest_edits, rewrite, named = CORRUPT_CHECKPOINTS[case]
        cfg, corpus = preprocessed
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--split", "kfold:3", "--fold", 1,
                       "--out", out) == 0
        ckpt = out / "fold1.ckpt"
        manifest, arrays = load_arrays(ckpt)
        save_arrays(arrays, format_kv(_edited(parse_kv_text(manifest), manifest_edits)), ckpt)
        if rewrite is not None:
            rewrite(ckpt)
        capsys.readouterr()
        if command == "eval":
            code = run_cli("eval", "--config", cfg, "--checkpoint", ckpt,
                           "--out", tmp_path / "eval")
        else:
            code = run_cli("predict", "--checkpoint", ckpt, "--edf", corpus / "subjA-PSG.edf",
                           "--out", tmp_path / "pred")
        if command == "predict" and case.startswith("split."):
            assert code == 0  # predict reads no split field
            return
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert named in err
        assert "fold1.ckpt" in err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_checkpoint_with_num_classes_key_gives_the_same_bytes(self, preprocessed, tmp_path,
                                                                  command):
        """A checkpoint whose manifest holds `model.num_classes = 5`, as each
        one written before that key was dropped does, evaluates and predicts
        to the same bytes: the extra manifest key is ignored."""
        cfg, corpus = preprocessed
        out = tmp_path / "run"
        assert run_cli("train", "--config", cfg, "--split", "kfold:3", "--fold", 1,
                       "--out", out) == 0
        new = out / "fold1.ckpt"
        old = tmp_path / "old.ckpt"
        manifest, arrays = load_arrays(new)
        save_arrays(arrays, format_kv({**parse_kv_text(manifest), "model.num_classes": "5"}), old)
        assert "model.input_length = 300\nmodel.num_classes = 5\n" in load_arrays(old)[0]
        written = []
        for ckpt in (new, old):
            run_out = tmp_path / ckpt.stem
            if command == "eval":
                assert run_cli("eval", "--config", cfg, "--checkpoint", ckpt,
                               "--out", run_out) == 0
                written.append((run_out / "metrics.json").read_bytes())
            else:
                assert run_cli("predict", "--checkpoint", ckpt, "--edf",
                               corpus / "subjA-PSG.edf", "--out", run_out) == 0
                written.append((run_out / "predictions.csv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_version1_checkpoint_is_data_error(self, preprocessed, tmp_path, capsys, command):
        """The two-file layout's container (version 1) has no second reader."""
        cfg, corpus = preprocessed
        model_cfg = ModelConfig(branch_channels=2, input_length=300, pool_sizes=(8, 4, 4))
        arrays = init_params(model_cfg, seed=0).state_arrays()
        blob = b"NPC1" + struct.pack("<II", 1, len(arrays))
        for name, arr in arrays.items():
            blob += struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", arr.ndim)
            blob += struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.astype("<f8").tobytes()
        ckpt = tmp_path / "old.ckpt"
        ckpt.write_bytes(blob)
        if command == "eval":
            code = run_cli("eval", "--config", cfg, "--checkpoint", ckpt,
                           "--out", tmp_path / "eval")
        else:
            code = run_cli("predict", "--checkpoint", ckpt, "--edf", corpus / "subjA-PSG.edf",
                           "--out", tmp_path / "pred")
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err.endswith(
            f"data error: {ckpt}: unsupported container version 1\n")

    def test_eval_channel_mismatch_is_config_error(self, preprocessed, tmp_path):
        cfg, corpus = preprocessed
        out = tmp_path / "run2"
        assert run_cli("train", "--config", cfg, "--split", "holdout:0.5",
                       "--out", out) == 0
        code = run_cli("eval", "--config", cfg, "--checkpoint", out / "holdout.ckpt",
                       "--channel", "EEG Pz-Oz", "--out", tmp_path / "eval2")
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("flag", [["--split", "holdout:0.5"], ["--fold", "0"]],
                             ids=["split", "fold"])
    def test_eval_split_flags_are_usage_errors(self, preprocessed, tmp_path, capsys, flag):
        """eval runs the split its checkpoint holds, so it takes no split flag."""
        cfg, corpus = preprocessed
        with pytest.raises(SystemExit) as exc:
            run_cli("eval", "--config", cfg, "--checkpoint", tmp_path / "any.ckpt",
                    "--out", tmp_path / "eval", *flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_eval_resolved_config_records_checkpoint_split(self, preprocessed, tmp_path):
        cfg, corpus = preprocessed
        out = tmp_path / "train"
        assert run_cli("train", "--config", cfg, "--split", "kfold:3", "--fold", 1,
                       "--out", out) == 0
        # the same run configuration, but with a split that differs from the checkpoint's
        eval_cfg = write_config(tmp_path, corpus,
                                "split.kind = holdout\nsplit.ratio = 0.5")
        eval_out = tmp_path / "eval"
        assert run_cli("eval", "--config", eval_cfg, "--checkpoint", out / "fold1.ckpt",
                       "--out", eval_out) == 0
        resolved = parse_kv_text((eval_out / "config.resolved").read_text())
        manifest = parse_kv_text(load_arrays(out / "fold1.ckpt")[0])
        keys = ("split.kind", "split.k", "split.fold")
        assert {k: resolved[k] for k in keys} == {k: manifest[k] for k in keys} \
            == {"split.kind": "kfold", "split.k": "3", "split.fold": "1"}
        assert json.loads((eval_out / "split.json").read_text()) == \
            json.loads((out / "split.json").read_text())

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
        save_checkpoint(init_params(cfg, seed=0), tmp_path / "m.ckpt", EEG_CHANNEL, SplitConfig())
        assert run_cli("predict", "--checkpoint", tmp_path / "m.ckpt",
                       "--edf", tmp_path / "n-PSG.edf",
                       "--hypnogram", tmp_path / "n-Hypnogram.edf",
                       "--out", tmp_path / "pred") == 0
        assert "over 6 scored epochs" in capsys.readouterr().out
        rows = (tmp_path / "pred" / "predictions.csv").read_text().splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["W", "N2", "N2", "R", "R", "R"]

    @pytest.mark.parametrize("embedded", [False, True], ids=["sidecar", "embedded"])
    def test_predict_reference_is_the_cached_labels(self, tmp_path, embedded):
        """predict and preprocess read one night the same way: the reference
        column at each scored window holds the label preprocess cached."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        # window 2 is movement, 5 and 6 are partly or wholly unscored, 9 has no interval
        write_night(corpus, "n", [(0.0, 60.0, "W"), (60.0, 30.0, "M"), (90.0, 75.0, "2"),
                                  (165.0, 45.0, "?"), (210.0, 60.0, "R")],
                    n_epochs=10, embedded=embedded)
        assert run_cli("preprocess", "--config", write_config(tmp_path, corpus)) == 0
        cached = cache.load_epochs(corpus / "cache" / "n__n.epochs", "n")
        argv = ["predict", "--checkpoint", micro_checkpoint(tmp_path / "m.ckpt"),
                "--edf", corpus / "n-PSG.edf", "--out", tmp_path / "pred"]
        if not embedded:
            argv += ["--hypnogram", corpus / "n-Hypnogram.edf"]
        assert run_cli(*argv) == 0
        with open(tmp_path / "pred" / "predictions.csv", newline="") as fh:
            scored = [(int(r["epoch_index"]), r["reference"])
                      for r in csv.DictReader(fh) if r["reference"]]
        assert [i for i, _ in scored] == [0, 1, 3, 4, 7, 8]
        assert [ref for _, ref in scored] == [StageLabel(c).name for c in cached.labels]

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

    @pytest.mark.parametrize("option, text", [
        ("--metrics", "{not json"),
        ("--metrics", '{"schema_version": 1}'),
        ("--metrics", '{"confusion_matrix": {"rows_true_cols_pred": [[1, 0], [0, 1]]}}'),
        ("--metrics", '{"confusion_matrix": {"rows_true_cols_pred": "many"}}'),
        ("--metrics", metrics_with_cell("1.5")),
        ("--metrics", metrics_with_cell("true")),
        ("--metrics", metrics_with_cell("1e30")),
        ("--metrics", "[" * 100_000 + "]" * 100_000),
        ("--predictions", "epoch_index,onset_seconds,predicted,reference\n0,0,X,\n"),
        ("--predictions", "epoch_index,onset_seconds,reference\n0,0,W\n"),
        ("--predictions", "epoch_index,onset_seconds,predicted,reference\n1.5,45,W,\n"),
        ("--predictions", "epoch_index,onset_seconds,predicted,reference\n"),
        ("--predictions", "epoch_index,onset_seconds,predicted,reference\n-5,0,W,\n-3,0,N2,\n"),
    ], ids=["metrics-not-json", "metrics-no-matrix", "metrics-2x2", "metrics-not-counts",
            "metrics-count-1.5", "metrics-count-true", "metrics-count-1e30",
            "metrics-nested-100000-deep",
            "predictions-stage-X", "predictions-no-predicted-column",
            "predictions-non-integer-index", "predictions-no-rows",
            "predictions-negative-index"])
    def test_plot_malformed_input_is_data_error(self, tmp_path, capsys, option, text):
        bad = tmp_path / "bad_input"
        bad.write_text(text)
        assert run_cli("plot", option, bad, "--out", tmp_path / "plots") == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(bad) in err

    def test_plot_reads_utf8_under_an_ascii_locale(self, tmp_path):
        """Both plot inputs are decoded as UTF-8, as they are written, whatever
        the locale's encoding."""
        pred, metrics = tmp_path / "predictions.csv", tmp_path / "metrics.json"
        pred.write_text("epoch_index,onset_seconds,predicted,reference,note\n0,0,W,W,ключ\n",
                        encoding="utf-8")
        metrics.write_text(f'{metrics_with_cell("1")[:-1]}, "channel": "EEG Fpz–Cz"}}',
                           encoding="utf-8")
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
               "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
        done = subprocess.run([sys.executable, "-m", "sleepstage.cli", "plot",
                               "--predictions", pred, "--metrics", metrics,
                               "--out", tmp_path / "plots"],
                              env=env, capture_output=True, text=True, encoding="utf-8")
        assert (done.returncode, done.stderr) == (0, "")
        assert {p.name for p in (tmp_path / "plots").iterdir()} == {"confusion.svg",
                                                                    "hypnogram.svg"}

    def test_plot_without_inputs_is_config_error(self, tmp_path):
        assert run_cli("plot", "--out", tmp_path) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_version1_cache_says_to_rerun_preprocess(self, preprocessed, tmp_path, capsys,
                                                     command):
        cfg, corpus = preprocessed
        path = corpus / "cache" / "subjB__subjB.epochs"
        path.write_bytes(version1_cache_bytes(path.read_bytes()))
        ckpt = tmp_path / "m.ckpt"
        model_cfg = ModelConfig(branch_channels=2, input_length=300)
        save_checkpoint(init_params(model_cfg, seed=0), ckpt, EEG_CHANNEL, SplitConfig(fold=0))
        argv = ["--checkpoint", ckpt] if command == "eval" else []
        capsys.readouterr()
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "out",
                       *argv) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {path}: unsupported cache version 1 (this program reads "
            "version 2); re-run `sleepstage preprocess`\n")

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

    def test_one_file_per_checkpoint(self, preprocessed, tmp_path):
        cfg, corpus = preprocessed
        cfg2 = tmp_path / "periodic.cfg"
        cfg2.write_text(cfg.read_text() + "train.checkpoint_every = 1\ntrain.max_passes = 2\n")
        out = tmp_path / "periodic"
        assert run_cli("train", "--config", cfg2, "--split", "kfold:3", "--out", out) == 0
        checkpoints = {f"fold{i}{p}.ckpt" for i in range(3) for p in ("", "_pass1", "_pass2")}
        logs = {f"fold{i}_train_log.csv" for i in range(3)}
        assert {p.name for p in out.iterdir()} == checkpoints | logs | {
            "config.resolved", "metrics.json", "split.json"}
        for name in checkpoints:
            assert parse_kv_text(load_arrays(out / name)[0])["dataset.channel"] == EEG_CHANNEL


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


def _ignore_range(do_get):
    def handler(self):
        del self.headers["Range"]
        do_get(self)
    return handler


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
    server.server_close()
    thread.join()


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


# JSON values shaped like manifests: lists and objects keyed mostly by manifest keys
MANIFEST_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["url", "path", "size", "sha256", "x"]), inner, max_size=5),
    max_leaves=12)


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

    def test_ignored_range_starts_over(self, http_root, tmp_path, monkeypatch):
        served, base = http_root
        monkeypatch.setattr(_RangeHandler, "do_GET", _ignore_range(_RangeHandler.do_GET))
        manifest = make_manifest(served, base, tmp_path, ["a.edf"])
        root = tmp_path / "data"
        root.mkdir()
        full = (served / "a.edf").read_bytes()
        (root / "a.edf.part").write_bytes(full[:1000])
        assert fetch.fetch_entry(fetch.load_manifest(manifest)[0], root, retries=1) is True
        assert (root / "a.edf").read_bytes() == full

    def test_local_write_error_is_data_error(self, http_root, tmp_path, capsys):
        served, base = http_root
        manifest = make_manifest(served, base, tmp_path, ["a.edf"])
        root = tmp_path / "data"
        (root / "a.edf.part").mkdir(parents=True)  # the download cannot be written
        assert run_cli("fetch", "--manifest", manifest, "--dataset-root", root,
                       "--retries", 1) == cli.EXIT_DATA
        assert "a.edf.part" in capsys.readouterr().err

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

    @pytest.mark.parametrize("blob", [
        b"\xff\xfe[]",
        b"{not json",
        b'{"url": "x"}',
        b'["x"]',
        b'[{"url": "x"}]',
        b'[{"url": "x", "path": "a", "size": "10", "sha256": "0"}]',
        b'[{"url": "x", "path": "a", "size": -1, "sha256": "0"}]',
        b'[{"url": "x", "path": "../outside.bin", "size": 1, "sha256": "0"}]',
        b'[{"url": "x", "path": "a/../../outside.bin", "size": 1, "sha256": "0"}]',
        b'[{"url": "x", "path": "/outside.bin", "size": 1, "sha256": "0"}]',
        b'[{"url": "x", "path": "", "size": 1, "sha256": "0"}]',
        b'[{"url": "x", "path": ".", "size": 1, "sha256": "0"}]',
        b'[{"url": "x", "path": "a\\u0000b", "size": 1, "sha256": "0"}]',
    ], ids=["not-utf8", "not-json", "not-a-list", "not-objects", "missing-key",
            "size-as-text", "negative-size", "path-parent", "path-inner-parent",
            "path-absolute", "path-empty", "path-root-itself", "path-nul"])
    def test_malformed_manifest_is_data_error(self, tmp_path, capsys, blob):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(blob)
        assert run_cli("fetch", "--manifest", manifest,
                       "--dataset-root", tmp_path / "data") == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: manifest ") and str(manifest) in err
        assert not (tmp_path / "data").exists() and not (tmp_path / "outside.bin").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--retries", 0), ("--retries", -1), ("--backoff", -1), ("--backoff", "nan"),
        ("--backoff", "inf")])
    def test_bad_retry_flags_are_config_errors(self, tmp_path, capsys, flag, value):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{
            "url": (tmp_path / "a.edf").as_uri(), "path": "a.edf",
            "size": 10, "sha256": "0" * 64,
        }]))
        assert run_cli("fetch", "--manifest", manifest, "--dataset-root", tmp_path / "data",
                       flag, value) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"configuration error: {flag} must be")
        assert not (tmp_path / "data").exists()  # rejected before any download began

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64) | MANIFEST_JSON.map(lambda v: json.dumps(v).encode()))
    def test_any_bytes_load_or_are_data_error(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("manifest") / "m.json"
        path.write_bytes(blob)
        try:
            entries = fetch.load_manifest(path)
        except DataError:
            return
        root = path.parent / "root"
        for e in entries:
            assert isinstance(e.url, str) and isinstance(e.path, str)
            assert isinstance(e.sha256, str) and isinstance(e.size, int) and e.size >= 0
            dest = Path(os.path.normpath(root / e.path))
            assert dest != root and dest.is_relative_to(root)
