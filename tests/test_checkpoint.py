"""The checkpoint container and file: round trips, pinned bytes, and every
malformed container refused as a truncated file."""
import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sleepstage.checkpoint import load_arrays, load_checkpoint, save_arrays, save_checkpoint
from sleepstage.config import format_kv, parse_kv_text
from sleepstage.errors import ConfigError, DataError, TruncatedFile
from sleepstage.evaluation import SplitConfig, predict_probabilities
from sleepstage.model import ModelConfig, init_params, state_shapes

from helpers import EEG_CHANNEL

RNG = np.random.default_rng(20240917)


class _Unwritable:
    """An array-like entry whose payload cannot be read, so a save fails mid-file."""
    ndim, shape = 1, (2,)

    def __array__(self, dtype=None, copy=None):
        raise OSError("device full")


MANIFEST = "dataset.channel = EEG Fpz-Cz\nmodel.branch_kernel_sizes = 3,5,7\nnote = ключ\n"


class TestCheckpointContainer:
    def test_bit_exact_round_trip(self, tmp_path):
        arrays = {
            "a.weight": RNG.normal(size=(3, 2, 5)),
            "a.bias": RNG.normal(size=3),
            "nested.name.with.dots": np.array(3.14159),
            "unicode-ключ": RNG.normal(size=(2, 2)),
        }
        path = tmp_path / "params.ckpt"
        save_arrays(arrays, MANIFEST, path)
        manifest, loaded = load_arrays(path)
        assert manifest == MANIFEST
        assert set(loaded) == set(arrays)
        for name, arr in arrays.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.astype("<f8").tobytes()

    def test_double_round_trip_identical_bytes(self, tmp_path):
        arrays = {"x": RNG.normal(size=(4, 4))}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_arrays(arrays, MANIFEST, p1)
        manifest, loaded = load_arrays(p1)
        save_arrays(loaded, manifest, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(TruncatedFile):
            load_arrays(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "v3.ckpt"
        save_arrays({"x": np.zeros(2)}, "", path)
        blob = bytearray(path.read_bytes())
        blob[4] = 3
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedFile, match="version 3"):
            load_arrays(path)

    @pytest.mark.parametrize("fail_at", ["mid-file", "os.replace"])
    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch, fail_at):
        path = tmp_path / "m.ckpt"
        save_arrays({"x": np.zeros(2)}, MANIFEST, path)
        before = path.read_bytes()
        arrays = {"x": np.ones(2), "y": _Unwritable() if fail_at == "mid-file" else np.ones(2)}
        if fail_at == "os.replace":
            def refuse(src, dst):
                raise OSError("rename refused")
            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            save_arrays(arrays, "changed = 1\n", path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_every_truncation_is_truncated_file(self, tmp_path):
        full = tmp_path / "full.ckpt"
        save_arrays({"a.weight": RNG.normal(size=(2, 3)), "b": np.array(1.5)}, MANIFEST,
                       full)
        blob = full.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(TruncatedFile):
                load_arrays(cut)

    def test_empty_shape_past_numpy_sizes_is_truncated_file(self, tmp_path):
        """Shape (0, 2**62) holds no values, so the payload check passes it,
        but numpy cannot form such an array."""
        path = tmp_path / "m.ckpt"
        save_arrays({"w": np.zeros((0, 3))}, "", path)
        blob = path.read_bytes()
        dims = (0).to_bytes(8, "little") + (3).to_bytes(8, "little")
        assert blob.count(dims) == 1
        path.write_bytes(blob.replace(dims, (0).to_bytes(8, "little") + (2**62).to_bytes(8, "little")))
        with pytest.raises(TruncatedFile, match=r"entry 0 has shape \(0, 4611686018427387904\)"):
            load_arrays(path)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_byte_mutation_loads_or_is_truncated_file(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
        save_arrays({"w": np.arange(6.0).reshape(2, 3), "bias": np.ones(2)}, "k = v\n", path)
        blob = bytearray(path.read_bytes())
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        path.write_bytes(bytes(blob))
        try:
            manifest, loaded = load_arrays(path)
        except TruncatedFile:
            return
        assert isinstance(manifest, str)
        assert all(isinstance(v, np.ndarray) for v in loaded.values())

    def test_repeated_name_is_truncated_file(self, tmp_path):
        """Two entries under one name are refused, whatever order they come
        in, so a valid later copy cannot hide a bad earlier one."""
        path = tmp_path / "m.ckpt"
        save_arrays({"w1": np.full(2, np.nan), "w2": np.ones(2)}, MANIFEST, path)
        blob = path.read_bytes()
        assert blob.count(b"w1") == blob.count(b"w2") == 1
        path.write_bytes(blob.replace(b"w1", b"w2"))
        with pytest.raises(TruncatedFile, match="entry 1 repeats the name 'w2'"):
            load_arrays(path)


class TestCheckpointFile:
    def test_bytes_are_pinned(self, tmp_path):
        """The bytes of one small checkpoint: a change to them is a change of
        the checkpoint format, manifest included."""
        path = tmp_path / "m.ckpt"
        cfg = ModelConfig(branch_channels=2, input_length=300, pool_sizes=(8, 4, 4))
        save_checkpoint(init_params(cfg, seed=0), path, EEG_CHANNEL, SplitConfig(k=3, fold=1))
        blob = path.read_bytes()
        assert len(blob) == 14683
        assert hashlib.sha256(blob).hexdigest() == \
            "da55b36d4613287509a04dbf64eb15f553d87917b4ff58be733e6a571a60c1c7"

    def test_a_manifest_that_counts_the_blocks_still_loads(self, pinned_blob, tmp_path):
        """Checkpoints once also recorded the block count, `model.attention_blocks
        = 3`, which is the length of `model.pool_sizes`. The pinned checkpoint
        with that line is byte for byte such a file; it loads as the same
        model and predicts the same probabilities."""
        new, old = tmp_path / "new.ckpt", tmp_path / "old.ckpt"
        new.write_bytes(pinned_blob)
        manifest, arrays = load_arrays(new)
        save_arrays(arrays, format_kv({**parse_kv_text(manifest),
                                       "model.attention_blocks": "3"}), old)
        assert hashlib.sha256(old.read_bytes()).hexdigest() == \
            "f4521156401ea3fb52ae471edf6d6fc7be7b47cd0bfb9b372baf5b0e05ab659d"
        loaded = [load_checkpoint(path, EEG_CHANNEL).params for path in (new, old)]
        assert loaded[0].cfg == loaded[1].cfg
        rows = np.random.default_rng(0).normal(size=(8, 300)).astype(np.float32)
        assert predict_probabilities(loaded[1], rows).tobytes() == \
            predict_probabilities(loaded[0], rows).tobytes()


@pytest.fixture(scope="module")
def pinned_blob(tmp_path_factory) -> bytes:
    """The bytes of `test_bytes_are_pinned`'s 2-channel checkpoint."""
    path = tmp_path_factory.mktemp("pinned") / "m.ckpt"
    cfg = ModelConfig(branch_channels=2, input_length=300, pool_sizes=(8, 4, 4))
    save_checkpoint(init_params(cfg, seed=0), path, EEG_CHANNEL, SplitConfig(k=3, fold=1))
    return path.read_bytes()


def _scaled(manifest: str, key: str, factor: int) -> str:
    """`manifest` with each integer of `key`'s value multiplied by `factor`."""
    values = parse_kv_text(manifest)
    values[key] = ",".join(str(int(v) * factor) for v in values[key].split(","))
    return format_kv(values)


def _lengthened(manifest: str, factor: int) -> str:
    """`manifest` with `factor` times the attention blocks, one per pool
    size, each new block pooling nothing, so that the config it names is
    valid."""
    values = parse_kv_text(manifest)
    blocks = len(values["model.pool_sizes"].split(","))
    values["model.pool_sizes"] += ",0" * (blocks * (factor - 1))
    return format_kv(values)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_edit_of_the_pinned_checkpoint_loads_whole_or_is_refused(pinned_blob,
                                                                      tmp_path_factory, data):
    """A one-byte mutation of the pinned checkpoint, or a manifest whose model
    sizes are scaled by 10**5 or whose attention blocks by 10**4: each load
    returns a model holding every `state_shapes` entry of its config, or
    raises `DataError` or `ConfigError`, never another exception."""
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    edit = data.draw(st.sampled_from(["byte", "scaled", "long"]))
    if edit == "byte":
        blob = bytearray(pinned_blob)
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        path.write_bytes(bytes(blob))
    else:
        path.write_bytes(pinned_blob)
        manifest, arrays = load_arrays(path)
        if edit == "scaled":
            keys = sorted(k for k in parse_kv_text(manifest) if k.startswith("model."))
            manifest = _scaled(manifest, data.draw(st.sampled_from(keys)), 10**5)
        else:
            manifest = _lengthened(manifest, 10**4)
        save_arrays(arrays, manifest, path)
    try:
        ckpt = load_checkpoint(path, None)
    except (DataError, ConfigError):
        return
    assert [(name, a.shape) for name, a in ckpt.params.state_arrays().items()] == \
        list(state_shapes(ckpt.params.cfg))
