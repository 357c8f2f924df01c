"""Architecture contracts: shapes, attention properties, init, parameter count."""
import math
import tracemalloc

import numpy as np
import pytest

from sleepstage import autograd as ag
from sleepstage.autograd import Tensor
from sleepstage.checkpoint import load_arrays, load_checkpoint, save_arrays, save_checkpoint
from sleepstage.edf import N_STAGES
from sleepstage.errors import DataError, SleepStageError
from sleepstage.evaluation import SplitConfig
from sleepstage.model import (
    ModelConfig,
    ModelParams,
    attention_block,
    branch_forward,
    channel_attention,
    inference_params,
    init_params,
    layers,
    model_forward,
    multiscale_forward,
    pipeline_widths,
    spatial_attention,
    state_shapes,
    state_sizes,
)

from helpers import (
    batch_norms,
    micro_model_config,
    parameter_count,
    randomize_batch_norms,
    reference_max_pool1d,
    reference_multiscale_forward,
    tensor_sum,
)

RNG = np.random.default_rng(5)


def micro_params(seed=0, **overrides):
    cfg = micro_model_config(**overrides)
    return cfg, init_params(cfg, seed=seed)


class TestConfig:
    def test_attention_channels_follow_branches(self):
        cfg = ModelConfig()
        assert cfg.attention_channels == 96
        assert cfg.attention_channels == cfg.branch_channels * len(cfg.branch_kernel_sizes)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(spatial_kernel=4)
        with pytest.raises(ValueError):
            ModelConfig(branch_kernel_sizes=(3, 4, 7))
        with pytest.raises(ValueError, match="pool_sizes must hold at least one size"):
            ModelConfig(pool_sizes=())

    @pytest.mark.parametrize("overrides", [
        dict(input_length=30),                                 # 30 -> 8 -> 3 < 4
        dict(pool_sizes=(2, 2, 40), input_length=64),          # 64 -> 32 -> 16 < 40
        dict(pool_sizes=(-1, 2, 2), input_length=64),
        dict(pool_sizes=(65, 0, 0), input_length=64)])
    def test_pool_sizes_must_fit_widths(self, overrides):
        with pytest.raises(ValueError, match="pool"):
            ModelConfig(**overrides)

    def test_pool_sizes_that_fit_are_kept(self):
        # a width-1 map leaves room for a 1-tap spatial gate only
        for overrides in (dict(pool_sizes=(0, 0, 0), input_length=1, spatial_kernel=1),
                          dict(pool_sizes=(64, 0, 1), input_length=64, spatial_kernel=1),
                          dict(pool_sizes=(8, 4, 4), input_length=300)):
            ModelConfig(**overrides)

    @pytest.mark.parametrize("overrides, narrowest", [
        (dict(), 23),                                          # 3000 -> 375 -> 93 -> 23
        (dict(pool_sizes=(8, 4, 4), input_length=300), 2),     # 300 -> 37 -> 9 -> 2
        (dict(pool_sizes=(64, 0, 1), input_length=64), 1)])
    def test_spatial_kernel_must_reach_the_narrowest_gate_map(self, overrides, narrowest):
        """A same-padded gate tap more than w - 1 from the centre reads only
        padding on a map w wide, so 2w - 1 taps is the widest kernel kept."""
        ModelConfig(**overrides, spatial_kernel=2 * narrowest - 1)
        for k in (2 * narrowest + 1, 99_999):
            with pytest.raises(ValueError, match=f"^spatial_kernel {k} exceeds "
                                                 f"{2 * narrowest - 1}: .* {narrowest} wide"):
                ModelConfig(**overrides, spatial_kernel=k)

    def test_round_trip_dict(self, tmp_path):
        cfg = micro_model_config(branch_kernel_sizes=(1, 9), spatial_kernel=5)
        save_checkpoint(init_params(cfg, seed=0), tmp_path / "m.ckpt", "EEG", SplitConfig())
        assert load_checkpoint(tmp_path / "m.ckpt", None).params.cfg == cfg

    def test_pipeline_widths_default(self):
        assert pipeline_widths(ModelConfig()) == [3000, 375, 93, 23, 23, 1]


class TestBranch:
    def test_output_shape(self):
        cfg, mp = micro_params()
        out = branch_forward(mp, Tensor(RNG.normal(size=(2, 1, 64))), 3, training=True)
        assert out.shape == (2, cfg.branch_channels, 64)

    def test_zero_input_zero_output_eval(self):
        cfg, mp = micro_params()
        out = branch_forward(mp, Tensor(np.zeros((1, 1, 64))), 5, training=False)
        np.testing.assert_allclose(out.data, 0.0)

    def test_gradient_reaches_projection(self):
        cfg, mp = micro_params()
        x = Tensor(RNG.normal(size=(2, 1, 64)))
        out = branch_forward(mp, x, 3, training=True)
        for p in mp.parameters().values():
            p.zero_grad()
        tensor_sum(ag.mul(out, out)).backward()
        assert np.any(mp["branch3.proj.weight"].grad != 0)
        assert np.any(mp["branch3.conv2.weight"].grad != 0)


class TestMultiscale:
    def test_concat_and_pool_shapes(self):
        cfg, mp = micro_params()
        out = multiscale_forward(mp, Tensor(RNG.normal(size=(2, 1, 64))), training=True)
        assert out.shape == (2, cfg.attention_channels, 32)

    def test_branch_order_permutes_channel_blocks(self):
        cfg, mp = micro_params()
        x = Tensor(RNG.normal(size=(1, 1, 64)))
        outs = {k: branch_forward(mp, x, k, training=False).data
                for k in cfg.branch_kernel_sizes}
        fused = ag.concat([Tensor(outs[k]) for k in cfg.branch_kernel_sizes])
        c = cfg.branch_channels
        for i, k in enumerate(cfg.branch_kernel_sizes):
            np.testing.assert_allclose(fused.data[:, i * c:(i + 1) * c], outs[k])


    @pytest.mark.parametrize("training", [False, True])
    def test_pooling_each_branch_equals_pooling_the_concat(self, training):
        _, mp = micro_params(seed=2)
        x = RNG.normal(size=(2, 1, 64))
        out = multiscale_forward(mp, Tensor(x), training=training).data
        expect = reference_multiscale_forward(mp, Tensor(x), training=training).data
        assert out.tobytes() == expect.tobytes()


class TestInferenceParams:
    """The eval-only copy with every batch norm folded into the layer before it."""

    def test_folded_conv_equals_conv_then_eval_batch_norm(self):
        _, mp = micro_params(seed=3)
        mp = randomize_batch_norms(mp, RNG)
        folded = inference_params(mp, dtype=np.float64)
        convs = [bn for bn in batch_norms(mp) if not bn.endswith(".ca.bn")]
        assert len(convs) == 2 * (len(mp.cfg.branch_kernel_sizes) + mp.cfg.attention_blocks)
        for bn in convs:
            conv = bn.replace(".bn", ".conv")
            c_in, k = mp[f"{conv}.weight"].shape[1:]
            x = Tensor(RNG.normal(size=(3, c_in, 64)))
            h = ag.conv1d(x, mp[f"{conv}.weight"], None, padding=k // 2)
            expect = ag.batch_norm1d(h, mp[f"{bn}.gamma"], mp[f"{bn}.beta"],
                                     mp[f"{bn}.running_mean"], mp[f"{bn}.running_var"],
                                     training=False).data
            out = ag.conv1d(x, folded[f"{conv}.weight"], folded[f"{conv}.bias"],
                            padding=k // 2).data
            np.testing.assert_allclose(out, expect, rtol=0, atol=1e-12, err_msg=bn)

    def test_folded_linear_equals_linear_then_eval_batch_norm(self):
        _, mp = micro_params(seed=3)
        mp = randomize_batch_norms(mp, RNG)
        folded = inference_params(mp, dtype=np.float64)
        for i in range(mp.cfg.attention_blocks):
            fc, bn = f"block{i}.ca.fc1", f"block{i}.ca.bn"
            x = Tensor(RNG.normal(size=(3, mp.cfg.attention_channels)))
            h = ag.linear(x, mp[f"{fc}.weight"], None)
            expect = ag.batch_norm1d(h, mp[f"{bn}.gamma"], mp[f"{bn}.beta"],
                                     mp[f"{bn}.running_mean"], mp[f"{bn}.running_var"],
                                     training=False).data
            out = ag.linear(x, folded[f"{fc}.weight"], folded[f"{fc}.bias"]).data
            np.testing.assert_allclose(out, expect, rtol=0, atol=1e-12, err_msg=bn)

    def test_folded_model_equals_model_in_float64(self):
        _, mp = micro_params(seed=3)
        mp = randomize_batch_norms(mp, RNG)
        x = RNG.normal(size=(4, 1, 64))
        expect = model_forward(mp, Tensor(x)).data
        out = model_forward(inference_params(mp, dtype=np.float64), Tensor(x)).data
        np.testing.assert_allclose(out, expect, rtol=0, atol=1e-12)

    def test_folds_every_conv_batch_norm_pair(self):
        """... and every linear -> batch-norm pair, so the copy holds no
        running stats and no gamma or beta, and each layer it folded into
        gains the bias that the model leaves out ahead of a batch norm."""
        _, mp = micro_params()
        folded = inference_params(mp)
        assert batch_norms(folded) == []
        assert set(folded.tensors) == {name for name in mp.parameters()
                                       if not name.endswith((".gamma", ".beta"))} | {
            f"{layer}.bias" for layer, _, bn in layers(mp.cfg) if bn is not None}
        for name, p in folded.tensors.items():
            assert p.data.dtype == np.float32 and not p.requires_grad, name


class TestChannelAttention:
    def test_zero_input_zero_output(self):
        cfg, mp = micro_params()
        out = channel_attention(mp, 0, Tensor(np.zeros((2, 12, 16))), training=False)
        np.testing.assert_allclose(out.data, 0.0)

    def test_contraction(self):
        cfg, mp = micro_params()
        # bias the gate away from zero so thresholds actually bite
        mp["block0.ca.fc2.bias"].data[:] = 1.0
        x = RNG.normal(size=(2, 12, 16)) * 3
        out = channel_attention(mp, 0, Tensor(x), training=True)
        assert np.all(np.abs(out.data) <= np.abs(x) + 1e-12)
        assert np.any(out.data == 0.0)  # some activations got shrunk to zero

    def test_threshold_scales_with_channel_energy(self):
        cfg, mp = micro_params()
        x = np.zeros((1, 12, 16))
        x[0, 0, :] = 100.0  # one loud channel
        x[0, 1, :] = 0.001
        out = channel_attention(mp, 0, Tensor(x), training=False)
        assert out.shape == (1, 12, 16)

    def test_wrong_channel_count(self):
        cfg, mp = micro_params()
        with pytest.raises(SleepStageError, match=r"^linear: x \(1, 5\) vs weight \(12, 3\)$"):
            channel_attention(mp, 0, Tensor(np.zeros((1, 5, 16))), training=False)


class TestSpatialAttention:
    def test_zero_gate_weights_give_half(self):
        cfg, mp = micro_params()
        x = RNG.normal(size=(2, 12, 16))
        mp["block0.sa.gate.weight"].data[:] = 0.0
        mp["block0.sa.gate.bias"].data[:] = 0.0
        mixed = ag.conv1d(Tensor(x), mp["block0.sa.mix.weight"],
                          mp["block0.sa.mix.bias"]).data
        out = spatial_attention(mp, 0, Tensor(x))
        np.testing.assert_allclose(out.data, 0.5 * mixed)

    def test_gate_strictly_inside_unit_interval(self):
        cfg, mp = micro_params()
        x = Tensor(RNG.normal(size=(2, 12, 16)) * 10)
        pooled = ag.channel_pool(x)
        beta = ag.sigmoid(ag.conv1d(pooled, mp["block0.sa.gate.weight"],
                                    mp["block0.sa.gate.bias"], padding=1))
        assert np.all(beta.data > 0.0)
        assert np.all(beta.data < 1.0)

    def test_gate_matches_loop_oracle(self):
        cfg, mp = micro_params(seed=3)
        x = RNG.normal(size=(2, 12, 9))
        w = mp["block0.sa.gate.weight"].data
        b = mp["block0.sa.gate.bias"].data
        padded_mean = np.pad(x.mean(axis=1), ((0, 0), (1, 1)))
        padded_max = np.pad(x.max(axis=1), ((0, 0), (1, 1)))
        expect = np.empty((2, 9))
        for bi in range(2):
            for t in range(9):
                acc = b[0]
                for k in range(3):
                    acc += w[0, 0, k] * padded_mean[bi, t + k]
                    acc += w[0, 1, k] * padded_max[bi, t + k]
                expect[bi, t] = 1.0 / (1.0 + np.exp(-acc))
        pooled = ag.channel_pool(Tensor(x))
        beta = ag.sigmoid(ag.conv1d(pooled, mp["block0.sa.gate.weight"],
                                    mp["block0.sa.gate.bias"], padding=1))
        np.testing.assert_allclose(beta.data[:, 0, :], expect, atol=1e-12)

    def test_output_bounded_by_mixed(self):
        cfg, mp = micro_params()
        x = Tensor(RNG.normal(size=(2, 12, 16)))
        mixed = ag.conv1d(x, mp["block0.sa.mix.weight"], mp["block0.sa.mix.bias"]).data
        out = spatial_attention(mp, 0, x)
        assert np.all(np.abs(out.data) <= np.abs(mixed) + 1e-12)


class TestAttentionBlock:
    def test_shape_preserved(self):
        cfg, mp = micro_params()
        out = attention_block(mp, 1, Tensor(RNG.normal(size=(2, 12, 16))), training=True)
        assert out.shape == (2, 12, 16)

    def test_zero_input_zero_output_eval(self):
        cfg, mp = micro_params()
        out = attention_block(mp, 0, Tensor(np.zeros((1, 12, 16))), training=False)
        np.testing.assert_allclose(out.data, 0.0)

    def test_identity_path_carries_gradient_when_attention_zeroed(self):
        cfg, mp = micro_params()
        for name, p in mp.parameters().items():
            if name.startswith("block0."):
                p.data[:] = 0.0
        x = Tensor(RNG.normal(size=(2, 12, 16)), requires_grad=True)
        out = attention_block(mp, 0, x, training=False)
        tensor_sum(ag.mul(out, out)).backward()
        assert x.grad is not None
        assert np.any(x.grad != 0)

    def test_wrong_channel_count(self):
        cfg, mp = micro_params()
        with pytest.raises(SleepStageError, match=r"^conv1d: 5 input channels vs kernel 12$"):
            attention_block(mp, 0, Tensor(np.zeros((1, 5, 16))), training=False)


class TestModelForward:
    def test_micro_shapes_and_batches(self):
        cfg, mp = micro_params()
        for batch in (1, 3):
            out = model_forward(mp, Tensor(RNG.normal(size=(batch, 1, 64))))
            assert out.shape == (batch, 5)

    def test_eval_deterministic(self):
        cfg, mp = micro_params()
        x = RNG.normal(size=(2, 1, 64))
        out1 = model_forward(mp, Tensor(x), training=False).data
        out2 = model_forward(mp, Tensor(x), training=False).data
        np.testing.assert_array_equal(out1, out2)

    def test_batch_permutation_equivariance(self):
        cfg, mp = micro_params()
        x = RNG.normal(size=(4, 1, 64))
        perm = np.array([2, 0, 3, 1])
        out = model_forward(mp, Tensor(x), training=False).data
        out_perm = model_forward(mp, Tensor(x[perm]), training=False).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)

    def test_rejects_wrong_width(self):
        cfg, mp = micro_params()
        with pytest.raises(SleepStageError, match="^model_forward expects width 64, got 65$"):
            model_forward(mp, Tensor(RNG.normal(size=(1, 1, 65))))

    def test_rejects_multi_channel_input(self):
        cfg, mp = micro_params()
        with pytest.raises(SleepStageError,
                           match=r"^model_forward expects \[B,1,W\], got \(1, 2, 64\)$"):
            model_forward(mp, Tensor(RNG.normal(size=(1, 2, 64))))


class TestInit:
    def test_same_seed_identical(self):
        cfg = micro_model_config()
        a, b = init_params(cfg, seed=9), init_params(cfg, seed=9)
        for name in a.parameters():
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_different_seed_differs(self):
        cfg = micro_model_config()
        a, b = init_params(cfg, seed=1), init_params(cfg, seed=2)
        assert any(np.any(a[name].data != b[name].data)
                   for name in a.parameters() if name.endswith(".weight"))

    def test_biases_zero_gammas_one(self):
        _, mp = micro_params()
        for name, p in mp.parameters().items():
            if name.endswith(".bias") or name.endswith(".beta"):
                np.testing.assert_array_equal(p.data, 0.0)
            if name.endswith(".gamma"):
                np.testing.assert_array_equal(p.data, 1.0)

    def test_weight_std_matches_scheme(self):
        # uniform(-a, a) has std a/sqrt(3); check a big kernel empirically
        cfg = ModelConfig(branch_channels=32)
        mp = init_params(cfg, seed=0)
        w = mp["block0.conv1.weight"].data  # 96*96*3 = 27648 values
        fan_in, fan_out = 96 * 3, 96 * 3
        expect = np.sqrt(6.0 / (fan_in + fan_out)) / np.sqrt(3.0)
        assert abs(w.std() - expect) / expect < 0.2


class TestParameterCount:
    @staticmethod
    def count_by_shape_walk(cfg: ModelConfig) -> int:
        c, r = cfg.attention_channels, cfg.channel_attention_reduction
        cr = max(1, c // r)
        bc = cfg.branch_channels
        total = 0
        for k in cfg.branch_kernel_sizes:
            total += bc * 1 * k               # conv1, no bias ahead of bn1
            total += 2 * bc                   # bn1
            total += bc * bc * k              # conv2, no bias ahead of bn2
            total += 2 * bc                   # bn2
            total += bc * 1 * 1 + bc          # 1x1 projection
        per_block = (c * c * 3) * 2           # two convs, no bias ahead of their bns
        per_block += 2 * c * 2                # two bns
        per_block += c * cr                   # ca fc1, no bias ahead of its bn
        per_block += 2 * cr                   # ca bn
        per_block += cr * c + c               # ca fc2
        per_block += 1 * 2 * cfg.spatial_kernel + 1   # spatial gate conv
        per_block += c * c * 1 + c            # pointwise mix
        total += cfg.attention_blocks * per_block
        total += c * N_STAGES + N_STAGES  # head
        return total

    def test_matches_shape_walking_oracle(self):
        for cfg in (ModelConfig(), micro_model_config(),
                    ModelConfig(branch_channels=8, pool_sizes=(8, 4), input_length=960)):
            assert parameter_count(cfg) == self.count_by_shape_walk(cfg)

    def test_default_config_pinned(self):
        assert parameter_count(ModelConfig()) == 226154

    def test_pure_function_of_config(self):
        assert parameter_count(micro_model_config()) == parameter_count(micro_model_config())

    @pytest.mark.parametrize("cfg", [ModelConfig(), ModelConfig(pool_sizes=(8,) + (0,) * 99)],
                             ids=["default", "100-blocks"])
    def test_state_sizes_sum_to_the_state_shapes_total(self, cfg):
        """`state_sizes` counts, layer by layer, exactly the values of the
        `state_shapes` entries: the running stats too."""
        assert sum(state_sizes(cfg)) == sum(math.prod(shape) for _, shape in state_shapes(cfg))


class TestCheckpointState:
    def test_state_round_trip(self, tmp_path):
        cfg, mp = micro_params(seed=4)
        # make running stats non-trivial before saving
        model_forward(mp, Tensor(RNG.normal(size=(2, 1, 64))), training=True)
        path = tmp_path / "model.ckpt"
        save_arrays(mp.state_arrays(), "", path)
        back = ModelParams.from_state(cfg, load_arrays(path)[1])
        for name in mp.tensors:
            np.testing.assert_array_equal(back[name].data, mp[name].data)
        x = RNG.normal(size=(2, 1, 64))
        np.testing.assert_array_equal(model_forward(back, Tensor(x)).data,
                                      model_forward(mp, Tensor(x)).data)

    def test_oversized_config_is_refused_before_allocating(self):
        """Arrays of a 2-channel model against a config of 100,000 branch
        channels, as a checkpoint whose manifest was edited gives them: the
        first mismatched entry is named, and nothing of the ~17 TB of float64
        that the config names is allocated."""
        small = ModelConfig(branch_channels=2, input_length=300, pool_sizes=(8, 4, 4))
        arrays = init_params(small, seed=0).state_arrays()
        big = ModelConfig(branch_channels=100000, input_length=300, pool_sizes=(8, 4, 4))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=r"^checkpoint entry 'branch3\.conv1\.weight' "
                                                r"has shape \(2, 1, 3\), config expects "
                                                r"\(100000, 1, 3\)$"):
                ModelParams.from_state(big, arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_long_config_stops_at_its_first_missing_layer(self):
        """Arrays of a 3-block model against a config of 100,000 attention
        blocks, as a checkpoint whose manifest was edited gives them: the
        check reads the shape table lazily and stops at block 3's first
        entry, so nothing that grows with the config's length is built."""
        small = ModelConfig(branch_channels=2, input_length=300, pool_sizes=(8, 4, 4))
        arrays = init_params(small, seed=0).state_arrays()
        long = ModelConfig(branch_channels=2, input_length=300, pool_sizes=(8,) + (0,) * 99_999)
        tracemalloc.start()
        try:
            with pytest.raises(DataError,
                               match=r"^checkpoint lacks entry 'block3\.conv1\.weight'$"):
                ModelParams.from_state(long, arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
