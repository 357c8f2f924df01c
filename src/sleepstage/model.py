"""Multi-scale dual-attention 1-D network for 30-s single-channel epochs.

Pipeline: three parallel conv branches (kernel sizes 3/5/7, each two convs
with batch norm and a projected residual), channel concat, then a stack of
residual attention blocks. Each block runs two same-width convs, a
channel-attention stage that soft-thresholds activations with a learned,
signal-scaled threshold, a spatial gate in (0,1), and an identity skip.
Global average pooling and one fully connected layer produce the 5 logits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .edf import N_STAGES
from .errors import DataError, SleepStageError


@dataclass(frozen=True)
class ModelConfig:
    branch_kernel_sizes: tuple[int, ...] = (3, 5, 7)
    branch_channels: int = 32
    channel_attention_reduction: int = 4
    spatial_kernel: int = 3
    # one attention block per pool size: pool_sizes[0] follows the branch
    # concat and pool_sizes[i] precedes block i; nothing pools after the last
    pool_sizes: tuple[int, ...] = (8, 4, 4)
    input_length: int = 3000

    @property
    def attention_blocks(self) -> int:
        return len(self.pool_sizes)

    @property
    def attention_channels(self) -> int:
        return self.branch_channels * len(self.branch_kernel_sizes)

    @property
    def reduced_channels(self) -> int:
        return max(1, self.attention_channels // self.channel_attention_reduction)

    def __post_init__(self):
        sizes = self.branch_kernel_sizes
        if not sizes or min(sizes) < 1 or len(set(sizes)) != len(sizes):
            raise ValueError(f"branch_kernel_sizes must be one or more distinct sizes >= 1, "
                             f"got {sizes}")
        if self.spatial_kernel < 1:
            raise ValueError(f"spatial_kernel must be >= 1, got {self.spatial_kernel}")
        if any(k % 2 == 0 for k in sizes):
            raise ValueError("branch kernel sizes must be odd (same-padding)")
        if self.spatial_kernel % 2 == 0:
            raise ValueError("spatial_kernel must be odd")
        if not self.pool_sizes:
            raise ValueError("pool_sizes must hold at least one size, one per attention block")
        if self.branch_channels < 1:
            raise ValueError("branch_channels must be >= 1")
        if self.channel_attention_reduction < 1:
            raise ValueError("channel_attention_reduction must be >= 1")
        if any(p < 0 for p in self.pool_sizes):
            raise ValueError(f"pool sizes must be >= 0, got {self.pool_sizes}")
        widths = pipeline_widths(self)
        for i, (p, width) in enumerate(zip(self.pool_sizes, widths)):
            if p > width:
                raise ValueError(f"pool_sizes[{i}] = {p} does not fit the width {width} "
                                 f"it pools (input_length {self.input_length})")
        # block i's spatial gate convolves a map of width widths[1 + i]; on a
        # map of width w, a same-padded tap more than w - 1 from the centre
        # reads only padding
        narrowest = min(widths[1:1 + self.attention_blocks])
        if self.spatial_kernel > 2 * narrowest - 1:
            raise ValueError(f"spatial_kernel {self.spatial_kernel} exceeds {2 * narrowest - 1}: "
                             f"its outer taps would read only the padding of the "
                             f"narrowest map an attention gate convolves, {narrowest} "
                             f"wide (input_length {self.input_length})")


@dataclass
class ModelParams:
    """A model's whole state by name, in `state_shapes` order: each learnable
    array as a tensor that requires grad, and each batch norm's running mean
    and variance as a plain tensor."""

    cfg: ModelConfig
    tensors: dict[str, Tensor] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def parameters(self) -> dict[str, Tensor]:
        """The learnable tensors by name."""
        return {name: t for name, t in self.tensors.items() if t.requires_grad}

    def copy(self) -> "ModelParams":
        return ModelParams.from_state(self.cfg, self.state_arrays())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.tensors.items()}

    @classmethod
    def from_state(cls, cfg: ModelConfig, arrays: dict[str, np.ndarray]) -> "ModelParams":
        """Inverse of `state_arrays`: a model holding float64 copies of
        `arrays`, which must hold every entry of `state_shapes(cfg)` with its
        shape. Every entry is checked before anything is allocated, and the
        check stops at the first one that is missing or misshapen."""
        for name, shape in state_shapes(cfg):
            if name not in arrays:
                raise DataError(f"checkpoint lacks entry {name!r}")
            if arrays[name].shape != shape:
                raise DataError(f"checkpoint entry {name!r} has shape {arrays[name].shape}, "
                                f"config expects {shape}")
        return cls(cfg, {name: Tensor(np.array(arrays[name], dtype=np.float64),
                                      requires_grad=".running_" not in name)
                         for name, _ in state_shapes(cfg)})


def layers(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...], str | None]]:
    """(name, weight shape, the batch norm that follows it or None) of every
    layer, in `state_arrays` order: the one place a layer's shape is written.
    A conv weight is [C_out, C_in, K], a linear one [F_in, F_out]."""
    c, bc, rc = cfg.attention_channels, cfg.branch_channels, cfg.reduced_channels
    for k in cfg.branch_kernel_sizes:
        b = f"branch{k}"
        yield f"{b}.conv1", (bc, 1, k), f"{b}.bn1"
        yield f"{b}.conv2", (bc, bc, k), f"{b}.bn2"
        yield f"{b}.proj", (bc, 1, 1), None
    for i in range(cfg.attention_blocks):
        b = f"block{i}"
        yield f"{b}.conv1", (c, c, 3), f"{b}.bn1"
        yield f"{b}.conv2", (c, c, 3), f"{b}.bn2"
        yield f"{b}.ca.fc1", (c, rc), f"{b}.ca.bn"
        yield f"{b}.ca.fc2", (rc, c), None
        yield f"{b}.sa.gate", (1, 2, cfg.spatial_kernel), None
        yield f"{b}.sa.mix", (c, c, 1), None
    yield "head.fc", (c, N_STAGES), None


def _width(shape: tuple[int, ...]) -> tuple[int]:
    """The shape of a layer's bias and batch-norm arrays: its output channels."""
    return (shape[0] if len(shape) == 3 else shape[1],)


def state_shapes(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every array `state_arrays` returns, in its order: each
    layer's weight, bias, batch-norm gamma and beta, then the running stats.
    Built lazily, so a reader that stops early never walks a long model."""
    for name, shape, bn in layers(cfg):
        yield f"{name}.weight", shape
        yield f"{name}.bias", _width(shape)
        if bn is not None:
            yield f"{bn}.gamma", _width(shape)
            yield f"{bn}.beta", _width(shape)
    for _, shape, bn in layers(cfg):
        if bn is not None:
            yield f"{bn}.running_mean", _width(shape)
            yield f"{bn}.running_var", _width(shape)


def state_sizes(cfg: ModelConfig) -> Iterator[int]:
    """The number of values each layer holds among the `state_shapes`
    entries, layer by layer in `layers` order: its weight and bias, and with
    a batch norm that norm's gamma, beta and running stats. Lazy, and names
    nothing, so summing a long model costs no string per entry."""
    for _, shape, bn in layers(cfg):
        yield math.prod(shape) + (1 if bn is None else 5) * _width(shape)[0]


def init_params(cfg: ModelConfig, seed: int) -> ModelParams:
    """Glorot-uniform conv/FC weights, zero biases, unit-gamma batch norms."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    arrays = {}
    for name, shape in state_shapes(cfg):
        if name.endswith(".weight"):
            # fan_in + fan_out: (C_in + C_out) * K of a conv, F_in + F_out of a linear
            limit = np.sqrt(6.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
            arrays[name] = rng.uniform(-limit, limit, size=shape)
        else:
            arrays[name] = np.full(shape, float(name.endswith((".gamma", ".running_var"))))
    return ModelParams.from_state(cfg, arrays)


def inference_params(mp: ModelParams, dtype=np.float32) -> ModelParams:
    """An eval-only copy of `mp` in `dtype` that shares no array with it.

    Every batch norm is folded into the layer that `layers` lists it after:
    a conv such as `{stage}.convN`, or the linear layer `block{i}.ca.fc1`
    (Jacob et al. 2018, arXiv:1712.05877, section 3.2). With s = gamma /
    sqrt(running_var + eps) per output channel, that layer's weight becomes
    w * s and its bias (b - running_mean) * s + beta. The fold runs in
    float64; the result is then cast to `dtype`. The copy holds no batch norm
    and no running stats, so the forward skips each one, and it holds plain
    tensors, so no op on it records a backward graph.
    """
    arrays = mp.state_arrays()
    for layer, bn in [(name, bn) for name, _, bn in layers(mp.cfg) if bn]:
        w = arrays[f"{layer}.weight"]
        scale = arrays.pop(f"{bn}.gamma") / np.sqrt(arrays.pop(f"{bn}.running_var") + ag.BN_EPS)
        # a conv weight is [C_out, C_in, K], a linear one [F_in, F_out]
        arrays[f"{layer}.weight"] = w * (scale[:, None, None] if w.ndim == 3 else scale)
        arrays[f"{layer}.bias"] = ((arrays[f"{layer}.bias"] - arrays.pop(f"{bn}.running_mean"))
                                   * scale + arrays.pop(f"{bn}.beta"))
    return ModelParams(mp.cfg, {name: Tensor(a.astype(dtype)) for name, a in arrays.items()})


def _bn(mp: ModelParams, name: str, x: Tensor, training: bool) -> Tensor:
    if f"{name}.gamma" not in mp.tensors:  # folded by `inference_params`
        return x
    return ag.batch_norm1d(x, mp[f"{name}.gamma"], mp[f"{name}.beta"],
                           mp[f"{name}.running_mean"], mp[f"{name}.running_var"], training)


def _conv(mp: ModelParams, name: str, x: Tensor, padding: int = 0) -> Tensor:
    return ag.conv1d(x, mp[f"{name}.weight"], mp[f"{name}.bias"], padding=padding)


def branch_forward(mp: ModelParams, x: Tensor, k: int, training: bool) -> Tensor:
    """conv-BN-ReLU-conv-BN with a 1x1-projected residual, width preserved."""
    pad = (k - 1) // 2
    h = _conv(mp, f"branch{k}.conv1", x, padding=pad)
    h = ag.relu(_bn(mp, f"branch{k}.bn1", h, training))
    h = _conv(mp, f"branch{k}.conv2", h, padding=pad)
    h = _bn(mp, f"branch{k}.bn2", h, training)
    res = _conv(mp, f"branch{k}.proj", x)
    return ag.relu(ag.add(h, res))


def multiscale_forward(mp: ModelParams, x: Tensor, training: bool) -> Tensor:
    """Each branch, max-pooled by pool_sizes[0], then concatenated by channel
    (pooling per channel, it gives the same values as pooling the concat).
    A branch is pooled as soon as it returns, so outside a recorded graph
    only one full-width branch output is alive at a time."""
    p = mp.cfg.pool_sizes[0]

    def pooled(b: Tensor) -> Tensor:
        return ag.max_pool1d(b, p) if p else b

    return ag.concat([pooled(branch_forward(mp, x, k, training))
                      for k in mp.cfg.branch_kernel_sizes])


def channel_attention(mp: ModelParams, block: int, x: Tensor,
                      training: bool) -> Tensor:
    """Soft-threshold x per channel with tau = gate(x) * mean|x|.

    The gate is a sigmoid in (0,1) learned from the channel energy profile,
    so tau stays signal-scaled and the output never exceeds the input in
    magnitude.
    """
    name = f"block{block}.ca"
    energy = ag.global_avg_pool(ag.absolute(x))  # [B,C] mean absolute activation
    h = ag.linear(energy, mp[f"{name}.fc1.weight"], mp[f"{name}.fc1.bias"])
    h = ag.relu(_bn(mp, f"{name}.bn", h, training))
    gate = ag.sigmoid(ag.linear(h, mp[f"{name}.fc2.weight"], mp[f"{name}.fc2.bias"]))
    tau = ag.reshape(ag.mul(gate, energy), (x.shape[0], x.shape[1], 1))
    return ag.soft_threshold(x, tau)


def spatial_attention(mp: ModelParams, block: int, x: Tensor) -> Tensor:
    """Gate each time position by a sigmoid of convolved mean/max channel maps."""
    name = f"block{block}.sa"
    pooled = ag.channel_pool(x)  # [B,2,W]
    pad = (mp.cfg.spatial_kernel - 1) // 2
    beta = ag.sigmoid(_conv(mp, f"{name}.gate", pooled, padding=pad))  # [B,1,W]
    mixed = _conv(mp, f"{name}.mix", x)  # pointwise channel mixing
    return ag.mul(mixed, beta)


def attention_block(mp: ModelParams, block: int, x: Tensor, training: bool) -> Tensor:
    h = _conv(mp, f"block{block}.conv1", x, padding=1)
    h = ag.relu(_bn(mp, f"block{block}.bn1", h, training))
    h = _conv(mp, f"block{block}.conv2", h, padding=1)
    h = _bn(mp, f"block{block}.bn2", h, training)
    h = channel_attention(mp, block, h, training)
    h = spatial_attention(mp, block, h)
    return ag.relu(ag.add(h, x))


def model_forward(mp: ModelParams, x, training: bool = False) -> Tensor:
    """[B,1,input_length] -> [B,N_STAGES] pre-softmax logits."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.ndim != 3 or x.shape[1] != 1:
        raise SleepStageError(f"model_forward expects [B,1,W], got {x.shape}")
    if x.shape[2] != mp.cfg.input_length:
        raise SleepStageError(
            f"model_forward expects width {mp.cfg.input_length}, got {x.shape[2]}")
    h = multiscale_forward(mp, x, training)  # pools by pool_sizes[0]
    for i, p in enumerate(mp.cfg.pool_sizes):
        if i and p:
            h = ag.max_pool1d(h, p)
        h = attention_block(mp, i, h, training)
    feats = ag.global_avg_pool(h)
    return ag.linear(feats, mp["head.fc.weight"], mp["head.fc.bias"])


def pipeline_widths(cfg: ModelConfig) -> list[int]:
    """Feature widths after each pooling stage, ending at the pooled scalar:
    the input, after each pool_sizes[i], after the last block, then 1."""
    widths = [cfg.input_length]
    for p in cfg.pool_sizes:
        widths.append(widths[-1] // p if p else widths[-1])
    return widths + [widths[-1], 1]
