"""Dense float64 tensors with reverse-mode automatic differentiation.

Exactly the operator set the sleep-staging network needs, nothing more.
Every op records a backward closure; gradients are validated against
central finite differences in the test suite. Conventions that matter:

* convolution is cross-correlation (no kernel flip),
* max pools route gradient to the first maximal index,
* the soft-threshold subgradient at |x| == tau is 0,
* everything is float64, contiguous, batch-outermost.
"""
from __future__ import annotations

import math
import struct
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    GraphConsumed,
    NegativeThreshold,
    NonScalarLoss,
    ShapeMismatch,
    TruncatedFile,
)

_GRAD_ENABLED = True


class no_grad:
    """Context manager that stops ops from recording backward closures."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """N-dimensional float64 value, optionally a node in a backward graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Populate .grad on every reachable tensor with requires_grad.

        The traversal consumes the graph: a second call raises GraphConsumed.
        """
        if self.data.size != 1:
            raise NonScalarLoss(f"backward() needs a scalar, got shape {self.shape}")
        if self._consumed:
            raise GraphConsumed("backward() already ran on this graph")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self.accumulate_grad(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                node._backward_fn = None
                node._parents = ()
        self._consumed = True

    # small operator sugar; heavy lifting lives in the module functions
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return add(self, mul(_as_tensor(other), _as_tensor(-1.0)))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class ParamTensor(Tensor):
    """Learnable tensor with a stable name used by the checkpoint container."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"ParamTensor({self.name!r}, shape={self.shape})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def make_op(out_data: np.ndarray, parents: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap a forward result, recording backward_fn when the graph is live."""
    record = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(out_data, requires_grad=record)
    if record:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# --- elementwise / linear algebra ---

def add(x: Tensor, y: Tensor) -> Tensor:
    out = x.data + y.data

    def _bw(g):
        if x.requires_grad:
            x.accumulate_grad(_unbroadcast(g, x.data.shape))
        if y.requires_grad:
            y.accumulate_grad(_unbroadcast(g, y.data.shape))

    return make_op(out, (x, y), _bw)


def mul(x: Tensor, y: Tensor) -> Tensor:
    out = x.data * y.data

    def _bw(g):
        if x.requires_grad:
            x.accumulate_grad(_unbroadcast(g * y.data, x.data.shape))
        if y.requires_grad:
            y.accumulate_grad(_unbroadcast(g * x.data, y.data.shape))

    return make_op(out, (x, y), _bw)


def tensor_sum(x: Tensor) -> Tensor:
    out = x.data.sum()

    def _bw(g):
        if x.requires_grad:
            x.accumulate_grad(np.broadcast_to(g, x.data.shape).copy())

    return make_op(out, (x,), _bw)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)

    def _bw(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.data.shape))

    return make_op(out, (x,), _bw)


def absolute(x: Tensor) -> Tensor:
    out = np.abs(x.data)
    sign = np.sign(x.data)

    def _bw(g):
        if x.requires_grad:
            x.accumulate_grad(g * sign)

    return make_op(out, (x,), _bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x:[B,F] @ weight:[F,G] + bias:[G] -> [B,G]."""
    if x.ndim != 2 or weight.ndim != 2 or x.data.shape[1] != weight.data.shape[0]:
        raise ShapeMismatch(f"linear: x {x.shape} vs weight {weight.shape}")
    if bias.data.shape != (weight.data.shape[1],):
        raise ShapeMismatch(f"linear: bias {bias.shape} vs weight {weight.shape}")
    out = x.data @ weight.data + bias.data

    def _bw(g):
        if x.requires_grad:
            x.accumulate_grad(g @ weight.data.T)
        if weight.requires_grad:
            weight.accumulate_grad(x.data.T @ g)
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=0))

    return make_op(out, (x, weight, bias), _bw)


# --- activations ---

def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out = np.where(mask, x.data, 0.0)

    def _bw(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask)

    return make_op(out, (x,), _bw)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)

    def _bw(g):
        if x.requires_grad:
            x.accumulate_grad(g * out * (1.0 - out))

    return make_op(out, (x,), _bw)


def softmax(x: Tensor) -> Tensor:
    """Row softmax of [B,C] logits, computed with max subtraction."""
    if x.ndim != 2:
        raise ShapeMismatch(f"softmax expects [B,C], got {x.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)

    def _bw(g):
        if x.requires_grad:
            dot = (g * out).sum(axis=1, keepdims=True)
            x.accumulate_grad(out * (g - dot))

    return make_op(out, (x,), _bw)


def soft_threshold(x: Tensor, tau: Tensor) -> Tensor:
    """y = sign(x) * max(|x| - tau, 0), tau >= 0 broadcastable over x."""
    if np.any(tau.data < 0):
        raise NegativeThreshold("soft_threshold needs tau >= 0 elementwise")
    sign = np.sign(x.data)
    shrunk = np.abs(x.data) - tau.data
    mask = shrunk > 0
    out = np.where(mask, sign * shrunk, 0.0)

    def _bw(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask)
        if tau.requires_grad:
            tau.accumulate_grad(_unbroadcast(np.where(mask, -sign * g, 0.0), tau.data.shape))

    return make_op(out, (x, tau), _bw)


# --- convolution / pooling ---

def conv1d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1,
           padding: int = 0) -> Tensor:
    """Cross-correlate x:[B,Cin,W] with kernel:[Cout,Cin,K] + bias:[Cout]."""
    if x.ndim != 3 or kernel.ndim != 3:
        raise ShapeMismatch(f"conv1d: x {x.shape}, kernel {kernel.shape}")
    batch, c_in, width = x.data.shape
    c_out, c_in_k, ksize = kernel.data.shape
    if c_in != c_in_k:
        raise ShapeMismatch(f"conv1d: {c_in} input channels vs kernel {c_in_k}")
    if bias.data.shape != (c_out,):
        raise ShapeMismatch(f"conv1d: bias {bias.shape} vs {c_out} output channels")
    if stride < 1:
        raise ShapeMismatch("conv1d: stride must be >= 1")
    if width + 2 * padding < ksize:
        raise ShapeMismatch(f"conv1d: width {width} + 2*{padding} < kernel {ksize}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding))) if padding else x.data
    windows = sliding_window_view(xp, ksize, axis=2)[:, :, ::stride, :]  # [B,Cin,W',K]
    w_out = windows.shape[2]
    out = np.einsum("biwk,oik->bow", windows, kernel.data, optimize=True)
    out += bias.data[None, :, None]

    def _bw(g):
        if kernel.requires_grad:
            kernel.accumulate_grad(np.einsum("bow,biwk->oik", g, windows, optimize=True))
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(0, 2)))
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for k in range(ksize):
                stop = k + stride * (w_out - 1) + 1
                gxp[:, :, k:stop:stride] += np.einsum(
                    "bow,oi->biw", g, kernel.data[:, :, k], optimize=True)
            x.accumulate_grad(gxp[:, :, padding:padding + width] if padding else gxp)

    return make_op(out, (x, kernel, bias), _bw)


def max_pool1d(x: Tensor, kernel: int, stride: int) -> Tensor:
    if x.ndim != 3:
        raise ShapeMismatch(f"max_pool1d expects [B,C,W], got {x.shape}")
    batch, chans, width = x.data.shape
    if kernel > width:
        raise ShapeMismatch(f"max_pool1d: kernel {kernel} > width {width}")
    windows = sliding_window_view(x.data, kernel, axis=2)[:, :, ::stride, :]
    arg = windows.argmax(axis=3)  # first maximal index
    out = np.take_along_axis(windows, arg[..., None], axis=3)[..., 0]
    w_out = out.shape[2]

    def _bw(g):
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        bidx = np.broadcast_to(np.arange(batch)[:, None, None], arg.shape)
        cidx = np.broadcast_to(np.arange(chans)[None, :, None], arg.shape)
        pos = arg + stride * np.arange(w_out)[None, None, :]
        np.add.at(gx, (bidx, cidx, pos), g)
        x.accumulate_grad(gx)

    return make_op(out, (x,), _bw)


def global_avg_pool(x: Tensor) -> Tensor:
    if x.ndim != 3:
        raise ShapeMismatch(f"global_avg_pool expects [B,C,W], got {x.shape}")
    width = x.data.shape[2]
    out = x.data.mean(axis=2)

    def _bw(g):
        if x.requires_grad:
            x.accumulate_grad(np.repeat(g[:, :, None], width, axis=2) / width)

    return make_op(out, (x,), _bw)


def global_max_pool(x: Tensor) -> Tensor:
    if x.ndim != 3:
        raise ShapeMismatch(f"global_max_pool expects [B,C,W], got {x.shape}")
    batch, chans, _ = x.data.shape
    arg = x.data.argmax(axis=2)
    out = np.take_along_axis(x.data, arg[:, :, None], axis=2)[:, :, 0]

    def _bw(g):
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        bidx = np.repeat(np.arange(batch), chans)
        cidx = np.tile(np.arange(chans), batch)
        np.add.at(gx, (bidx, cidx, arg.ravel()), g.ravel())
        x.accumulate_grad(gx)

    return make_op(out, (x,), _bw)


def channel_pool(x: Tensor) -> Tensor:
    """[B,C,W] -> [B,2,W]: channel 0 mean over C, channel 1 max over C."""
    if x.ndim != 3:
        raise ShapeMismatch(f"channel_pool expects [B,C,W], got {x.shape}")
    batch, chans, width = x.data.shape
    arg = x.data.argmax(axis=1)  # [B,W], first maximal channel
    mx = np.take_along_axis(x.data, arg[:, None, :], axis=1)[:, 0, :]
    out = np.stack([x.data.mean(axis=1), mx], axis=1)

    def _bw(g):
        if not x.requires_grad:
            return
        gx = np.repeat(g[:, 0:1, :], chans, axis=1) / chans
        bidx = np.repeat(np.arange(batch), width)
        widx = np.tile(np.arange(width), batch)
        np.add.at(gx, (bidx, arg.ravel(), widx), g[:, 1, :].ravel())
        x.accumulate_grad(gx)

    return make_op(out, (x,), _bw)


def concat(xs: Sequence[Tensor], axis: int = 1) -> Tensor:
    if not xs:
        raise ShapeMismatch("concat of zero tensors")
    out = np.concatenate([t.data for t in xs], axis=axis)
    sizes = [t.data.shape[axis] for t in xs]
    splits = np.cumsum(sizes)[:-1]

    def _bw(g):
        for t, piece in zip(xs, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate_grad(piece)

    return make_op(out, tuple(xs), _bw)


# --- batch normalization ---

class RunningStats:
    """Per-channel running mean/var used by batch norm in eval mode."""

    __slots__ = ("mean", "var")

    def __init__(self, channels: int):
        self.mean = np.zeros(channels, dtype=np.float64)
        self.var = np.ones(channels, dtype=np.float64)

    def copy(self) -> "RunningStats":
        out = RunningStats(len(self.mean))
        out.mean = self.mean.copy()
        out.var = self.var.copy()
        return out


def batch_norm1d(x: Tensor, gamma: Tensor, beta: Tensor, stats: RunningStats,
                 training: bool, eps: float = 1e-5, momentum: float = 0.1) -> Tensor:
    """Normalize per channel over (batch, width) for [B,C,W] or batch for [B,C].

    Training mode uses biased batch statistics and folds them into the
    running stats as running = (1-momentum)*running + momentum*batch.
    """
    if x.ndim == 3:
        axes: tuple[int, ...] = (0, 2)
        bshape = (1, -1, 1)
    elif x.ndim == 2:
        axes = (0,)
        bshape = (1, -1)
    else:
        raise ShapeMismatch(f"batch_norm1d expects [B,C,W] or [B,C], got {x.shape}")
    chans = x.data.shape[1]
    if gamma.data.shape != (chans,) or beta.data.shape != (chans,):
        raise ShapeMismatch(
            f"batch_norm1d: gamma {gamma.shape} / beta {beta.shape} vs {chans} channels")

    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        stats.mean = (1.0 - momentum) * stats.mean + momentum * mu
        stats.var = (1.0 - momentum) * stats.var + momentum * var
    else:
        mu, var = stats.mean, stats.var

    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu.reshape(bshape)) * inv.reshape(bshape)
    out = gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape)

    def _bw(g):
        if gamma.requires_grad:
            gamma.accumulate_grad((g * xhat).sum(axis=axes))
        if beta.requires_grad:
            beta.accumulate_grad(g.sum(axis=axes))
        if x.requires_grad:
            gh = g * gamma.data.reshape(bshape)
            if training:
                gx = inv.reshape(bshape) * (
                    gh
                    - gh.mean(axis=axes, keepdims=True)
                    - xhat * (gh * xhat).mean(axis=axes, keepdims=True)
                )
            else:
                gx = gh * inv.reshape(bshape)
            x.accumulate_grad(gx)

    return make_op(out, (x, gamma, beta), _bw)


# --- named-parameter checkpoint container ---

_CKPT_MAGIC = b"NPC1"
_CKPT_VERSION = 1


def save_arrays(arrays: dict[str, np.ndarray], path) -> None:
    """Write named float64 arrays: magic, version, count, then per entry
    name length + UTF-8 name, rank, dims, little-endian float64 payload.
    """
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", _CKPT_VERSION))
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_arrays(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != _CKPT_MAGIC:
        raise TruncatedFile(f"{path}: not a parameter container")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != _CKPT_VERSION:
        raise TruncatedFile(f"{path}: unsupported container version {version}")
    off = 12
    out: dict[str, np.ndarray] = {}

    def take(nbytes: int) -> int:
        """Offset of the next `nbytes` bytes, which must lie inside the file."""
        nonlocal off
        if off + nbytes > len(blob):
            raise TruncatedFile(f"{path}: container ends inside entry {len(out)}")
        off += nbytes
        return off - nbytes

    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", blob, take(4))
        start = take(nlen)
        try:
            name = blob[start:off].decode("utf-8")
        except UnicodeDecodeError:
            raise TruncatedFile(f"{path}: entry {len(out)} has a name that is not UTF-8") from None
        (rank,) = struct.unpack_from("<I", blob, take(4))
        dims = struct.unpack_from(f"<{rank}Q", blob, take(8 * rank))
        n = math.prod(dims)
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=take(8 * n)).reshape(dims)
        out[name] = arr.astype(np.float64)
    return out


def finite_difference_grad(f: Callable[[], Tensor], param: Tensor,
                           h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar f() wrt param, perturbing in place."""
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f().item()
        flat[i] = orig - h
        down = f().item()
        flat[i] = orig
        grad[i] = (up - down) / (2.0 * h)
    return grad.reshape(param.data.shape)
