"""Dense float32/float64 tensors with reverse-mode automatic differentiation.

Exactly the operator set the sleep-staging network needs, nothing more.
An op with an input in the graph records a backward closure; gradients are
validated against central finite differences in the test suite. Conventions
that matter:

* convolution is cross-correlation (no kernel flip),
* max pools route gradient to the first maximal index,
* the soft-threshold subgradient at |x| == tau is 0,
* a tensor keeps a float32 or float64 array as it is and makes anything else
  float64; each training step and eval-mode inference compute in float32,
  while master weights, optimizer state, checkpoints and the gradient checks
  stay float64; a tensor's .grad has the tensor's dtype, whatever the dtype
  of the gradients it receives,
* arrays are batch-outermost ([B,C,W] or [B,F]),
* replicas of one model in separate threads, each forwarding its own rows of
  one batch inside a `ReplicaGroup`, share training-mode batch norm's
  statistics, so together they compute what one graph over the batch does.

Gradient ownership: a backward closure never writes into the `g` it is
handed, nor into an array it passes on. So the first gradient a tensor
receives becomes its .grad without a copy (only cast to its dtype), and may be
the same array as another tensor's .grad or a view of it (`add` hands one `g`
to both parents); a later gradient is added out of place. Code that reads
.grad must not write into it either.

Saved arrays: the backward graph is made of `_Node`s, kept apart from the
tensors' values. A node holds its gradient, its parents' nodes and its
closure, but no forward array, and a closure captures its parents' nodes
plus only the arrays and shapes its backward reads, never a `Tensor`: batch
norm saves x̂, not its input; conv1d its padded input; mul and linear their
operands; add, reshape and the pools shapes and argmax indices. An array
only a backward reads (a mask, a sign, an argmax) is built only when the op
records. So an activation is freed once the caller drops its tensor and no
closure saved it, and `backward` lets go of each node once its closure ran.

conv1d runs one matmul per kernel tap over a shifted view of the padded input:
`kernel[:, :, k] @ x[k:k+W']` for the output, `kernel[:, :, k].T @ g` into the
input gradient, and `g @ x[k:k+W'].T` summed over the batch for the weight
gradient, so no [B,Cin,W',K] window matrix is copied. With one input channel
that matrix is only B*W'*K values and one einsum over it computes the output
faster than K thin matmuls, so the forward uses it there.
"""
from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SleepStageError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class _Node:
    """A recorded value's place in the backward graph: its gradient, its
    parents' nodes and the closure that hands its gradient on. A node holds no
    forward array, so a graph keeps alive only what its closures saved."""

    __slots__ = ("dtype", "grad", "parents", "backward_fn")

    def __init__(self, dtype: np.dtype, parents: tuple[_Node, ...] = (),
                 backward_fn: Callable[[np.ndarray], None] | None = None):
        self.dtype = dtype
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward_fn = backward_fn

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add g to .grad: the first g becomes .grad (cast to this node's
        dtype, without a copy when it already has it); a later one is added
        out of place, so an array that .grad shares is never written."""
        if self.grad is None:
            self.grad = np.asarray(g, dtype=self.dtype)
        else:
            self.grad = np.add(self.grad, g, dtype=self.dtype)


class Tensor:
    """N-dimensional float32 or float64 value and, when it is recorded, its
    node in a backward graph (`node` is None otherwise). Float32 and float64
    arrays are kept as they are (no copy); any other input becomes float64."""

    __slots__ = ("data", "node", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOAT_DTYPES else data.astype(np.float64)
        self.node = _Node(self.data.dtype) if requires_grad else None
        self._consumed = False

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.node is None else self.node.grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.node is not None:
            self.node.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add g to .grad, as `_Node.accumulate_grad` does; a tensor that is
        not recorded gets a node of its own first."""
        if self.node is None:
            self.node = _Node(self.data.dtype)
        self.node.accumulate_grad(g)

    def backward(self) -> None:
        """Populate .grad on every reachable tensor with requires_grad.

        The traversal consumes the graph: a second call raises SleepStageError.
        Each node is let go once its closure has run, so the gradient of a
        tensor nobody holds is freed during the walk.
        """
        if self.data.size != 1:
            raise SleepStageError(f"backward() needs a scalar, got shape {self.shape}")
        if self._consumed:
            raise SleepStageError("backward() already ran on this graph")

        self.accumulate_grad(np.ones_like(self.data))
        order: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(self.node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        while order:
            node = order.pop()
            if node.backward_fn is not None and node.grad is not None:
                node.backward_fn(node.grad)
                node.backward_fn = None
                node.parents = ()
        self._consumed = True

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _records(*parents: Tensor) -> bool:
    """Whether an op on `parents` joins the backward graph."""
    return any(p.node is not None for p in parents)


def make_op(out_data: np.ndarray, parents: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap a forward result, recording backward_fn when a parent is in the graph."""
    out = Tensor(out_data)
    if _records(*parents):
        out.node = _Node(out.data.dtype, tuple(p.node for p in parents if p.node is not None),
                         backward_fn)
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
    xn, yn, x_shape, y_shape = x.node, y.node, x.data.shape, y.data.shape

    def _bw(g):
        if xn is not None:
            xn.accumulate_grad(_unbroadcast(g, x_shape))
        if yn is not None:
            yn.accumulate_grad(_unbroadcast(g, y_shape))

    return make_op(out, (x, y), _bw)


def mul(x: Tensor, y: Tensor) -> Tensor:
    out = x.data * y.data
    xn, yn, x_shape, y_shape = x.node, y.node, x.data.shape, y.data.shape
    # each operand is saved only for the other's gradient
    xd = x.data if yn is not None else None
    yd = y.data if xn is not None else None

    def _bw(g):
        if xn is not None:
            xn.accumulate_grad(_unbroadcast(g * yd, x_shape))
        if yn is not None:
            yn.accumulate_grad(_unbroadcast(g * xd, y_shape))

    return make_op(out, (x, y), _bw)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)
    xn, x_shape = x.node, x.data.shape

    def _bw(g):
        xn.accumulate_grad(g.reshape(x_shape))

    return make_op(out, (x,), _bw)


def absolute(x: Tensor) -> Tensor:
    out = np.abs(x.data)
    xn = x.node
    if _records(x):
        sign = np.sign(x.data)

    def _bw(g):
        xn.accumulate_grad(g * sign)

    return make_op(out, (x,), _bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    """x:[B,F] @ weight:[F,G] + bias:[G] -> [B,G]; a None bias adds nothing."""
    if x.ndim != 2 or weight.ndim != 2 or x.data.shape[1] != weight.data.shape[0]:
        raise SleepStageError(f"linear: x {x.shape} vs weight {weight.shape}")
    if bias is not None and bias.data.shape != (weight.data.shape[1],):
        raise SleepStageError(f"linear: bias {bias.shape} vs weight {weight.shape}")
    out = x.data @ weight.data if bias is None else x.data @ weight.data + bias.data
    xn, wn, bn = x.node, weight.node, bias.node if bias is not None else None
    xd, wd = x.data, weight.data

    def _bw(g):
        if xn is not None:
            xn.accumulate_grad(g @ wd.T)
        if wn is not None:
            wn.accumulate_grad(xd.T @ g)
        if bn is not None:
            bn.accumulate_grad(g.sum(axis=0))

    return make_op(out, (x, weight) if bias is None else (x, weight, bias), _bw)


# --- activations ---

def relu(x: Tensor) -> Tensor:
    """max(x, 0); NaN passes through."""
    out = np.maximum(x.data, 0)
    xn = x.node
    if _records(x):
        mask = x.data > 0

    def _bw(g):
        xn.accumulate_grad(g * mask)

    return make_op(out, (x,), _bw)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)
    xn = x.node

    def _bw(g):
        xn.accumulate_grad(g * out * (1.0 - out))

    return make_op(out, (x,), _bw)


def softmax(x: Tensor) -> Tensor:
    """Row softmax of [B,C] logits, computed with max subtraction."""
    if x.ndim != 2:
        raise SleepStageError(f"softmax expects [B,C], got {x.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=1, keepdims=True)
    xn = x.node

    def _bw(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        xn.accumulate_grad(out * (g - dot))

    return make_op(out, (x,), _bw)


def soft_threshold(x: Tensor, tau: Tensor) -> Tensor:
    """y = sign(x) * max(|x| - tau, 0), tau >= 0 broadcastable over x.

    Computed as copysign(fmax(|x| - tau, 0), x) + 0, which is +0.0 wherever
    |x| <= tau (adding +0.0 turns copysign's -0.0 into +0.0), also where x or
    tau is NaN. The backward reads only the output: it is nonzero exactly
    where |x| > tau, and there it has the sign of x.
    """
    if np.any(tau.data < 0):
        raise SleepStageError("soft_threshold needs tau >= 0 elementwise")
    out = np.abs(x.data)
    out -= tau.data
    np.fmax(out, 0, out=out)
    np.copysign(out, x.data, out=out)
    out += 0.0
    xn, tn, tau_shape = x.node, tau.node, tau.data.shape

    def _bw(g):
        mask = out != 0
        if xn is not None:
            xn.accumulate_grad(g * mask)
        if tn is not None:
            tn.accumulate_grad(_unbroadcast(np.where(mask, -np.sign(out) * g, 0.0), tau_shape))

    return make_op(out, (x, tau), _bw)


# --- convolution / pooling ---

def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None, padding: int = 0) -> Tensor:
    """Cross-correlate x:[B,Cin,W], zero-padded by `padding` on each side, with
    kernel:[Cout,Cin,K] + bias:[Cout] at stride 1: [B,Cout,W+2*padding-K+1].
    A None bias adds nothing."""
    if x.ndim != 3 or kernel.ndim != 3:
        raise SleepStageError(f"conv1d: x {x.shape}, kernel {kernel.shape}")
    batch, c_in, width = x.data.shape
    c_out, c_in_k, ksize = kernel.data.shape
    if c_in != c_in_k:
        raise SleepStageError(f"conv1d: {c_in} input channels vs kernel {c_in_k}")
    if bias is not None and bias.data.shape != (c_out,):
        raise SleepStageError(f"conv1d: bias {bias.shape} vs {c_out} output channels")
    if width + 2 * padding < ksize:
        raise SleepStageError(f"conv1d: width {width} + 2*{padding} < kernel {ksize}")

    xp = x.data
    if padding:
        # one buffer in which only the pad strips are zeroed: np.pad costs
        # ~150 us of Python per call, and np.zeros a pass over the interior
        xp = np.empty((batch, c_in, width + 2 * padding), dtype=x.data.dtype)
        xp[:, :, :padding] = 0
        xp[:, :, padding + width:] = 0
        xp[:, :, padding:padding + width] = x.data
    w_out = width + 2 * padding - ksize + 1
    kd = kernel.data
    taps = [xp[:, :, k:k + w_out] for k in range(ksize)]  # K views [B,Cin,W']
    if c_in == 1:
        # one input channel: the [B,1,W',K] window matrix is small, and one
        # einsum over it beats K thin matmuls
        windows = sliding_window_view(xp, ksize, axis=2)
        out = np.einsum("biwk,oik->bow", windows, kd, optimize=True)
    else:
        out = kd[:, :, 0] @ taps[0]
        for k in range(1, ksize):
            out += kd[:, :, k] @ taps[k]
    if bias is not None:
        out += bias.data[None, :, None]
    xn, kn, bn = x.node, kernel.node, bias.node if bias is not None else None

    def _bw(g):
        if kn is not None:
            kn.accumulate_grad(np.stack(
                [(g @ tap.transpose(0, 2, 1)).sum(axis=0) for tap in taps], axis=2))
        if bn is not None:
            bn.accumulate_grad(g.sum(axis=(0, 2)))
        if xn is not None:
            gxp = np.zeros_like(xp)
            for k in range(ksize):
                gxp[:, :, k:k + w_out] += kd[:, :, k].T @ g
            xn.accumulate_grad(gxp[:, :, padding:padding + width] if padding else gxp)

    return make_op(out, (x, kernel) if bias is None else (x, kernel, bias), _bw)


def max_pool1d(x: Tensor, size: int) -> Tensor:
    """Max over non-overlapping windows of `size` samples (a trailing partial
    window is dropped); the gradient goes to each window's first maximal
    sample. A window holding NaN outputs NaN, and routes its gradient to the
    first maximum of the samples before its first NaN (to the NaN when it
    comes first)."""
    if x.ndim != 3:
        raise SleepStageError(f"max_pool1d expects [B,C,W], got {x.shape}")
    batch, chans, width = x.data.shape
    if size > width:
        raise SleepStageError(f"max_pool1d: size {size} > width {width}")
    w_out = width // size
    span = size * (w_out - 1) + 1
    record = _records(x)
    # running maximum over the windows' taps; maximum(a, b) returns b on a
    # tie, so `out` keeps the first maximal value, and `arg`, the tap index
    # of the first maximum, moves only where a tap is strictly greater
    out = x.data[:, :, :span:size].copy()
    if record:
        arg = np.zeros(out.shape, dtype=np.min_scalar_type(size - 1))
    for k in range(1, size):
        tap = x.data[:, :, k:k + span:size]
        if record:
            up = tap > out
            arg += up * (k - arg)
        np.maximum(tap, out, out=out)
    xn = x.node

    def _bw(g):
        # flat index of each window's first maximum in x: row (b, c) starts
        # at (b*C + c)*W; window j starts at size*j
        flat = (arg + width * np.arange(batch * chans).reshape(batch, chans, 1)
                + size * np.arange(w_out))
        gx = np.zeros(batch * chans * width, dtype=xn.dtype)
        np.add.at(gx, flat.ravel(), g.ravel())
        xn.accumulate_grad(gx.reshape(batch, chans, width))

    return make_op(out, (x,), _bw)


def global_avg_pool(x: Tensor) -> Tensor:
    if x.ndim != 3:
        raise SleepStageError(f"global_avg_pool expects [B,C,W], got {x.shape}")
    width = x.data.shape[2]
    out = x.data.mean(axis=2)
    xn = x.node

    def _bw(g):
        xn.accumulate_grad(np.repeat(g[:, :, None], width, axis=2) / width)

    return make_op(out, (x,), _bw)


def channel_pool(x: Tensor) -> Tensor:
    """[B,C,W] -> [B,2,W]: channel 0 mean over C, channel 1 max over C."""
    if x.ndim != 3:
        raise SleepStageError(f"channel_pool expects [B,C,W], got {x.shape}")
    batch, chans, width = x.data.shape
    arg = x.data.argmax(axis=1)  # [B,W], first maximal channel
    mx = np.take_along_axis(x.data, arg[:, None, :], axis=1)[:, 0, :]
    out = np.stack([x.data.mean(axis=1), mx], axis=1)
    xn = x.node

    def _bw(g):
        gx = np.repeat(g[:, 0:1, :], chans, axis=1) / chans
        # flat index of (b, arg[b, w], w) in x is (b*C + arg)*W + w
        flat = (chans * np.arange(batch)[:, None] + arg) * width + np.arange(width)
        np.add.at(gx.reshape(-1), flat.ravel(), g[:, 1, :].ravel())
        xn.accumulate_grad(gx)

    return make_op(out, (x,), _bw)


def concat(xs: Sequence[Tensor]) -> Tensor:
    """Join [B,C_i,W] tensors on the channel axis."""
    if not xs:
        raise SleepStageError("concat of zero tensors")
    out = np.concatenate([t.data for t in xs], axis=1)
    splits = np.cumsum([t.data.shape[1] for t in xs])[:-1]
    nodes = [t.node for t in xs]

    def _bw(g):
        for node, piece in zip(nodes, np.split(g, splits, axis=1)):
            if node is not None:
                node.accumulate_grad(piece)

    return make_op(out, tuple(xs), _bw)


# --- batch normalization ---

class ReplicaGroup:
    """Two replicas of one model, each forwarding its own rows of one batch in
    its own thread. Training-mode batch norm gathers the replicas' per-channel
    statistics here, so that every replica normalizes with the whole batch's
    (cross-device batch norm, Peng et al. 2018, arXiv:1711.07240). The
    replicas run the same graph, so they reach the same batch norms in the
    same order, and each gather is one barrier wait."""

    def __init__(self):
        self._parts: list = [None, None]
        self._gathered: tuple = ()
        self._barrier = threading.Barrier(2, action=self._gather)

    def _gather(self) -> None:
        # runs in one thread once both replicas have arrived, before either
        # leaves; the next gather runs only once both have read this one
        self._gathered, self._parts = tuple(self._parts), [None, None]

    def allgather(self, rank: int, part) -> tuple:
        """Every replica's `part`, in rank order, once all have given theirs."""
        self._parts[rank] = part
        self._barrier.wait()
        return self._gathered

    def abort(self) -> None:
        """Stop the group: a replica that waits in `allgather`, now or later,
        raises threading.BrokenBarrierError. A replica that fails must call
        this, or the others wait for it forever."""
        self._barrier.abort()

    @contextmanager
    def member(self, rank: int):
        """The ops the calling thread runs inside the block are replica `rank`'s."""
        _REPLICA.group, _REPLICA.rank = self, rank
        try:
            yield
        finally:
            _REPLICA.group, _REPLICA.rank = None, 0


class _Replica(threading.local):
    group: ReplicaGroup | None = None
    rank: int = 0


_REPLICA = _Replica()


def _pooled_moments(parts) -> tuple:
    """(count, mean, M2) of the union of the parts' rows from each part's
    (count, mean, M2), folded in left to right (Chan, Golub and LeVeque's
    pairwise update); a part of count 0 adds nothing."""
    n, mean, m2 = parts[0]
    for n_b, mean_b, m2_b in parts[1:]:
        if n_b:
            total = n + n_b
            delta = mean_b - mean
            mean = mean + delta * (n_b / total)
            m2 = m2 + m2_b + delta * delta * (n * n_b / total)
            n = total
    return n, mean, m2


def batch_norm1d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
                 running_var: Tensor, training: bool) -> Tensor:
    """Normalize per channel over (batch, width) for [B,C,W] or batch for [B,C].

    Training mode uses biased batch statistics and folds them into the
    running tensors, rebinding each one's .data to
    (1-BN_MOMENTUM)*running + BN_MOMENTUM*batch; both modes divide by
    sqrt(var + BN_EPS). Inside `ReplicaGroup.member` the batch is every
    replica's rows together: the forward gathers each replica's (count, mean,
    M2) and the backward its sums of g and g*xhat, both in rank order, so
    each replica computes what one graph over the whole batch computes for its
    rows. Every replica then holds the same statistics, so only rank 0 folds
    them, and replicas may share their running tensors.
    """
    if x.ndim not in (2, 3):
        raise SleepStageError(f"batch_norm1d expects [B,C,W] or [B,C], got {x.shape}")
    chans = x.data.shape[1]
    if gamma.data.shape != (chans,) or beta.data.shape != (chans,):
        raise SleepStageError(
            f"batch_norm1d: gamma {gamma.shape} / beta {beta.shape} vs {chans} channels")
    x3 = x.data if x.ndim == 3 else x.data[:, :, None]  # [B,C] as [B,C,1]
    n = x3.shape[0] * x3.shape[2]
    group, rank = (_REPLICA.group, _REPLICA.rank) if training else (None, 0)

    if training:
        mu = x3.sum(axis=(0, 2)) / max(n, 1)  # a replica of 0 rows gives zeros
        xhat = x3 - mu[:, None]
        m2 = np.einsum("bcw,bcw->c", xhat, xhat)
        if group is not None:
            n, mu, m2 = _pooled_moments(group.allgather(rank, (n, mu, m2)))
            np.subtract(x3, mu[:, None], out=xhat)
        var = m2 / n
        if rank == 0:
            running_mean.data = (1.0 - BN_MOMENTUM) * running_mean.data + BN_MOMENTUM * mu
            running_var.data = (1.0 - BN_MOMENTUM) * running_var.data + BN_MOMENTUM * var
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv[:, None]
    else:
        inv = 1.0 / np.sqrt(running_var.data + BN_EPS)
        xhat = (x3 - running_mean.data[:, None]) * inv[:, None]
    out = xhat * gamma.data[:, None]
    out += beta.data[:, None]
    xn, gn, bn, gd = x.node, gamma.node, beta.node, gamma.data
    x_shape, x3_shape = x.data.shape, x3.shape

    def _bw(g):
        g3 = g.reshape(x3_shape)
        dgamma = np.einsum("bcw,bcw->c", g3, xhat)
        dbeta = g3.sum(axis=(0, 2))
        if gn is not None:
            gn.accumulate_grad(dgamma)
        if bn is not None:
            bn.accumulate_grad(dbeta)
        if xn is not None:
            scale = (gd * inv)[:, None]
            if training:
                # gx = gamma*inv*(g - sum(g)/n - xhat*sum(g*xhat)/n), from the
                # two sums above, or the whole batch's under a replica group
                sum_g, sum_gx = dbeta, dgamma
                if group is not None:
                    parts = group.allgather(rank, (dbeta, dgamma))
                    sum_g = functools.reduce(np.add, [p[0] for p in parts])
                    sum_gx = functools.reduce(np.add, [p[1] for p in parts])
                gx = xhat * (sum_gx / n)[:, None]
                np.subtract(g3, gx, out=gx)
                gx -= (sum_g / n)[:, None]
                gx *= scale
            else:
                gx = g3 * scale
            xn.accumulate_grad(gx.reshape(x_shape))

    return make_op(out.reshape(x.data.shape), (x, gamma, beta), _bw)

