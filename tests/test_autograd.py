"""Operator semantics and gradient correctness for the tensor engine."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sleepstage import autograd as ag
from sleepstage.autograd import RunningStats, Tensor
from sleepstage.errors import (
    GraphConsumed,
    NegativeThreshold,
    NonScalarLoss,
    ShapeMismatch,
    TruncatedFile,
)

RNG = np.random.default_rng(20240917)


def check_grad(build_loss, tensors, h=1e-4, tol=1e-4):
    """Analytic grads of build_loss() vs central finite differences."""
    loss = build_loss()
    for t in tensors:
        t.zero_grad()
    loss = build_loss()
    loss.backward()
    for t in tensors:
        assert t.grad is not None, "gradient never reached input"
        numeric = ag.finite_difference_grad(build_loss, t, h=h)
        rel = np.abs(t.grad - numeric) / np.maximum(1.0, np.abs(numeric))
        assert rel.max() < tol, f"relative error {rel.max():.3e}"


def quadratic_probe(out: Tensor) -> Tensor:
    """Scalar loss with nonuniform curvature so gradients are informative."""
    coeffs = Tensor(np.linspace(0.3, 1.7, out.data.size).reshape(out.data.shape))
    return ag.tensor_sum(ag.mul(ag.mul(out, out), coeffs))


class TestConv1d:
    def test_hand_convolution(self):
        x = Tensor(np.array([[[1.0, 2, 3, 4, 5]]]))
        k = Tensor(np.array([[[1.0, 1, 1]]]))
        out = ag.conv1d(x, k, Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, [[[6.0, 9.0, 12.0]]])

    def test_identity_kernel(self):
        x = Tensor(RNG.normal(size=(2, 3, 7)))
        k = np.zeros((3, 3, 1))
        for c in range(3):
            k[c, c, 0] = 1.0
        out = ag.conv1d(x, Tensor(k), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, x.data)

    def test_output_width_formula(self):
        x = Tensor(RNG.normal(size=(1, 1, 5)))
        out = ag.conv1d(x, Tensor(RNG.normal(size=(1, 1, 3))), Tensor(np.zeros(1)), stride=2)
        assert out.shape == (1, 1, 2)

    def test_same_padding_preserves_width(self):
        for k in (3, 5, 7):
            x = Tensor(RNG.normal(size=(1, 2, 20)))
            out = ag.conv1d(x, Tensor(RNG.normal(size=(4, 2, k))), Tensor(np.zeros(4)),
                            padding=(k - 1) // 2)
            assert out.shape == (1, 4, 20)

    def test_shape_mismatch(self):
        x = Tensor(np.zeros((1, 2, 5)))
        with pytest.raises(ShapeMismatch):
            ag.conv1d(x, Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros(1)))
        with pytest.raises(ShapeMismatch):
            ag.conv1d(x, Tensor(np.zeros((1, 2, 7))), Tensor(np.zeros(1)))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 2), (2, 0), (3, 1)])
    def test_gradients(self, stride, padding):
        x = Tensor(RNG.normal(size=(2, 3, 11)), requires_grad=True)
        k = Tensor(RNG.normal(size=(4, 3, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=4), requires_grad=True)
        check_grad(lambda: quadratic_probe(ag.conv1d(x, k, b, stride=stride,
                                                     padding=padding)), [x, k, b])


class TestActivations:
    def test_softmax_uniform(self):
        out = ag.softmax(Tensor(np.zeros((1, 5))))
        np.testing.assert_allclose(out.data, np.full((1, 5), 0.2))

    def test_softmax_overflow_safe(self):
        out = ag.softmax(Tensor(np.array([[1000.0, 0.0]])))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        out = ag.softmax(Tensor(RNG.normal(size=(7, 5)) * 30))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(7), atol=1e-12)

    def test_softmax_shift_invariance(self):
        x = RNG.normal(size=(3, 5))
        out1 = ag.softmax(Tensor(x)).data
        out2 = ag.softmax(Tensor(x + 123.456)).data
        np.testing.assert_allclose(out1, out2, atol=1e-12)

    def test_sigmoid_at_zero(self):
        assert ag.sigmoid(Tensor(np.zeros(3))).data[0] == 0.5

    def test_sigmoid_extremes_finite(self):
        out = ag.sigmoid(Tensor(np.array([-1e4, 1e4]))).data
        assert np.all(np.isfinite(out))
        assert 0.0 <= out[0] < 1e-12 and 1.0 - 1e-12 < out[1] <= 1.0

    def test_relu(self):
        out = ag.relu(Tensor(np.array([-2.0, 0.0, 3.0])))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 3.0])

    def test_gradients(self):
        for fn in (ag.relu, ag.sigmoid, ag.absolute):
            x = Tensor(RNG.normal(size=(3, 4)) + 0.1, requires_grad=True)
            check_grad(lambda fn=fn, x=x: quadratic_probe(fn(x)), [x])
        x = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
        check_grad(lambda: quadratic_probe(ag.softmax(x)), [x])


class TestSoftThreshold:
    @pytest.mark.parametrize("x,tau,expect", [(2.0, 0.5, 1.5), (-0.3, 0.5, 0.0),
                                              (-2.0, 0.5, -1.5)])
    def test_definition(self, x, tau, expect):
        out = ag.soft_threshold(Tensor(np.array([x])), Tensor(np.array([tau])))
        np.testing.assert_allclose(out.data, [expect])

    def test_negative_threshold(self):
        with pytest.raises(NegativeThreshold):
            ag.soft_threshold(Tensor(np.ones(3)), Tensor(np.array([-0.1, 0.0, 0.1])))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20),
           st.floats(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_properties(self, xs, tau):
        x = np.asarray(xs)
        t = Tensor(np.full(x.shape, tau))
        out = ag.soft_threshold(Tensor(x), t).data
        neg = ag.soft_threshold(Tensor(-x), t).data
        np.testing.assert_allclose(out, -neg, atol=1e-12)            # odd in x
        assert np.all(np.abs(out) <= np.abs(x) + 1e-12)              # contraction
        ident = ag.soft_threshold(Tensor(x), Tensor(np.zeros(x.shape))).data
        np.testing.assert_allclose(ident, x)                         # tau=0 identity

    def test_gradients(self):
        x = Tensor(RNG.normal(size=(2, 3, 5)), requires_grad=True)
        tau = Tensor(np.abs(RNG.normal(size=(2, 3, 1))) * 0.5, requires_grad=True)
        check_grad(lambda: quadratic_probe(ag.soft_threshold(x, tau)), [x, tau])


class TestPooling:
    def test_global_avg(self):
        out = ag.global_avg_pool(Tensor(np.array([[[1.0, 2, 3, 4]]])))
        np.testing.assert_allclose(out.data, [[2.5]])

    def test_global_max(self):
        out = ag.global_max_pool(Tensor(np.array([[[1.0, 2, 3, 4]]])))
        np.testing.assert_allclose(out.data, [[4.0]])

    def test_max_pool(self):
        out = ag.max_pool1d(Tensor(np.array([[[1.0, 3, 2, 5]]])), 2, 2)
        np.testing.assert_allclose(out.data, [[[3.0, 5.0]]])

    def test_max_pool_tie_routes_to_first(self):
        x = Tensor(np.array([[[2.0, 2.0]]]), requires_grad=True)
        out = ag.max_pool1d(x, 2, 2)
        ag.tensor_sum(out).backward()
        np.testing.assert_allclose(x.grad, [[[1.0, 0.0]]])

    def test_kernel_too_large(self):
        with pytest.raises(ShapeMismatch):
            ag.max_pool1d(Tensor(np.zeros((1, 1, 3))), 4, 1)

    def test_channel_pool_single_channel(self):
        x = Tensor(RNG.normal(size=(2, 1, 6)))
        out = ag.channel_pool(x)
        np.testing.assert_allclose(out.data[:, 0, :], x.data[:, 0, :])
        np.testing.assert_allclose(out.data[:, 1, :], x.data[:, 0, :])

    def test_channel_pool_two_values(self):
        x = Tensor(np.array([[[1.0], [3.0]]]))
        out = ag.channel_pool(x)
        np.testing.assert_allclose(out.data, [[[2.0], [3.0]]])

    def test_channel_pool_matches_loop_oracle(self):
        x = RNG.normal(size=(2, 4, 8))
        out = ag.channel_pool(Tensor(x)).data
        for b in range(2):
            for w in range(8):
                assert out[b, 0, w] == pytest.approx(np.mean(x[b, :, w]))
                assert out[b, 1, w] == pytest.approx(np.max(x[b, :, w]))

    def test_gradients(self):
        x = Tensor(RNG.normal(size=(2, 3, 8)), requires_grad=True)
        check_grad(lambda: quadratic_probe(ag.max_pool1d(x, 2, 2)), [x])
        check_grad(lambda: quadratic_probe(ag.global_avg_pool(x)), [x])
        check_grad(lambda: quadratic_probe(ag.global_max_pool(x)), [x])
        check_grad(lambda: quadratic_probe(ag.channel_pool(x)), [x])


class TestCombinators:
    def test_concat_shapes(self):
        parts = [Tensor(RNG.normal(size=(1, 32, 10))) for _ in range(3)]
        assert ag.concat(parts, axis=1).shape == (1, 96, 10)

    def test_concat_permutation_moves_blocks(self):
        a, b, c = (Tensor(RNG.normal(size=(1, 2, 4))) for _ in range(3))
        swapped = ag.concat([b, a, c], axis=1)
        np.testing.assert_allclose(swapped.data[:, 0:2], b.data)
        np.testing.assert_allclose(swapped.data[:, 2:4], a.data)

    def test_mul_by_ones_identity(self):
        x = Tensor(RNG.normal(size=(2, 3, 4)))
        np.testing.assert_allclose(ag.mul(x, Tensor(np.ones((1, 1, 4)))).data, x.data)

    def test_linear_identity(self):
        x = Tensor(RNG.normal(size=(3, 4)))
        out = ag.linear(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, x.data)

    def test_gradients(self):
        xs = [Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True) for _ in range(3)]
        check_grad(lambda: quadratic_probe(ag.concat(xs, axis=1)), xs)
        a = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 1, 4)), requires_grad=True)  # broadcast
        check_grad(lambda: quadratic_probe(ag.mul(a, b)), [a, b])
        check_grad(lambda: quadratic_probe(ag.add(a, b)), [a, b])
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        bias = Tensor(RNG.normal(size=2), requires_grad=True)
        check_grad(lambda: quadratic_probe(ag.linear(x, w, bias)), [x, w, bias])
        check_grad(lambda: quadratic_probe(ag.reshape(a, (2, 12))), [a])


class TestBatchNorm:
    def test_standardized_input_passthrough(self):
        x = RNG.normal(size=(64, 3, 10))
        x = (x - x.mean(axis=(0, 2), keepdims=True)) / x.std(axis=(0, 2), keepdims=True)
        out = ag.batch_norm1d(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                              RunningStats(3), training=True)
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_zero_gamma_gives_beta(self):
        beta = np.array([1.0, -2.0])
        out = ag.batch_norm1d(Tensor(RNG.normal(size=(4, 2, 5))), Tensor(np.zeros(2)),
                              Tensor(beta), RunningStats(2), training=True)
        np.testing.assert_allclose(out.data, np.broadcast_to(beta[None, :, None], (4, 2, 5)))

    def test_two_sample_normalization(self):
        out = ag.batch_norm1d(Tensor(np.array([[1.0], [3.0]])), Tensor(np.ones(1)),
                              Tensor(np.zeros(1)), RunningStats(1), training=True)
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-4)

    def test_running_stats_update_and_eval(self):
        stats = RunningStats(2)
        x = RNG.normal(size=(8, 2, 6)) * 3 + 1
        ag.batch_norm1d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        stats, training=True, momentum=1.0)
        np.testing.assert_allclose(stats.mean, x.mean(axis=(0, 2)))
        np.testing.assert_allclose(stats.var, x.var(axis=(0, 2)))
        out = ag.batch_norm1d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                              stats, training=False)
        expect = (x - stats.mean[None, :, None]) / np.sqrt(stats.var[None, :, None] + 1e-5)
        np.testing.assert_allclose(out.data, expect)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ag.batch_norm1d(Tensor(np.zeros((2, 3, 4))), Tensor(np.ones(2)),
                            Tensor(np.zeros(2)), RunningStats(2), training=True)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(4, 3, 6), (5, 3)])
    def test_gradients(self, training, shape):
        x = Tensor(RNG.normal(size=shape), requires_grad=True)
        gamma = Tensor(RNG.uniform(0.5, 1.5, size=3), requires_grad=True)
        beta = Tensor(RNG.normal(size=3), requires_grad=True)
        stats = RunningStats(3)
        stats.mean = RNG.normal(size=3)
        stats.var = RNG.uniform(0.5, 2.0, size=3)
        check_grad(lambda: quadratic_probe(
            ag.batch_norm1d(x, gamma, beta, stats, training=training)),
            [x, gamma, beta])


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        ag.tensor_sum(x).backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_half_sum_of_squares(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        loss = 0.5 * ag.tensor_sum(ag.mul(x, x))
        loss.backward()
        np.testing.assert_allclose(x.grad, [1.0, -2.0])

    def test_non_scalar_loss(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(NonScalarLoss):
            ag.mul(x, x).backward()

    def test_graph_consumed(self):
        x = Tensor(np.ones(2), requires_grad=True)
        loss = ag.tensor_sum(ag.mul(x, x))
        loss.backward()
        with pytest.raises(GraphConsumed):
            loss.backward()

    def test_accumulation_through_shared_input(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        loss = ag.tensor_sum(ag.add(ag.mul(x, x), x))  # d/dx = 2x + 1
        loss.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with ag.no_grad():
            out = ag.mul(x, x)
        assert not out.requires_grad


class TestCheckpointContainer:
    def test_bit_exact_round_trip(self, tmp_path):
        arrays = {
            "a.weight": RNG.normal(size=(3, 2, 5)),
            "a.bias": RNG.normal(size=3),
            "nested.name.with.dots": np.array(3.14159),
            "unicode-ключ": RNG.normal(size=(2, 2)),
        }
        path = tmp_path / "params.ckpt"
        ag.save_arrays(arrays, path)
        loaded = ag.load_arrays(path)
        assert set(loaded) == set(arrays)
        for name, arr in arrays.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.astype("<f8").tobytes()

    def test_double_round_trip_identical_bytes(self, tmp_path):
        arrays = {"x": RNG.normal(size=(4, 4))}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ag.save_arrays(arrays, p1)
        ag.save_arrays(ag.load_arrays(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(TruncatedFile):
            ag.load_arrays(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "v2.ckpt"
        ag.save_arrays({"x": np.zeros(2)}, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 2
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedFile, match="version 2"):
            ag.load_arrays(path)

    def test_every_truncation_is_truncated_file(self, tmp_path):
        full = tmp_path / "full.ckpt"
        ag.save_arrays({"a.weight": RNG.normal(size=(2, 3)), "b": np.array(1.5)}, full)
        blob = full.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(TruncatedFile):
                ag.load_arrays(cut)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_byte_mutation_loads_or_is_truncated_file(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
        ag.save_arrays({"w": np.arange(6.0).reshape(2, 3), "bias": np.ones(2)}, path)
        blob = bytearray(path.read_bytes())
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        path.write_bytes(bytes(blob))
        try:
            loaded = ag.load_arrays(path)
        except TruncatedFile:
            return
        assert all(isinstance(v, np.ndarray) for v in loaded.values())
