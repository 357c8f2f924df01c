"""Operator semantics and gradient correctness for the tensor engine."""
import gc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sleepstage import autograd as ag
from sleepstage.autograd import Tensor
from sleepstage.errors import SleepStageError

from sleepstage.training import weighted_ce_loss

from helpers import (
    finite_difference_grad,
    reference_conv1d,
    reference_max_pool1d,
    reference_relu,
    reference_soft_threshold,
    running_stats,
    tensor_sum,
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
        numeric = finite_difference_grad(build_loss, t, h=h)
        rel = np.abs(t.grad - numeric) / np.maximum(1.0, np.abs(numeric))
        assert rel.max() < tol, f"relative error {rel.max():.3e}"


def quadratic_probe(out: Tensor) -> Tensor:
    """Scalar loss with nonuniform curvature so gradients are informative."""
    coeffs = Tensor(np.linspace(0.3, 1.7, out.data.size).reshape(out.data.shape))
    return tensor_sum(ag.mul(ag.mul(out, out), coeffs))


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
        for padding in (0, 1, 2):  # W + 2p - K + 1
            out = ag.conv1d(x, Tensor(RNG.normal(size=(1, 1, 3))), Tensor(np.zeros(1)),
                            padding=padding)
            assert out.shape == (1, 1, 5 + 2 * padding - 3 + 1)

    def test_same_padding_preserves_width(self):
        for k in (3, 5, 7):
            x = Tensor(RNG.normal(size=(1, 2, 20)))
            out = ag.conv1d(x, Tensor(RNG.normal(size=(4, 2, k))), Tensor(np.zeros(4)),
                            padding=(k - 1) // 2)
            assert out.shape == (1, 4, 20)

    def test_shape_mismatch(self):
        x = Tensor(np.zeros((1, 2, 5)))
        with pytest.raises(SleepStageError, match="^conv1d: 2 input channels vs kernel 3$"):
            ag.conv1d(x, Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros(1)))
        with pytest.raises(SleepStageError, match=r"^conv1d: width 5 \+ 2\*0 < kernel 7$"):
            ag.conv1d(x, Tensor(np.zeros((1, 2, 7))), Tensor(np.zeros(1)))

    @pytest.mark.parametrize("padding", [0, 1, 2, 3])
    def test_gradients(self, padding):
        x = Tensor(RNG.normal(size=(2, 3, 11)), requires_grad=True)
        k = Tensor(RNG.normal(size=(4, 3, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=4), requires_grad=True)
        check_grad(lambda: quadratic_probe(ag.conv1d(x, k, b, padding=padding)), [x, k, b])

    # every conv of the default model as (c_in, c_out, k, padding, width): the
    # branch conv1 and proj (c_in 1), the branch conv2 (c_in 32), the block
    # convs at each block width and the spatial mix (c_in 96), and the spatial
    # gate (c_in 2); then small shapes the model does not use, one with an
    # even kernel
    @pytest.mark.parametrize("c_in,c_out,k,padding,width", [
        (1, 32, 3, 1, 3000), (1, 32, 5, 2, 3000), (1, 32, 7, 3, 3000), (1, 32, 1, 0, 3000),
        (32, 32, 3, 1, 3000), (32, 32, 5, 2, 3000), (32, 32, 7, 3, 3000),
        (96, 96, 3, 1, 375), (96, 96, 3, 1, 93), (96, 96, 3, 1, 23),
        (96, 96, 1, 0, 375), (2, 1, 3, 1, 375),
        (1, 4, 3, 1, 11), (3, 4, 3, 1, 11), (3, 4, 4, 0, 12)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_einsum_reference(self, c_in, c_out, k, padding, width, dtype):
        # float64 within 1e-12 of the reference's largest magnitude; float32
        # within 2e-5 of it, about 170 float32 epsilons: the weight gradient
        # sums B*W' = 6000 products in a different order (worst measured 3.3e-6)
        tol = 1e-12 if dtype == np.float64 else 2e-5
        rng = np.random.default_rng(c_in * 1000 + k * 10 + 1)
        x = rng.normal(size=(2, c_in, width)).astype(dtype)
        kernel = (rng.normal(size=(c_out, c_in, k)) / np.sqrt(c_in * k)).astype(dtype)
        bias = rng.normal(size=c_out).astype(dtype)
        results = []
        for conv in (ag.conv1d, reference_conv1d):
            ts = [Tensor(a.copy(), requires_grad=True) for a in (x, kernel, bias)]
            out = conv(*ts, padding=padding)
            probe = np.linspace(-0.5, 1, out.data.size, dtype=dtype).reshape(out.shape)
            tensor_sum(ag.mul(out, Tensor(probe))).backward()
            results.append([out.data] + [t.grad for t in ts])
        for name, got, want in zip(("output", "x.grad", "kernel.grad", "bias.grad"), *results):
            assert got.dtype == dtype and got.shape == want.shape, name
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err <= tol, f"{name}: relative error {err:.2e}"


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_matches_reference_bit_for_bit(self, dtype):
        x = np.concatenate([RNG.normal(size=50), [0.0, -0.0, 1e-30, -1e-30]]).astype(dtype)
        for requires_grad in (False, True):
            out = ag.relu(Tensor(x, requires_grad=requires_grad)).data
            assert out.dtype == dtype
            assert out.tobytes() == reference_relu(Tensor(x)).data.astype(dtype).tobytes()

    def test_relu_passes_nan(self):
        out = ag.relu(Tensor(np.array([np.nan, -1.0, 1.0]))).data
        assert np.isnan(out[0]) and out[1:].tolist() == [0.0, 1.0]

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
        with pytest.raises(SleepStageError, match="^soft_threshold needs tau >= 0 elementwise$"):
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tau_shape", [(2, 3, 1), (2, 3, 9), (1, 3, 1)])
    def test_matches_where_reference_bit_for_bit(self, dtype, tau_shape):
        """copysign(fmax(|x| - tau, 0), x) + 0 and its backward give the bytes
        of the np.where form: outputs, x and tau gradients, with ties |x| ==
        tau, signed zeros in x, tau and the incoming gradient, and a row that
        lies wholly inside the dead zone."""
        rng = np.random.default_rng(31)
        x = rng.integers(-3, 4, size=(2, 3, 9)).astype(dtype)
        x[x == 0] = np.where(rng.random(int((x == 0).sum())) < 0.5, -0.0, 0.0)
        x[0, 1] = -0.0
        tau = rng.integers(0, 3, size=tau_shape).astype(dtype)
        tau[tau == 0] = np.where(rng.random(int((tau == 0).sum())) < 0.5, -0.0, 0.0)
        probe = rng.normal(size=x.shape).astype(dtype)
        probe[0, 0, :3] = [0.0, -0.0, 0.0]
        results = []
        for op in (ag.soft_threshold, reference_soft_threshold):
            ts = [Tensor(x.copy(), requires_grad=True), Tensor(tau.copy(), requires_grad=True)]
            out = op(*ts)
            tensor_sum(ag.mul(out, Tensor(probe))).backward()
            results.append([out.data] + [t.grad for t in ts])
            assert ag.soft_threshold(Tensor(x), Tensor(tau)).data.tobytes() == out.data.tobytes()
        for name, got, want in zip(("output", "x.grad", "tau.grad"), *results):
            assert got.dtype == dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    def test_nan_gives_the_reference_output(self):
        x = np.array([[[np.nan, 2.0, -np.inf, np.inf, -3.0]]])
        for tau in (np.array([[[1.0]]]), np.array([[[np.inf]]]), np.array([[[np.nan]]])):
            with np.errstate(invalid="ignore"):  # inf - inf and NaN arithmetic
                got = ag.soft_threshold(Tensor(x), Tensor(tau)).data
                want = reference_soft_threshold(Tensor(x), Tensor(tau)).data
            assert got.tobytes() == want.tobytes()


class TestPooling:
    def test_global_avg(self):
        out = ag.global_avg_pool(Tensor(np.array([[[1.0, 2, 3, 4]]])))
        np.testing.assert_allclose(out.data, [[2.5]])

    def test_max_pool(self):
        out = ag.max_pool1d(Tensor(np.array([[[1.0, 3, 2, 5]]])), 2)
        np.testing.assert_allclose(out.data, [[[3.0, 5.0]]])

    def test_max_pool_tie_routes_to_first(self):
        x = Tensor(np.array([[[2.0, 2.0]]]), requires_grad=True)
        out = ag.max_pool1d(x, 2)
        tensor_sum(out).backward()
        np.testing.assert_allclose(x.grad, [[[1.0, 0.0]]])

    def test_size_too_large(self):
        with pytest.raises(SleepStageError, match="^max_pool1d: size 4 > width 3$"):
            ag.max_pool1d(Tensor(np.zeros((1, 1, 3))), 4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size,width", [
        (2, 8), (4, 23), (8, 3000), (3, 10), (2, 11), (5, 5)])
    def test_max_pool_matches_gather_bit_for_bit(self, dtype, size, width):
        # small integers make ties; signed zeros tie without equal bits
        x = RNG.integers(-3, 4, size=(2, 3, width)).astype(dtype)
        x[x == 0] = np.where(RNG.random(int((x == 0).sum())) < 0.5, -0.0, 0.0)
        expect = reference_max_pool1d(Tensor(x), size).data
        for requires_grad in (False, True):
            out = ag.max_pool1d(Tensor(x, requires_grad=requires_grad), size).data
            assert out.dtype == dtype and out.shape == expect.shape
            assert out.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size,width", [
        (2, 8), (4, 23), (8, 3000), (3, 10), (2, 11), (5, 5)])
    def test_max_pool_gradient_matches_gather_bit_for_bit(self, dtype, size, width):
        """The running int8 argmax routes every gradient where the sliding-window
        argmax does: ties and signed zeros to the first maximum, and nothing to
        a trailing partial window."""
        rng = np.random.default_rng(size * 110 + width)
        x = rng.integers(-3, 4, size=(2, 3, width)).astype(dtype)
        x[x == 0] = np.where(rng.random(int((x == 0).sum())) < 0.5, -0.0, 0.0)
        probe = Tensor(rng.normal(size=(2, 3, width // size)).astype(dtype))
        grads = []
        for pool in (ag.max_pool1d, reference_max_pool1d):
            t = Tensor(x, requires_grad=True)
            tensor_sum(ag.mul(pool(t, size), probe)).backward()
            grads.append(t.grad)
        assert grads[0].dtype == dtype
        assert grads[0].tobytes() == grads[1].tobytes()

    def test_max_pool_window_with_nan_routes_before_the_nan(self):
        """A window holding NaN outputs NaN; its gradient goes to the first
        maximum of the samples before the first NaN, or to the NaN itself
        when it comes first."""
        x = Tensor(np.array([[[1.0, 5.0, np.nan, 7.0, np.nan, 2.0, 3.0, 4.0]]]),
                   requires_grad=True)
        out = ag.max_pool1d(x, 4)
        assert np.isnan(out.data).all()
        tensor_sum(out).backward()
        np.testing.assert_array_equal(x.grad, [[[0, 1, 0, 0, 1, 0, 0, 0]]])

    def test_max_pool_gradient_matches_gather(self):
        x = RNG.integers(-3, 4, size=(2, 3, 23)).astype(np.float64)  # ties
        probe = Tensor(RNG.normal(size=(2, 3, 5)))
        grads = []
        for pool in (ag.max_pool1d, reference_max_pool1d):
            t = Tensor(x, requires_grad=True)
            tensor_sum(ag.mul(pool(t, 4), probe)).backward()
            grads.append(t.grad)
        assert grads[0].tobytes() == grads[1].tobytes()

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
        check_grad(lambda: quadratic_probe(ag.max_pool1d(x, 2)), [x])
        check_grad(lambda: quadratic_probe(ag.global_avg_pool(x)), [x])
        check_grad(lambda: quadratic_probe(ag.channel_pool(x)), [x])


class TestCombinators:
    def test_concat_shapes(self):
        parts = [Tensor(RNG.normal(size=(1, 32, 10))) for _ in range(3)]
        assert ag.concat(parts).shape == (1, 96, 10)

    def test_concat_permutation_moves_blocks(self):
        a, b, c = (Tensor(RNG.normal(size=(1, 2, 4))) for _ in range(3))
        swapped = ag.concat([b, a, c])
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
        check_grad(lambda: quadratic_probe(ag.concat(xs)), xs)
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
                              *running_stats(3), training=True)
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_zero_gamma_gives_beta(self):
        beta = np.array([1.0, -2.0])
        out = ag.batch_norm1d(Tensor(RNG.normal(size=(4, 2, 5))), Tensor(np.zeros(2)),
                              Tensor(beta), *running_stats(2), training=True)
        np.testing.assert_allclose(out.data, np.broadcast_to(beta[None, :, None], (4, 2, 5)))

    def test_two_sample_normalization(self):
        out = ag.batch_norm1d(Tensor(np.array([[1.0], [3.0]])), Tensor(np.ones(1)),
                              Tensor(np.zeros(1)), *running_stats(1), training=True)
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-4)

    def test_running_stats_update_and_eval(self):
        mean, var = Tensor(np.array([0.5, -2.0])), Tensor(np.array([4.0, 0.25]))
        old_mean, old_var = mean.data, var.data
        x = RNG.normal(size=(8, 2, 6)) * 3 + 1
        ag.batch_norm1d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        mean, var, training=True)
        assert ag.BN_MOMENTUM == 0.1
        np.testing.assert_allclose(mean.data, 0.9 * old_mean + 0.1 * x.mean(axis=(0, 2)))
        np.testing.assert_allclose(var.data, 0.9 * old_var + 0.1 * x.var(axis=(0, 2)))
        out = ag.batch_norm1d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                              mean, var, training=False)
        expect = (x - mean.data[None, :, None]) / np.sqrt(var.data[None, :, None] + 1e-5)
        np.testing.assert_allclose(out.data, expect)

    def test_shape_mismatch(self):
        with pytest.raises(SleepStageError,
                           match=r"^batch_norm1d: gamma \(2,\) / beta \(2,\) vs 3 channels$"):
            ag.batch_norm1d(Tensor(np.zeros((2, 3, 4))), Tensor(np.ones(2)),
                            Tensor(np.zeros(2)), *running_stats(2), training=True)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(4, 3, 6), (5, 3)])
    def test_gradients(self, training, shape):
        x = Tensor(RNG.normal(size=shape), requires_grad=True)
        gamma = Tensor(RNG.uniform(0.5, 1.5, size=3), requires_grad=True)
        beta = Tensor(RNG.normal(size=3), requires_grad=True)
        stats = Tensor(RNG.normal(size=3)), Tensor(RNG.uniform(0.5, 2.0, size=3))
        check_grad(lambda: quadratic_probe(
            ag.batch_norm1d(x, gamma, beta, *stats, training=training)),
            [x, gamma, beta])

    def test_a_thread_that_left_rank_1_folds_again(self):
        """Only rank 0 of a replica group folds running stats, and `member`
        resets the rank on exit: a pool thread that served as replica 1 then
        folds a groupless training-mode batch norm."""
        mean, var = running_stats(2)
        x = RNG.normal(size=(4, 2, 5)) * 3 + 1

        def run():
            with ag.ReplicaGroup().member(1):
                pass
            ag.batch_norm1d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), mean, var,
                            training=True)

        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(run).result()
        np.testing.assert_allclose(mean.data, 0.1 * x.mean(axis=(0, 2)))
        np.testing.assert_allclose(var.data, 0.9 + 0.1 * x.var(axis=(0, 2)))


class TestSavedArrays:
    def test_batch_norm_frees_its_input(self):
        """Batch norm saves xhat and no reference to its input, so the conv
        output is freed once the caller drops it, while the graph still
        carries every gradient."""
        x = Tensor(RNG.normal(size=(3, 2, 12)), requires_grad=True)
        k = Tensor(RNG.normal(size=(4, 2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=4), requires_grad=True)
        gamma = Tensor(RNG.uniform(0.5, 1.5, size=4), requires_grad=True)
        beta = Tensor(RNG.normal(size=4), requires_grad=True)
        stats = running_stats(4)

        h = ag.conv1d(x, k, b, padding=1)
        freed = weakref.ref(h.data)
        y = ag.batch_norm1d(h, gamma, beta, *stats, training=True)
        del h
        gc.collect()
        assert freed() is None
        assert y.requires_grad
        check_grad(lambda: quadratic_probe(ag.batch_norm1d(
            ag.conv1d(x, k, b, padding=1), gamma, beta, *stats, training=True)),
            [x, k, b, gamma, beta])


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        tensor_sum(x).backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_half_sum_of_squares(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        loss = ag.mul(tensor_sum(ag.mul(x, x)), Tensor(0.5))
        loss.backward()
        np.testing.assert_allclose(x.grad, [1.0, -2.0])

    def test_non_scalar_loss(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(SleepStageError,
                           match=r"^backward\(\) needs a scalar, got shape \(3,\)$"):
            ag.mul(x, x).backward()

    def test_graph_consumed(self):
        x = Tensor(np.ones(2), requires_grad=True)
        loss = tensor_sum(ag.mul(x, x))
        loss.backward()
        with pytest.raises(SleepStageError, match=r"^backward\(\) already ran on this graph$"):
            loss.backward()

    def test_accumulation_through_shared_input(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        loss = tensor_sum(ag.add(ag.mul(x, x), x))  # d/dx = 2x + 1
        loss.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    @pytest.mark.parametrize("data,dtype", [
        (np.ones(3, dtype=np.float32), np.float32), (np.ones(3), np.float64),
        (np.ones(3, dtype=np.int32), np.float64), (np.ones(3, dtype=np.float16), np.float64),
        ([1, 2], np.float64), (2.5, np.float64)])
    def test_tensor_keeps_float32_and_float64(self, data, dtype):
        t = Tensor(data)
        assert t.data.dtype == dtype
        if isinstance(data, np.ndarray) and data.dtype == dtype:
            assert t.data is data

    def test_float32_ops_stay_float32(self):
        def f32(*shape):
            return Tensor(RNG.normal(size=shape).astype(np.float32))

        stats = [Tensor(t.data.astype(np.float32)) for t in running_stats(3)]
        h = ag.relu(ag.conv1d(f32(2, 3, 8), f32(3, 3, 3), f32(3), padding=1))
        h = ag.batch_norm1d(h, f32(3), f32(3), *stats, training=False)
        h = ag.soft_threshold(ag.absolute(h), Tensor(np.full((2, 3, 1), 0.1, dtype=np.float32)))
        pooled = ag.max_pool1d(h, 2)
        gate = ag.sigmoid(ag.linear(ag.global_avg_pool(pooled), f32(3, 3), f32(3)))
        for out in (ag.channel_pool(h), ag.concat([h, h]), ag.softmax(gate),
                    ag.add(pooled, ag.mul(pooled, ag.reshape(gate, (2, 3, 1))))):
            assert out.data.dtype == np.float32

    def test_float32_stays_float32_through_backward(self, monkeypatch):
        """Every op's output and every gradient stay float32 on float32 inputs,
        though weighted_ce_loss hands the logits a float64 gradient."""
        arrived = []  # (graph node, dtype of each gradient it receives)
        accumulate = ag._Node.accumulate_grad

        def spy(node, g):
            arrived.append((node, g.dtype))
            accumulate(node, g)

        monkeypatch.setattr(ag._Node, "accumulate_grad", spy)
        rng = np.random.default_rng(5)
        leaves = []

        def f32(*shape):
            leaves.append(Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True))
            return leaves[-1]

        x = f32(2, 3, 16)
        h = ag.conv1d(x, f32(4, 3, 3), f32(4), padding=1)
        h = ag.relu(ag.batch_norm1d(h, f32(4), f32(4), *running_stats(4), training=True))
        h = ag.max_pool1d(h, 2)  # [2,4,8]
        energy = ag.global_avg_pool(ag.absolute(h))  # [2,4]
        fc = ag.batch_norm1d(ag.linear(energy, f32(4, 4), f32(4)), f32(4), f32(4),
                             *running_stats(4), training=True)
        gate = ag.sigmoid(fc)
        tau = ag.reshape(ag.mul(gate, energy), (2, 4, 1))
        h2 = ag.soft_threshold(h, tau)
        beta = ag.sigmoid(ag.conv1d(ag.channel_pool(h2), f32(1, 2, 3), f32(1), padding=1))
        h3 = ag.relu(ag.add(ag.mul(h2, beta), h))
        both = ag.concat([h3, h2])  # [2,8,8]
        feats = ag.global_avg_pool(both)
        logits = ag.linear(feats, f32(8, 5), f32(5))
        logits = ag.add(logits, ag.softmax(logits))
        loss = weighted_ce_loss(logits, [0, 3], np.array([1.0, 2.0, 1.0, 1.5, 1.0]))
        loss.backward()

        assert np.dtype(np.float64) in [d for n, d in arrived if n is logits.node]
        nodes = {id(n): n for n, _ in arrived if n is not loss.node}  # the loss is float64
        assert all(id(t.node) in nodes for t in leaves)
        for n in nodes.values():  # a node's dtype is its tensor's value dtype
            assert n.dtype == np.float32 and n.grad.dtype == np.float32, n

    def test_shared_gradient_is_never_written(self):
        """The first gradient a tensor receives becomes its .grad without a copy,
        so one array can be the .grad of several tensors; a later gradient is
        added out of place and leaves the others' .grad alone."""
        g = np.array([1.0, 2.0])
        s, t = Tensor(np.zeros(2), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
        s.accumulate_grad(g)
        t.accumulate_grad(g)
        s.accumulate_grad(np.array([10.0, 10.0]))
        np.testing.assert_array_equal(s.grad, [11.0, 12.0])
        np.testing.assert_array_equal(t.grad, [1.0, 2.0])
        np.testing.assert_array_equal(g, [1.0, 2.0])

        # add hands one g to both parents, and each parent then gets a second one
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        w1, w2, w3 = (Tensor(np.array(v)) for v in ([1.0, 2.0], [10.0, 20.0], [100.0, 200.0]))
        loss = tensor_sum(ag.add(ag.add(ag.mul(ag.add(a, b), w1), ag.mul(a, w2)),
                                    ag.mul(b, w3)))
        loss.backward()
        np.testing.assert_array_equal(a.grad, [11.0, 22.0])
        np.testing.assert_array_equal(b.grad, [101.0, 202.0])
