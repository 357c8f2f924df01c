"""Class weights, the weighted loss against a loop oracle, Adam, train loop."""
import math

import numpy as np
import pytest

from sleepstage import autograd as ag
from sleepstage import training as tr
from sleepstage.autograd import Tensor
from sleepstage.edf import StageLabel
from sleepstage.errors import EmptySplit, MissingGradient, ZeroProportion
from sleepstage.training import (
    AdamState,
    TrainConfig,
    adam_step,
    class_weights,
    proportions_from_labels,
    train,
    weighted_ce_loss,
    write_training_log,
)

from helpers import micro_model_config, sine_epochs

RNG = np.random.default_rng(99)

# label shares of the Sleep-EDF corpus (W, N1, N2, N3, R), as published
SLEEP_EDF_SHARES = {"W": 0.528, "N1": 0.040, "N2": 0.238, "N3": 0.085, "R": 0.106}


def shares_by_code() -> np.ndarray:
    order = {"N3": 0, "N2": 1, "N1": 2, "R": 3, "W": 4}
    out = np.zeros(5)
    for name, share in SLEEP_EDF_SHARES.items():
        out[order[name]] = share
    return out


class TestClassWeights:
    def test_majority_class_clamps_to_one(self):
        w = class_weights(shares_by_code())
        assert w[StageLabel.W] == 1.0  # ln(1/0.528) = 0.639 clamps up

    def test_rare_class_log_weight(self):
        w = class_weights(shares_by_code())
        assert w[StageLabel.N1] == pytest.approx(math.log(1 / 0.040), abs=1e-12)
        assert w[StageLabel.N1] == pytest.approx(3.2189, abs=1e-4)

    def test_clamp_boundary_at_five(self):
        props = np.array([0.001, 0.3, 0.3, 0.2, 0.199])
        assert class_weights(props)[0] == 5.0  # ln(1000) = 6.9 clamps down

    def test_all_within_bounds(self):
        for _ in range(50):
            p = RNG.dirichlet(np.ones(5) * 0.3)
            if np.any(p == 0):
                continue
            w = class_weights(p).as_array()
            assert np.all(w >= 1.0) and np.all(w <= 5.0)

    def test_zero_proportion(self):
        with pytest.raises(ZeroProportion):
            class_weights(np.array([0.0, 0.25, 0.25, 0.25, 0.25]))

    def test_proportions_from_labels(self):
        labels = [0, 0, 1, 2, 3, 4, 4, 4, 4, 4]
        np.testing.assert_allclose(proportions_from_labels(labels),
                                   [0.2, 0.1, 0.1, 0.1, 0.5])
        with pytest.raises(ZeroProportion):
            proportions_from_labels([0, 1, 2, 3])  # no W at all


def loop_oracle_loss(logits: np.ndarray, labels, weights) -> float:
    """Direct transcription of the weighted batch loss, scalar math only."""
    total, weight_sum = 0.0, 0.0
    for x, c in zip(logits, labels):
        lse = math.log(sum(math.exp(v) for v in x))
        total += weights[int(c)] * (-x[int(c)] + lse)
        weight_sum += weights[int(c)]
    return total / weight_sum


class TestWeightedCELoss:
    def test_uniform_logits(self):
        w = class_weights(np.full(5, 0.2))
        loss = weighted_ce_loss(Tensor(np.zeros((1, 5))), [2], w)
        assert loss.item() == pytest.approx(math.log(5.0), abs=1e-12)

    def test_confident_correct_prediction(self):
        # weight 2 on the true class: per-sample 2*(-10 + ln(e^10 + 4)),
        # batch divides by the weight sum 2
        w = tr.ClassWeights(values=(2.0, 1.0, 1.0, 1.0, 1.0))
        logits = np.array([[10.0, 0.0, 0.0, 0.0, 0.0]])
        loss = weighted_ce_loss(Tensor(logits), [0], w)
        expect = -10.0 + math.log(math.exp(10.0) + 4.0)
        assert loss.item() == pytest.approx(expect, rel=1e-12)
        assert loss.item() == pytest.approx(1.8158e-4, rel=1e-3)

    def test_matches_loop_oracle(self):
        for trial in range(10):
            n = int(RNG.integers(1, 9))
            logits = RNG.normal(size=(n, 5)) * 3
            labels = RNG.integers(0, 5, size=n)
            weights = tr.ClassWeights(values=tuple(RNG.uniform(1, 5, size=5)))
            got = weighted_ce_loss(Tensor(logits), labels, weights).item()
            want = loop_oracle_loss(logits, labels, weights.values)
            assert got == pytest.approx(want, abs=1e-12)

    def test_constant_weights_reduce_to_mean_ce(self):
        logits = RNG.normal(size=(6, 5))
        labels = RNG.integers(0, 5, size=6)
        for const in (1.0, 3.7):
            w = tr.ClassWeights(values=(const,) * 5)
            got = weighted_ce_loss(Tensor(logits), labels, w).item()
            plain = loop_oracle_loss(logits, labels, [1.0] * 5)
            assert got == pytest.approx(plain, abs=1e-12)

    def test_non_negative(self):
        for _ in range(20):
            logits = RNG.normal(size=(4, 5)) * 10
            labels = RNG.integers(0, 5, size=4)
            w = tr.ClassWeights(values=tuple(RNG.uniform(1, 5, size=5)))
            assert weighted_ce_loss(Tensor(logits), labels, w).item() >= 0.0

    def test_gradient_matches_finite_differences(self):
        logits = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        labels = RNG.integers(0, 5, size=4)
        w = tr.ClassWeights(values=tuple(RNG.uniform(1, 5, size=5)))

        def build():
            return weighted_ce_loss(logits, labels, w)

        loss = build()
        loss.backward()
        numeric = ag.finite_difference_grad(build, logits)
        rel = np.abs(logits.grad - numeric) / np.maximum(1.0, np.abs(numeric))
        assert rel.max() < 1e-4

    def test_big_logits_stable(self):
        w = class_weights(np.full(5, 0.2))
        loss = weighted_ce_loss(Tensor(np.array([[800.0, -800.0, 0.0, 0.0, 0.0]])), [0], w)
        assert np.isfinite(loss.item())


def scalar_param(value: float):
    from sleepstage.autograd import ParamTensor
    return ParamTensor("x", np.array([value]))


class TestAdam:
    def test_zero_gradient_fresh_state_no_move(self):
        p = scalar_param(1.5)
        state = AdamState([p])
        p.grad = np.zeros(1)
        adam_step([p], state, TrainConfig())
        assert p.data[0] == 1.5
        assert state.step == 1

    def test_first_step_is_signed_learning_rate(self):
        cfg = TrainConfig(learning_rate=0.0005)
        for g in (0.3, -2.0, 17.0):
            p = scalar_param(1.0)
            state = AdamState([p])
            p.grad = np.array([g])
            adam_step([p], state, cfg)
            # bias-corrected m/sqrt(v) is exactly sign(g) at t=1 (up to eps)
            assert p.data[0] - 1.0 == pytest.approx(-cfg.learning_rate * np.sign(g),
                                                    rel=1e-6)

    def test_quadratic_bowl_converges(self):
        cfg = TrainConfig(learning_rate=0.0005)
        p = scalar_param(1.0)
        state = AdamState([p])
        magnitudes = [1.0]
        for _ in range(500):
            p.grad = 2.0 * p.data  # d/dx x^2
            adam_step([p], state, cfg)
            magnitudes.append(abs(float(p.data[0])))
        # strictly decreasing envelope: each 50-step window tops the next
        windows = [max(magnitudes[i:i + 50]) for i in range(0, 500, 50)]
        assert all(a > b for a, b in zip(windows, windows[1:]))
        assert magnitudes[-1] < 1.0

    def test_missing_gradient(self):
        p = scalar_param(1.0)
        state = AdamState([p])
        with pytest.raises(MissingGradient):
            adam_step([p], state, TrainConfig())


def tiny_dataset(n=30, length=64):
    return sine_epochs(n, seed=12, length=length, rate=length / 30.0)


class TestTrainLoop:
    def test_overlapping_split_rejected(self):
        epochs = tiny_dataset()
        with pytest.raises(EmptySplit):
            train(epochs, [0, 1, 2], [2, 3], TrainConfig(max_passes=1),
                  micro_model_config())

    def test_empty_split_rejected(self):
        epochs = tiny_dataset()
        with pytest.raises(EmptySplit):
            train(epochs, [], [1], TrainConfig(max_passes=1), micro_model_config())

    def test_two_runs_same_seed_bitwise_identical(self):
        epochs = tiny_dataset()
        idx = np.arange(len(epochs))
        cfg = TrainConfig(max_passes=2, seed=7, batch_size=4)
        results = [
            train(epochs, idx[:20], idx[20:], cfg, micro_model_config(),
                  augment_cfg=None)
            for _ in range(2)
        ]
        losses = [[row.train_loss for row in r.log] for r in results]
        assert losses[0] == losses[1]
        for name in results[0].params.params:
            np.testing.assert_array_equal(results[0].params[name].data,
                                          results[1].params[name].data)

    def test_augmented_runs_reproducible(self):
        from sleepstage.preprocess import AugmentConfig
        epochs = tiny_dataset()
        idx = np.arange(len(epochs))
        cfg = TrainConfig(max_passes=1, seed=3, batch_size=4)
        aug = AugmentConfig(rng_seed=3)
        r1 = train(epochs, idx[:20], idx[20:], cfg, micro_model_config(), augment_cfg=aug)
        r2 = train(epochs, idx[:20], idx[20:], cfg, micro_model_config(), augment_cfg=aug)
        assert [x.train_loss for x in r1.log] == [x.train_loss for x in r2.log]

    def test_augmentation_never_touches_validation(self, monkeypatch):
        from sleepstage.preprocess import AugmentConfig
        epochs = tiny_dataset()
        idx = np.arange(len(epochs))
        train_idx, val_idx = idx[:20], idx[20:]
        touched = []
        original = tr.augment

        def spy(epoch, cfg, rng):
            touched.append(epoch.epoch_index)
            return original(epoch, cfg, rng)

        monkeypatch.setattr(tr, "augment", spy)
        train(epochs, train_idx, val_idx, TrainConfig(max_passes=2, batch_size=4),
              micro_model_config(), augment_cfg=AugmentConfig(rng_seed=1))
        assert touched, "augmentation never ran on the training stream"
        assert set(touched).issubset(set(int(i) for i in train_idx))

    def test_best_checkpoint_retained_by_kappa(self):
        epochs = tiny_dataset()
        idx = np.arange(len(epochs))
        result = train(epochs, idx[:20], idx[20:], TrainConfig(max_passes=3, batch_size=4),
                       micro_model_config())
        kappas = [row.val_kappa for row in result.log]
        assert result.best_kappa == max(k for k in kappas if k is not None)
        assert result.log[result.best_pass - 1].val_kappa == result.best_kappa

    def test_log_csv_layout(self, tmp_path):
        epochs = tiny_dataset()
        idx = np.arange(len(epochs))
        result = train(epochs, idx[:20], idx[20:], TrainConfig(max_passes=1, batch_size=4),
                       micro_model_config())
        path = tmp_path / "log.csv"
        write_training_log(result.log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "pass,step,train_loss,val_overall_acc,val_kappa,val_macro_f1"
        assert len(lines) == 2
        first = lines[1].split(",")
        assert first[0] == "1" and int(first[1]) == 5  # 20 epochs / batch 4
