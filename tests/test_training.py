"""Class weights, the weighted loss against a loop oracle, Adam, train loop."""
import dataclasses
import gc
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sleepstage import autograd as ag
from sleepstage import evaluation, parallel
from sleepstage import training as tr
from sleepstage.autograd import Tensor
from sleepstage.edf import StageLabel
from sleepstage.errors import DataError, EmptySplit, SleepStageError
from sleepstage.model import ModelConfig, ModelParams, init_params, model_forward
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

from helpers import (
    batch_norms,
    finite_difference_grad,
    micro_model_config,
    randomize_batch_norms,
    sine_epochs,
    use_reference_forward,
)

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
            w = class_weights(p)
            assert np.all(w >= 1.0) and np.all(w <= 5.0)

    def test_zero_proportion(self):
        with pytest.raises(DataError, match=r"^non-positive class proportion in \[0\. "):
            class_weights(np.array([0.0, 0.25, 0.25, 0.25, 0.25]))

    def test_proportions_from_labels(self):
        labels = [0, 0, 1, 2, 3, 4, 4, 4, 4, 4]
        np.testing.assert_allclose(proportions_from_labels(labels),
                                   [0.2, 0.1, 0.1, 0.1, 0.5])
        with pytest.raises(DataError,
                           match=r"^training split lacks examples of some stage \(counts \[1 1 1 1 0\]\)$"):
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
        w = np.array([2.0, 1.0, 1.0, 1.0, 1.0])
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
            weights = RNG.uniform(1, 5, size=5)
            got = weighted_ce_loss(Tensor(logits), labels, weights).item()
            want = loop_oracle_loss(logits, labels, weights)
            assert got == pytest.approx(want, abs=1e-12)

    def test_constant_weights_reduce_to_mean_ce(self):
        logits = RNG.normal(size=(6, 5))
        labels = RNG.integers(0, 5, size=6)
        for const in (1.0, 3.7):
            w = np.full(5, const)
            got = weighted_ce_loss(Tensor(logits), labels, w).item()
            plain = loop_oracle_loss(logits, labels, [1.0] * 5)
            assert got == pytest.approx(plain, abs=1e-12)

    def test_non_negative(self):
        for _ in range(20):
            logits = RNG.normal(size=(4, 5)) * 10
            labels = RNG.integers(0, 5, size=4)
            w = RNG.uniform(1, 5, size=5)
            assert weighted_ce_loss(Tensor(logits), labels, w).item() >= 0.0

    def test_gradient_matches_finite_differences(self):
        logits = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        labels = RNG.integers(0, 5, size=4)
        w = RNG.uniform(1, 5, size=5)

        def build():
            return weighted_ce_loss(logits, labels, w)

        loss = build()
        loss.backward()
        numeric = finite_difference_grad(build, logits)
        rel = np.abs(logits.grad - numeric) / np.maximum(1.0, np.abs(numeric))
        assert rel.max() < 1e-4

    def test_big_logits_stable(self):
        w = class_weights(np.full(5, 0.2))
        loss = weighted_ce_loss(Tensor(np.array([[800.0, -800.0, 0.0, 0.0, 0.0]])), [0], w)
        assert np.isfinite(loss.item())


def scalar_param(value: float) -> Tensor:
    return Tensor(np.array([value]), requires_grad=True)


class TestAdam:
    def test_zero_gradient_fresh_state_no_move(self):
        p = scalar_param(1.5)
        state = AdamState({"x": p})
        p.accumulate_grad(np.zeros(1))
        adam_step({"x": p}, state, TrainConfig())
        assert p.data[0] == 1.5
        assert state.step == 1

    def test_first_step_is_signed_learning_rate(self):
        cfg = TrainConfig(learning_rate=0.0005)
        for g in (0.3, -2.0, 17.0):
            p = scalar_param(1.0)
            state = AdamState({"x": p})
            p.accumulate_grad(np.array([g]))
            adam_step({"x": p}, state, cfg)
            # bias-corrected m/sqrt(v) is exactly sign(g) at t=1 (up to eps)
            assert p.data[0] - 1.0 == pytest.approx(-cfg.learning_rate * np.sign(g),
                                                    rel=1e-6)

    def test_quadratic_bowl_converges(self):
        cfg = TrainConfig(learning_rate=0.0005)
        p = scalar_param(1.0)
        state = AdamState({"x": p})
        magnitudes = [1.0]
        for _ in range(500):
            p.zero_grad()
            p.accumulate_grad(2.0 * p.data)  # d/dx x^2
            adam_step({"x": p}, state, cfg)
            magnitudes.append(abs(float(p.data[0])))
        # strictly decreasing envelope: each 50-step window tops the next
        windows = [max(magnitudes[i:i + 50]) for i in range(0, 500, 50)]
        assert all(a > b for a, b in zip(windows, windows[1:]))
        assert magnitudes[-1] < 1.0

    def test_missing_gradient(self):
        p = scalar_param(1.0)
        state = AdamState({"x": p})
        with pytest.raises(SleepStageError, match="^parameter 'x' has no gradient$"):
            adam_step({"x": p}, state, TrainConfig())


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
            train(epochs, idx[:20], idx[20:], cfg, micro_model_config())
            for _ in range(2)
        ]
        losses = [[row.train_loss for row in r.log] for r in results]
        assert losses[0] == losses[1]
        for name in results[0].params.tensors:
            np.testing.assert_array_equal(results[0].params[name].data,
                                          results[1].params[name].data)

    def test_matches_float64_reference_forward(self, monkeypatch):
        """Per-pass losses and final state equal a run whose forward uses the
        reference relu, max pool and concat-then-pool; the float32 validation
        between passes leaves the trained model alone."""
        from sleepstage.preprocess import AugmentConfig
        epochs = tiny_dataset()
        idx = np.arange(len(epochs))
        cfg = TrainConfig(max_passes=3, seed=5, batch_size=4)

        def run():
            return train(epochs, idx[:20], idx[20:], cfg, micro_model_config(),
                         augment_cfg=AugmentConfig(rng_seed=5))

        fast = run()
        use_reference_forward(monkeypatch)
        reference = run()
        assert [r.train_loss for r in fast.log] == [r.train_loss for r in reference.log]
        expect = reference.final_params.state_arrays()
        for name, a in fast.final_params.state_arrays().items():
            assert a.dtype == np.float64 and a.tobytes() == expect[name].tobytes(), name

    def test_augmented_runs_reproducible(self):
        from sleepstage.preprocess import AugmentConfig
        epochs = tiny_dataset()
        idx = np.arange(len(epochs))
        cfg = TrainConfig(max_passes=1, seed=3, batch_size=4)
        aug = AugmentConfig(rng_seed=3)
        r1 = train(epochs, idx[:20], idx[20:], cfg, micro_model_config(), augment_cfg=aug)
        r2 = train(epochs, idx[:20], idx[20:], cfg, micro_model_config(), augment_cfg=aug)
        assert [x.train_loss for x in r1.log] == [x.train_loss for x in r2.log]

    def test_zero_strength_augmentation_trains_like_none(self, monkeypatch):
        """Augmentation with both strengths at 0, the default, trains to the
        bytes of a run whose rows are not augmented at all, so turning it off
        needs no switch of its own."""
        from sleepstage.preprocess import AugmentConfig
        epochs = tiny_dataset()
        idx = np.arange(len(epochs))
        cfg = TrainConfig(max_passes=2, seed=3, batch_size=4)
        off = AugmentConfig(flip_probability=0.0, noise_fraction=0.0, rng_seed=3)
        runs = [train(epochs, idx[:20], idx[20:], cfg, micro_model_config()),
                train(epochs, idx[:20], idx[20:], cfg, micro_model_config(), augment_cfg=off)]
        calls = []
        monkeypatch.setattr(tr, "augment", lambda samples, aug, rng: calls.append(aug) or samples)
        runs.append(train(epochs, idx[:20], idx[20:], cfg, micro_model_config(),
                          augment_cfg=off))
        assert calls == [off] * 40  # 20 rows a pass, 2 passes
        for run in runs[:2]:
            assert [r.train_loss for r in run.log] == [r.train_loss for r in runs[2].log]
            assert state_bytes(run) == state_bytes(runs[2])

    def test_augmentation_never_touches_validation(self, monkeypatch):
        from sleepstage.preprocess import AugmentConfig
        epochs = tiny_dataset()
        idx = np.arange(len(epochs))
        train_idx, val_idx = idx[:20], idx[20:]
        touched = []
        original = tr.augment

        def spy(samples, cfg, rng):  # a row is known by its samples
            touched.extend(np.flatnonzero((epochs.samples == samples).all(axis=1)).tolist())
            return original(samples, cfg, rng)

        monkeypatch.setattr(tr, "augment", spy)
        train(epochs, train_idx, val_idx, TrainConfig(max_passes=2, batch_size=4),
              micro_model_config(), augment_cfg=AugmentConfig(rng_seed=1))
        assert touched, "augmentation never ran on the training stream"
        assert set(touched).issubset(set(int(i) for i in train_idx))
        assert sorted(touched) == sorted(train_idx.tolist() * 2)  # each row once a pass

    def test_best_checkpoint_retained_by_kappa(self):
        epochs = tiny_dataset()
        idx = np.arange(len(epochs))
        result = train(epochs, idx[:20], idx[20:], TrainConfig(max_passes=3, batch_size=4),
                       micro_model_config())
        kappas = [row.val_kappa for row in result.log]
        assert result.best_kappa == max(k for k in kappas if k is not None)
        assert result.log[result.best_pass - 1].val_kappa == result.best_kappa

    @pytest.mark.parametrize("kappa_defined", [True, False],
                             ids=["best-kappa", "kappa-undefined"])
    def test_result_carries_validation_of_kept_params(self, kappa_defined, monkeypatch):
        if not kappa_defined:  # forces the fallback to the last pass
            summary = evaluation.summary_metrics
            monkeypatch.setattr(evaluation, "summary_metrics",
                                lambda cm: dataclasses.replace(summary(cm), kappa=None))
        epochs = tiny_dataset()
        idx = np.arange(len(epochs))
        result = train(epochs, idx[:20], idx[20:], TrainConfig(max_passes=3, batch_size=4),
                       micro_model_config())
        assert math.isnan(result.best_kappa) != kappa_defined
        fresh = evaluation.evaluate(result.params, epochs, idx[20:])
        np.testing.assert_array_equal(result.validation.probabilities, fresh.probabilities)
        assert result.validation.cm == fresh.cm
        np.testing.assert_array_equal(result.validation.y_true, fresh.y_true)
        np.testing.assert_array_equal(result.validation.y_pred, fresh.y_pred)

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


def spy_adam_steps(monkeypatch) -> list:
    """Record (gradient copies by name, Adam state) for each `adam_step` call."""
    steps = []
    original = tr.adam_step

    def spy(params, state, cfg):
        steps.append(({name: p.grad.copy() for name, p in params.items()}, state))
        original(params, state, cfg)

    monkeypatch.setattr(tr, "adam_step", spy)
    return steps


class TestGradientReach:
    def test_every_learnable_array_of_the_default_model_gets_a_gradient(self):
        """On one float64 batch of the default model, each learnable array's
        largest gradient exceeds 1e-12: none learns only from rounding noise,
        as a bias that a batch norm's mean subtraction cancels would."""
        epochs = sine_epochs(8, seed=0)
        mp = init_params(ModelConfig(), seed=0)
        x = Tensor(epochs.samples.astype(np.float64)[:, None, :])
        weights = class_weights(proportions_from_labels(epochs.labels))
        weighted_ce_loss(model_forward(mp, x, training=True), epochs.labels, weights).backward()
        largest = {name: float(np.abs(p.grad).max()) for name, p in mp.parameters().items()}
        assert {name: g for name, g in largest.items() if not g > 1e-12} == {}


class TestMixedPrecision:
    """Each step runs forward and backward in float32 on a working copy; the
    float64 master weights, Adam moments and running stats take the update."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_step_matches_float64_step(self, seed, monkeypatch):
        epochs = sine_epochs(10, seed=seed)
        train_idx, val_idx = np.arange(8), np.arange(8, 10)
        initial = init_params(ModelConfig(), seed=seed)
        forwards = []
        forward = tr.model_forward

        def spy_forward(mp, x, training=False):
            forwards.append((mp, x.data.shape[0], x.data.dtype))
            return forward(mp, x, training)

        monkeypatch.setattr(tr, "model_forward", spy_forward)
        steps = spy_adam_steps(monkeypatch)
        result = train(epochs, train_idx, val_idx,
                       TrainConfig(batch_size=8, max_passes=1, seed=seed), ModelConfig(),
                       initial=initial)
        # two 4-row float32 forwards, one on each float32 replica
        [(work0, *shape0), (work1, *shape1)] = forwards
        assert shape0 == shape1 == [4, np.float32] and work0 is not work1
        for work in (work0, work1):
            assert all(p.data.dtype == p.grad.dtype == np.float32
                       for p in work.parameters().values())
        [(grads, _)] = steps

        # the same step in float64 on the master weights
        reference = initial.copy()
        x = Tensor(epochs.samples[train_idx].astype(np.float64)[:, None, :])
        weights = class_weights(proportions_from_labels(epochs.labels[train_idx]))
        loss = weighted_ce_loss(model_forward(reference, x, training=True),
                                epochs.labels[train_idx], weights)
        loss.backward()
        assert result.log[0].train_loss == pytest.approx(loss.item(), rel=1e-4)
        # the float32 batch statistics reach the master's float64 running stats
        for name in batch_norms(reference):
            for stat in (f"{name}.running_mean", f"{name}.running_var"):
                np.testing.assert_allclose(result.final_params[stat].data, reference[stat].data,
                                           rtol=1e-4, atol=1e-6)
        # One global bound over every learnable array. Rounding alone
        # leaves a ~1e-6 gap. A max-pool window whose two
        # largest values differ by less than float32 resolution can route
        # its gradient to the other index; with seed 1 one such window, in
        # block 0's pool, moves the global gradient by 3.1e-3.
        diff = sum(np.sum((grads[name] - p.grad) ** 2)
                   for name, p in reference.parameters().items())
        norm = sum(np.sum(p.grad ** 2) for p in reference.parameters().values())
        assert norm > 0 and np.sqrt(diff / norm) <= 1e-2

    def test_master_state_stays_float64(self, monkeypatch):
        steps = spy_adam_steps(monkeypatch)
        epochs = tiny_dataset()
        idx = np.arange(len(epochs))
        result = train(epochs, idx[:20], idx[20:], TrainConfig(max_passes=2, batch_size=4),
                       micro_model_config())
        assert len(steps) == 10
        for grads, _ in steps:
            assert all(g.dtype == np.float64 for g in grads.values())
        state = steps[-1][1]
        for name in state.m:
            assert state.m[name].dtype == state.v[name].dtype == np.float64, name
        for mp in (result.params, result.final_params):
            assert all(p.data.dtype == np.float64 for p in mp.parameters().values())
            for s in batch_norms(mp):
                assert (mp[f"{s}.running_mean"].data.dtype == mp[f"{s}.running_var"].data.dtype
                        == np.float64)
            for name, a in mp.state_arrays().items():
                assert a.dtype == np.float64, name

    def test_nan_row_stops_the_run_before_the_update(self, monkeypatch):
        epochs = tiny_dataset()
        epochs.samples[7] = np.nan  # a training row
        idx = np.arange(len(epochs))
        initial = init_params(micro_model_config(), seed=0)
        before = {name: a.copy() for name, a in initial.state_arrays().items()}
        steps = spy_adam_steps(monkeypatch)
        with pytest.raises(SleepStageError, match="^training stopped at pass 1, step ") as exc:
            train(epochs, idx[:20], idx[20:], TrainConfig(max_passes=2, batch_size=4),
                  micro_model_config(), initial=initial)
        assert f"pass 1, step {len(steps) + 1}: loss nan" in str(exc.value)
        for grads, state in steps:  # the steps before the NaN batch updated normally
            assert state.step == len(steps)
            assert all(np.isfinite(g).all() for g in grads.values())
        for name, a in initial.state_arrays().items():
            assert a.tobytes() == before[name].tobytes(), name


def relative_l2(got, want) -> float:
    """Global relative L2 distance of two equal-length lists of arrays."""
    diff = sum(np.sum((g - w) ** 2) for g, w in zip(got, want))
    return float(np.sqrt(diff / sum(np.sum(w ** 2) for w in want)))


def state_bytes(result) -> dict:
    """The bytes a checkpoint holds, of the kept and of the final model."""
    return {(kind, name): a.tobytes()
            for kind, mp in (("kept", result.params), ("final", result.final_params))
            for name, a in mp.state_arrays().items()}


def default_replica_loss():
    """A builder of one 4-row default-model training loss on a float32
    replica, made as `train` makes its replicas."""
    mp = init_params(ModelConfig(), seed=0)
    work = ModelParams(mp.cfg, mp.tensors | {
        n: Tensor(p.data.astype(np.float32), requires_grad=True)
        for n, p in mp.parameters().items()})
    x = np.random.default_rng(0).normal(size=(4, 1, 3000)).astype(np.float32)
    weights = class_weights(np.full(5, 0.2))
    return lambda: weighted_ce_loss(model_forward(work, Tensor(x), training=True),
                                    [0, 1, 2, 3], weights)


class TestStepMemory:
    """A recorded graph keeps only the arrays its backward reads."""

    def test_training_forward_holds_at_most_30_mib(self):
        # every full-width activation kept would be ~66 MiB
        build = default_replica_loss()
        build()  # first-call caches stay out of the figure
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = build()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert loss.requires_grad
        assert held <= 30 * 2**20, f"the graph holds {held / 2**20:.1f} MiB"

    def test_no_backward_closure_holds_a_tensor(self):
        """A closure that captured a Tensor would keep its forward array alive
        for as long as the graph lives; closures capture nodes and arrays."""
        stack, seen, closures = [default_replica_loss()().node], set(), 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node.parents)
            if node.backward_fn is None:
                continue
            closures += 1
            for cell in node.backward_fn.__closure__ or ():
                try:
                    value = cell.cell_contents
                except ValueError:  # a name the op binds only when it records
                    continue
                held = value if isinstance(value, (list, tuple)) else [value]
                assert not any(isinstance(v, Tensor) for v in held), \
                    f"{node.backward_fn.__qualname__} holds a Tensor"
        assert closures > 90  # the default model and its loss record 99 ops


class TestReplicas:
    """Each step splits its batch between two replicas, replica 0 in the
    calling thread and replica 1 on a pool worker; batch norm pools their
    statistics, so a step computes the one-batch step."""

    @pytest.mark.parametrize("n_rows", [8, 7, 1])
    def test_synced_step_equals_one_graph_step_in_float64(self, n_rows, two_workers):
        epochs = sine_epochs(10, seed=3)
        initial = randomize_batch_norms(init_params(ModelConfig(), seed=3),
                                        np.random.default_rng(3))
        batch = np.arange(n_rows)
        weights = np.array([1.0, 2.5, 5.0, 1.5, 3.0])

        reference = initial.copy()
        x = Tensor(epochs.samples[batch].astype(np.float64)[:, None, :])
        loss = weighted_ce_loss(model_forward(reference, x, training=True),
                                epochs.labels[batch], weights)
        loss.backward()

        replicas = [initial.copy(), initial.copy()]
        with parallel.pool() as pool:
            got = tr.synced_step(pool, replicas, batch,
                                 lambda share: epochs.samples[share].astype(np.float64),
                                 epochs.labels, weights)
        assert got == pytest.approx(loss.item(), rel=1e-10, abs=0)
        names = sorted(batch_norms(reference))
        for kind in ("mean", "var"):
            assert relative_l2([replicas[0][f"{n}.running_{kind}"].data for n in names],
                               [reference[f"{n}.running_{kind}"].data for n in names]) <= 1e-10
        # one global bound over every learnable array
        params = list(reference.parameters())
        summed = [replicas[0][n].grad + replicas[1][n].grad for n in params]
        assert relative_l2(summed, [reference[n].grad for n in params]) <= 1e-10

    @pytest.mark.parametrize("n_rows", [8, 7, 1])
    def test_shared_running_stats_take_one_fold(self, n_rows, two_workers):
        """Replicas built as `train` builds them share the master's running
        tensors, and rank 0 alone folds the pooled statistics into them: they
        take the one-graph update, where a fold by each rank would apply the
        momentum twice."""
        epochs = sine_epochs(10, seed=3)
        master = randomize_batch_norms(init_params(ModelConfig(), seed=3),
                                       np.random.default_rng(3))
        batch = np.arange(n_rows)
        reference = master.copy()
        model_forward(reference, Tensor(epochs.samples[batch].astype(np.float64)[:, None, :]),
                      training=True)

        work = {name: Tensor(p.data.copy(), requires_grad=True)
                for name, p in master.parameters().items()}
        replicas = [ModelParams(master.cfg, master.tensors | work),
                    ModelParams(master.cfg, master.tensors | {
                        name: Tensor(p.data, requires_grad=True) for name, p in work.items()})]
        with parallel.pool() as pool:
            tr.synced_step(pool, replicas, batch,
                           lambda share: epochs.samples[share].astype(np.float64),
                           epochs.labels, np.ones(5))
        names = sorted(batch_norms(master))
        for kind in ("mean", "var"):
            assert relative_l2([master[f"{n}.running_{kind}"].data for n in names],
                               [reference[f"{n}.running_{kind}"].data for n in names]) <= 1e-10

    def test_bytes_do_not_depend_on_the_pool(self, worker_pool, openblas_threads,
                                             monkeypatch):
        """A pool of two workers, of one, and no BLAS setter found give the
        same bytes. OpenBLAS's sums can depend on its thread count, which a
        run holds at one thread where the setter is found; without the
        setter the run keeps the process's count, held at one here by hand."""
        from sleepstage.preprocess import AugmentConfig
        set_threads = openblas_threads[1]
        epochs = sine_epochs(24, seed=8)
        idx = np.arange(len(epochs))
        threads = []
        forward = tr.model_forward

        def spy_forward(mp, x, training=False):
            threads.append(threading.current_thread())
            return forward(mp, x, training)

        monkeypatch.setattr(tr, "model_forward", spy_forward)
        runs = []
        for workers, blas, count in ((2, openblas_threads, 2), (1, openblas_threads, 2),
                                     (2, None, 1)):
            worker_pool(workers)
            monkeypatch.setattr(parallel, "openblas_thread_calls", lambda blas=blas: blas)
            set_threads(count)
            threads.clear()
            # 19 rows at batch 8: the last batch splits into 2 and 1 rows
            runs.append(state_bytes(train(
                epochs, idx[:19], idx[19:], TrainConfig(max_passes=2, batch_size=8, seed=4),
                ModelConfig(), augment_cfg=AugmentConfig(rng_seed=4))))
            # each of the 6 steps forwards once in the calling thread, once on a worker
            assert len(threads) == 12 and threads.count(threading.main_thread()) == 6
        assert runs[0] == runs[1] == runs[2]

    def test_one_row_last_batch_leaves_replica_1_empty(self, two_workers, monkeypatch):
        epochs = tiny_dataset(50)
        idx = np.arange(len(epochs))
        shares = []
        forward = tr.model_forward

        def spy_forward(mp, x, training=False):
            shares.append(x.shape[0])
            return forward(mp, x, training)

        parts = {0: [], 1: []}
        allgather = ag.ReplicaGroup.allgather

        def spy_allgather(group, rank, part):
            parts[rank].append(part)
            return allgather(group, rank, part)

        monkeypatch.setattr(tr, "model_forward", spy_forward)
        monkeypatch.setattr(ag.ReplicaGroup, "allgather", spy_allgather)
        steps = spy_adam_steps(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the filters are process-wide
            result = train(epochs, idx[:41], idx[41:], TrainConfig(max_passes=1, batch_size=8),
                           micro_model_config())
        assert len(steps) == 6 and sorted(shares[-2:]) == [0, 1]
        # replica 1's gathers in the last step: zero counts, zero sums
        per_step = len(parts[1]) // 6
        assert per_step and len(parts[0]) == len(parts[1])
        assert any(len(part) == 3 for part in parts[1][-per_step:])
        for part in parts[1][-per_step:]:
            # forward (count, mean, M2) and backward (sum g, sum g*xhat) alike
            assert not any(np.any(a) for a in part)
        assert np.isfinite(result.log[0].train_loss)
        for grads, _ in steps:
            assert all(np.isfinite(g).all() for g in grads.values())
        for a in result.final_params.state_arrays().values():
            assert np.isfinite(a).all()

    def test_exception_in_a_replica_reaches_the_caller(self):
        """In a child process with a timeout, so that a replica left waiting
        at a barrier fails the test instead of hanging the suite."""
        code = textwrap.dedent("""
            import itertools, threading
            import numpy as np
            from sleepstage import autograd as ag, parallel, training as tr
            from helpers import micro_model_config, sine_epochs

            epochs = sine_epochs(30, seed=12, length=64, rate=64 / 30.0)
            idx = np.arange(30)
            blas = parallel.openblas_thread_calls()
            if blas is None:  # a stand-in count keeps the restore under test
                count = [1]
                blas = (lambda: count[0], lambda n: count.__setitem__(0, n))
                parallel.openblas_thread_calls = lambda: blas
            blas[1](2)
            batch_norm = ag.batch_norm1d

            def run():
                return tr.train(epochs, idx[:20], idx[20:],
                                tr.TrainConfig(max_passes=2, batch_size=8),
                                micro_model_config())

            for in_main in (False, True):
                calls = itertools.count()

                def failing(*args, **kwargs):
                    # the 3rd batch norm of the 2nd step, in one replica only;
                    # the other waits for it at that batch norm's barrier
                    if (threading.current_thread() is threading.main_thread()) == in_main:
                        if next(calls) == 17:
                            raise ZeroDivisionError("replica failed")
                    return batch_norm(*args, **kwargs)

                ag.batch_norm1d = failing
                try:
                    run()
                    print("no-error")
                except BaseException as exc:
                    print(type(exc).__name__)
                print(blas[0]())
                ag.batch_norm1d = batch_norm
                print(len(run().log))
            """)
        tests = Path(__file__).parent
        src = Path(ag.__file__).parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["ZeroDivisionError", "2", "2"] * 2, out.stdout
