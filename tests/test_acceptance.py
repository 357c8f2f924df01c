"""Acceptance suite: eight gate criteria, one reported line apiece.

Criterion 1 note: a few published per-stage values are arithmetically
inconsistent with their own published confusion matrix (verified here by an
exact-fraction oracle). For those cells this suite asserts that the package
matches exact arithmetic and that the printed value really is off; every
other printed value must reproduce within +-0.01 percentage points
(+-0.0005 for the dimensionless kappa / macro-F1).
"""
import json
import math
import time

import numpy as np
import pytest

import reference_results as ref
from helpers import (
    ACCEPTANCE_LINES,
    build_corpus_recording,
    finite_difference_grad,
    from_display,
    micro_model_config,
    running_stats,
    sine_epochs,
    tensor_sum,
)

from sleepstage import autograd as ag
from sleepstage import cli, evaluation
from sleepstage.autograd import Tensor
from sleepstage.edf import StageLabel, parse_edf, serialize_edf
from sleepstage.evaluation import (
    ConfusionMatrix,
    holdout_split,
    kfold_split,
    stage_metrics,
    summary_metrics,
)
from sleepstage.model import ModelConfig, init_params, model_forward
from sleepstage.preprocess import compute_stats, normalize
from sleepstage.training import (
    AdamState,
    TrainConfig,
    adam_step,
    class_weights,
    train,
    weighted_ce_loss,
)

RNG = np.random.default_rng(2024)
STAGE_BY_NAME = {s.name: s for s in StageLabel}
PCT_TOL = 0.0100001
DIMLESS_TOL = 0.0005


def report(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_1_metrics_oracle_vs_published_tables():
    started = time.perf_counter()
    matched = 0
    source_inconsistent: list[str] = []

    for bench, (display_cm, stage_table, summary) in sorted(ref.BENCHMARKS.items()):
        cm = from_display(display_cm)
        for stage in ref.DISPLAY_ROWS:
            exact = ref.exact_stage_values(display_cm, stage)
            got = stage_metrics(cm, STAGE_BY_NAME[stage])
            for metric in ("accuracy", "recall", "precision", "f1"):
                value = getattr(got, metric)
                printed = stage_table[stage][("accuracy", "recall", "precision",
                                              "f1").index(metric)]
                # the implementation must always agree with exact arithmetic
                assert value == pytest.approx(float(exact[metric]), abs=1e-9)
                if (bench, stage, metric) in ref.INCONSISTENT_CELLS:
                    # the published number itself is off; prove it and move on
                    assert abs(float(exact[metric]) - printed) > PCT_TOL
                    source_inconsistent.append(f"{bench}:{stage}:{metric}")
                else:
                    assert value == pytest.approx(printed, abs=PCT_TOL), \
                        f"{bench} {stage} {metric}"
                    matched += 1

        got = summary_metrics(cm)
        exact = ref.exact_summary_values(display_cm)
        printed_by_field = dict(zip(
            ("mean_recall", "mean_accuracy", "overall_accuracy", "kappa", "macro_f1"),
            summary))
        for field, printed in printed_by_field.items():
            value = getattr(got, field)
            assert value == pytest.approx(float(exact[field]), abs=1e-9)
            tol = DIMLESS_TOL if field in ("kappa", "macro_f1") else PCT_TOL
            if (bench, field) in ref.INCONSISTENT_SUMMARY:
                assert abs(float(exact[field]) - printed) > tol
                source_inconsistent.append(f"{bench}:{field}")
            else:
                assert value == pytest.approx(printed, abs=tol), f"{bench} {field}"
                matched += 1

    # the headline summary values named by the gate, asserted explicitly
    edf = summary_metrics(from_display(ref.SLEEP_EDF_5FOLD_CM))
    assert edf.overall_accuracy == pytest.approx(91.74, abs=PCT_TOL)
    assert edf.kappa == pytest.approx(0.8723, abs=DIMLESS_TOL)
    assert edf.macro_f1 == pytest.approx(0.8231, abs=DIMLESS_TOL)
    assert edf.mean_accuracy == pytest.approx(96.70, abs=PCT_TOL)
    edfx = summary_metrics(from_display(ref.SLEEP_EDFX_HOLDOUT_CM))
    assert edfx.overall_accuracy == pytest.approx(88.38, abs=PCT_TOL)
    assert edfx.kappa == pytest.approx(0.7963, abs=DIMLESS_TOL)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(f"ACCEPTANCE 1: PASS - {matched} published values reproduced within "
           f"rounding in {elapsed:.3f}s; {len(source_inconsistent)} cells are "
           f"internally inconsistent in the source tables (package matches exact "
           f"arithmetic there): {', '.join(source_inconsistent)}")


def _fd_check(build_loss, params, h=1e-4, tol=1e-4):
    loss = build_loss()
    for p in params:
        p.zero_grad()
    loss = build_loss()
    loss.backward()
    worst = 0.0
    for p in params:
        numeric = finite_difference_grad(build_loss, p, h=h)
        rel = np.abs(p.grad - numeric) / np.maximum(1.0, np.abs(numeric))
        worst = max(worst, float(rel.max()))
    assert worst < tol, f"worst relative gradient error {worst:.3e}"
    return worst


def test_criterion_2_gradient_correctness():
    started = time.perf_counter()

    def probe(out: Tensor) -> Tensor:
        coeffs = Tensor(np.linspace(0.5, 1.5, out.data.size).reshape(out.data.shape))
        return tensor_sum(ag.mul(ag.mul(out, out), coeffs))

    # each primitive in isolation
    x = Tensor(RNG.normal(size=(2, 3, 10)), requires_grad=True)
    k = Tensor(RNG.normal(size=(4, 3, 3)), requires_grad=True)
    b = Tensor(RNG.normal(size=4), requires_grad=True)
    _fd_check(lambda: probe(ag.conv1d(x, k, b, padding=1)), [x, k, b])
    _fd_check(lambda: probe(ag.conv1d(x, k, None, padding=1)), [x, k])

    g = Tensor(RNG.uniform(0.5, 1.5, size=3), requires_grad=True)
    beta = Tensor(RNG.normal(size=3), requires_grad=True)
    stats = running_stats(3)
    _fd_check(lambda: probe(ag.batch_norm1d(x, g, beta, *stats, training=True)),
              [x, g, beta])

    y = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
    _fd_check(lambda: probe(ag.softmax(y)), [y])
    _fd_check(lambda: probe(ag.sigmoid(y)), [y])
    _fd_check(lambda: probe(ag.relu(y)), [y])

    tau = Tensor(np.abs(RNG.normal(size=(2, 3, 1))), requires_grad=True)
    _fd_check(lambda: probe(ag.soft_threshold(x, tau)), [x, tau])
    _fd_check(lambda: probe(ag.max_pool1d(x, 2)), [x])
    _fd_check(lambda: probe(ag.global_avg_pool(x)), [x])
    _fd_check(lambda: probe(ag.channel_pool(x)), [x])

    w = Tensor(RNG.normal(size=(5, 2)), requires_grad=True)
    wb = Tensor(RNG.normal(size=2), requires_grad=True)
    _fd_check(lambda: probe(ag.linear(y, w, wb)), [y, w, wb])
    _fd_check(lambda: probe(ag.linear(y, w, None)), [y, w])

    # the assembled micro model: every parameter against central differences.
    # The batch comes from its own stream: finite differences are only a valid
    # oracle away from activation kinks, so the probe point must be generic.
    cfg = ModelConfig(branch_channels=4, input_length=64, pool_sizes=(2, 2, 2))
    mp = init_params(cfg, seed=7)
    batch = np.random.default_rng(3).normal(size=(2, 1, 64))
    labels = np.array([0, 3])
    weights = class_weights(np.full(5, 0.2))

    def model_loss():
        return weighted_ce_loss(model_forward(mp, Tensor(batch), training=True),
                                labels, weights)

    loss = model_loss()
    for p in mp.parameters().values():
        p.zero_grad()
    loss.backward()
    analytic = {name: p.grad.copy() for name, p in mp.parameters().items()}
    worst = 0.0
    for name, p in mp.parameters().items():
        numeric = finite_difference_grad(model_loss, p, h=1e-4)
        rel = np.abs(analytic[name] - numeric) / np.maximum(1.0, np.abs(numeric))
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(f"ACCEPTANCE 2: PASS - all ops and the assembled micro model match "
           f"central differences (worst rel err {worst:.2e}) in {elapsed:.1f}s")


def test_criterion_3_formula_fidelity():
    # label shares as published for Sleep-EDF (W, N1, N2, N3, R)
    shares = {"W": 0.528, "N1": 0.040, "N2": 0.238, "N3": 0.085, "R": 0.106}
    by_code = np.zeros(5)
    for name, p in shares.items():
        by_code[int(STAGE_BY_NAME[name])] = p
    w = class_weights(by_code)
    expect = {"W": 1.000, "N1": 3.219, "N2": 1.435, "N3": 2.465, "R": 2.244}
    for name, val in expect.items():
        assert w[STAGE_BY_NAME[name]] == pytest.approx(val, abs=1e-3), name

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 12))
        logits = rng.normal(size=(n, 5)) * 4
        labels = rng.integers(0, 5, size=n)
        weights = tuple(rng.uniform(1, 5, size=5))
        got = weighted_ce_loss(Tensor(logits), labels, np.array(weights)).item()
        total, wsum = 0.0, 0.0
        for xi, c in zip(logits, labels):
            total += weights[int(c)] * (-xi[int(c)] + math.log(sum(math.exp(v) for v in xi)))
            wsum += weights[int(c)]
        worst = max(worst, abs(got - total / wsum))
    assert worst < 1e-12
    report(f"ACCEPTANCE 3: PASS - class weights match published values to 1e-3; "
           f"batch loss matches the loop oracle to {worst:.1e} (< 1e-12)")


def test_criterion_4_architecture_contracts():
    # default config end-to-end shape contract
    cfg = ModelConfig()
    mp = init_params(cfg, seed=0)
    logits = model_forward(mp, Tensor(RNG.normal(size=(2, 1, 3000))), training=False)
    assert logits.shape == (2, 5)

    # channel attention is a contraction, elementwise, on its isolated output
    from sleepstage.model import attention_block, channel_attention
    micro = micro_model_config()
    mmp = init_params(micro, seed=3)
    mmp["block0.ca.fc2.bias"].data[:] = 0.5
    x = RNG.normal(size=(2, 12, 16)) * 2
    out = channel_attention(mmp, 0, Tensor(x), training=False)
    assert np.all(np.abs(out.data) <= np.abs(x) + 1e-12)

    # spatial gate strictly inside (0, 1) for finite inputs
    pooled = ag.channel_pool(Tensor(RNG.normal(size=(2, 12, 16)) * 20))
    gate = ag.sigmoid(ag.conv1d(pooled, mmp["block0.sa.gate.weight"],
                                mmp["block0.sa.gate.bias"], padding=1))
    assert np.all(gate.data > 0.0) and np.all(gate.data < 1.0)

    # the identity path still carries gradient when the attention path is dead
    for name, p in mmp.parameters().items():
        if name.startswith("block0."):
            p.data[:] = 0.0
    xt = Tensor(RNG.normal(size=(2, 12, 16)), requires_grad=True)
    out = attention_block(mmp, 0, xt, training=False)
    tensor_sum(ag.mul(out, out)).backward()
    assert xt.grad is not None and np.any(xt.grad != 0)

    report("ACCEPTANCE 4: PASS - default model maps [B,1,3000]->[B,5]; "
           "channel attention contracts; spatial gate in (0,1); identity path "
           "carries gradient past a zeroed attention path")


def test_criterion_5a_single_batch_overfit():
    started = time.perf_counter()
    epochs = sine_epochs(8, seed=5)
    labels = np.array([int(e.label) for e in epochs])
    x = Tensor(np.stack([e.samples for e in epochs])[:, None, :])
    cfg = ModelConfig(branch_channels=4, pool_sizes=(8, 4, 4))
    mp = init_params(cfg, seed=2)
    weights = class_weights(np.bincount(labels, minlength=5) / len(labels))
    tc = TrainConfig()
    params = mp.parameters()
    state = AdamState(params)
    reached = None
    for step in range(1, 501):
        loss = weighted_ce_loss(model_forward(mp, x, training=True), labels, weights)
        for p in params.values():
            p.zero_grad()
        loss.backward()
        adam_step(params, state, tc)
        if loss.item() < 0.01:
            reached = step
            break
    assert reached is not None, f"loss still {loss.item():.4f} after 500 steps"
    elapsed = time.perf_counter() - started
    report(f"ACCEPTANCE 5a: PASS - single batch of 8 epochs overfits to "
           f"loss < 0.01 at step {reached} ({elapsed:.0f}s)")


@pytest.fixture(scope="module")
def synthetic_training_run():
    epochs = sine_epochs(200, seed=42)
    perm = np.random.default_rng(0).permutation(200)
    train_idx, val_idx = perm[:160], perm[160:]
    cfg = ModelConfig(branch_channels=8, pool_sizes=(8, 4, 4))
    tc = TrainConfig(max_passes=30, seed=1)
    started = time.perf_counter()
    result = train(epochs, train_idx, val_idx, tc, cfg,
                   on_pass=lambda row, mp: row.val_overall_acc is not None
                   and row.val_overall_acc >= 97.5)
    elapsed = time.perf_counter() - started
    return epochs, train_idx, val_idx, result, elapsed


def test_criterion_5b_synthetic_five_class_learning(synthetic_training_run):
    epochs, train_idx, val_idx, result, elapsed = synthetic_training_run

    # separability oracle: nearest band-energy peak classifies perfectly
    def band_energy(samples, rate=100.0):
        spec = np.abs(np.fft.rfft(samples)) ** 2
        freqs = np.fft.rfftfreq(len(samples), d=1.0 / rate)
        return [spec[(freqs > f - 1.5) & (freqs < f + 1.5)].sum()
                for f in (2.0, 6.0, 10.0, 14.0, 18.0)]

    oracle_pred = np.argmax([band_energy(e.samples) for e in epochs], axis=1)
    labels = np.array([int(e.label) for e in epochs])
    assert np.mean(oracle_pred == labels) >= 0.99

    passes = result.log[-1].train_pass
    assert passes <= 30
    assert elapsed < 600.0
    train_acc = evaluation.evaluate(result.params, epochs, train_idx).summary.overall_accuracy
    val_acc = evaluation.evaluate(result.params, epochs, val_idx).summary.overall_accuracy
    assert train_acc >= 95.0
    assert val_acc >= 90.0
    report(f"ACCEPTANCE 5b: PASS - synthetic 5-frequency classes: train "
           f"{train_acc:.1f}% / held-out {val_acc:.1f}% after {passes} passes "
           f"({elapsed:.0f}s)")


def test_criterion_5c_majority_baseline_beaten(synthetic_training_run):
    # published Sleep-EDF class counts: W 8030, N1 604, N2 3621, N3 1299, R 1609
    counts = {"W": 8030, "N1": 604, "N2": 3621, "N3": 1299, "R": 1609}
    y_true = []
    for name, count in counts.items():
        y_true += [int(STAGE_BY_NAME[name])] * count
    y_true = np.array(y_true)
    y_pred = np.full_like(y_true, int(StageLabel.W))
    baseline = summary_metrics(ConfusionMatrix.from_pairs(y_true, y_pred)).overall_accuracy
    # the published counts sum to 15163 while their published total is 15199,
    # so the W share is 52.96% on the counts and 52.83% on the total
    assert baseline == pytest.approx(8030 / 15163 * 100, abs=1e-9)
    assert baseline == pytest.approx(52.8, abs=0.25)

    epochs, train_idx, val_idx, result, _ = synthetic_training_run
    val_acc = evaluation.evaluate(result.params, epochs, val_idx).summary.overall_accuracy
    assert val_acc > baseline
    report(f"ACCEPTANCE 5c: PASS - always-W baseline scores {baseline:.1f}% on "
           f"published label shares; trained micro model scores {val_acc:.1f}%")


def test_criterion_6_split_protocols():
    # 5-fold: every epoch exactly once across validation folds
    parts = kfold_split(1003, k=5, seed=13)
    seen = sorted(i for part in parts for i in part)
    assert seen == list(range(1003))
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1

    # hold-out on 197 synthetic subjects: 157/40 with zero leakage
    subjects = [f"SYN{i:03d}" for i in range(197)]
    train_subjects, eval_subjects = holdout_split(subjects, ratio=0.8, seed=13)
    assert len(train_subjects) == 157
    assert len(eval_subjects) == 40
    assert not set(train_subjects) & set(eval_subjects)
    assert sorted(set(train_subjects) | set(eval_subjects)) == subjects
    report("ACCEPTANCE 6: PASS - 5-fold covers 1003 epochs exactly once; "
           "hold-out on 197 subjects gives 157/40 with zero subject leakage")


def test_criterion_7_ingestion_and_normalization():
    # synthetic EDF round trip is bit exact
    from helpers import eeg_signal_header
    from fractions import Fraction
    from sleepstage.edf import build_edf
    rng = np.random.default_rng(6)
    sig = eeg_signal_header(samples_per_record=250)
    digital = rng.integers(-2048, 2048, size=4 * 250).astype(np.int32)
    blob = build_edf([(sig, digital)], record_count=4, record_duration=Fraction(30))
    header, signals = parse_edf(blob)
    assert serialize_edf(header, signals) == blob
    np.testing.assert_array_equal(signals[0], digital)

    # normalization endpoints and monotonicity on randomized signals
    for trial in range(25):
        signal = rng.normal(loc=rng.uniform(-10, 10), scale=rng.uniform(0.1, 50),
                            size=3000)
        stats = compute_stats(signal)
        assert normalize(np.array([stats.s05]), stats)[0] == pytest.approx(-1.0, abs=1e-12)
        assert normalize(np.array([stats.s95]), stats)[0] == pytest.approx(1.0, abs=1e-12)
        ordered = np.sort(rng.choice(signal, size=500))
        out = normalize(ordered, stats)
        assert np.all(np.diff(out) >= 0)
    report("ACCEPTANCE 7: PASS - synthetic EDF round trip is bit exact; "
           "normalization maps s05->-1, s95->+1 and preserves order on "
           "randomized signals")


def test_criterion_8_reproducibility(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    cycle = [4, 3, 2, 1, 0]
    build_corpus_recording(corpus, "subjA", cycle, n_epochs=15, seed=1, rate=10)
    build_corpus_recording(corpus, "subjB", cycle, n_epochs=15, seed=2, rate=10)

    def pipeline(tag: str) -> dict[str, bytes]:
        cache_dir = tmp_path / f"cache_{tag}"
        out = tmp_path / f"out_{tag}"
        cfg = tmp_path / f"run_{tag}.cfg"
        cfg.write_text(
            f"dataset.root = {corpus}\n"
            f"cache.dir = {cache_dir}\n"
            "dataset.channel = EEG Fpz-Cz\n"
            "model.branch_channels = 2\n"
            "model.input_length = 300\n"
            "model.pool_sizes = 8,4,4\n"
            "train.max_passes = 2\n"
            "train.batch_size = 4\n"
            "split.kind = holdout\n"
            "split.ratio = 0.5\n"
            "seed = 23\n")
        assert cli.main(["preprocess", "--config", str(cfg)]) == 0
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["eval", "--config", str(cfg), "--out", str(out / "eval"),
                         "--checkpoint", str(out / "holdout.ckpt")]) == 0
        return {
            "train_metrics": (out / "metrics.json").read_bytes(),
            "eval_metrics": (out / "eval" / "metrics.json").read_bytes(),
            "checkpoint": (out / "holdout.ckpt").read_bytes(),
            "log": (out / "holdout_train_log.csv").read_bytes(),
        }

    first = pipeline("one")
    second = pipeline("two")
    assert first["train_metrics"] == second["train_metrics"]
    assert first["eval_metrics"] == second["eval_metrics"]
    assert first["checkpoint"] == second["checkpoint"]
    assert first["log"] == second["log"]
    payload = json.loads(first["eval_metrics"].decode())
    assert payload["schema_version"] == 1
    report("ACCEPTANCE 8: PASS - two full pipeline runs (preprocess, train, "
           "eval) with one config and seed produce byte-identical metrics "
           "JSON, checkpoints, and training logs")
