import numpy as np
import pytest

from perfbench import trace
from perfbench.trace import Span
from sleepstage import autograd, model, training


def _spans(*rows):
    return [Span(name, start, end, parent) for name, start, end, parent in rows]


def test_self_time_is_parent_minus_children():
    spans = _spans(("root", 0.0, 10.0, -1), ("a", 1.0, 3.0, 0), ("b", 5.0, 9.0, 0),
                   ("a.x", 1.5, 2.5, 1))
    assert trace.self_times(spans) == pytest.approx([4.0, 1.0, 4.0, 1.0])


def test_overlapping_children_are_counted_once():
    spans = _spans(("root", 0.0, 10.0, -1), ("a", 1.0, 6.0, 0), ("b", 4.0, 8.0, 0))
    assert trace.self_times(spans)[0] == pytest.approx(3.0)


def test_children_are_clipped_to_the_parent():
    spans = _spans(("p", 2.0, 6.0, -1), ("c", 0.0, 3.0, 0), ("d", 5.0, 9.0, 0))
    assert trace.self_times(spans)[0] == pytest.approx(2.0)


def test_covered_merges_intervals():
    assert trace.covered(0.0, 10.0, [(2, 4), (3, 5), (7, 8)]) == pytest.approx(4.0)
    assert trace.covered(0.0, 10.0, []) == 0.0


def test_instrument_attributes_ops_and_stages_and_restores():
    cfg = model.ModelConfig(branch_channels=4, input_length=64, pool_sizes=(2, 2, 2))
    mp = model.init_params(cfg, seed=0)
    x = np.random.default_rng(0).normal(size=(2, 1, 64))
    weights = training.class_weights([0.2] * 5)
    originals = (autograd.conv1d, autograd.make_op, autograd.Tensor.backward,
                 training.model_forward, model.branch_forward)

    tracer = trace.Tracer()
    with trace.instrument(tracer), tracer.span(trace.ROOT):
        logits = training.model_forward(mp, x, training=True)
        training.weighted_ce_loss(logits, [0, 1], weights).backward()
    got = trace.layer_metrics(tracer)

    assert (autograd.conv1d, autograd.make_op, autograd.Tensor.backward,
            training.model_forward, model.branch_forward) == originals
    assert got["autograd.calls.conv1d"] == 3 * 3 + 3 * 4  # branches: 3 convs, blocks: 4
    assert got["autograd.out_mb.conv1d"] > 0
    assert got["autograd.calls.weighted_ce_loss"] == 1
    for stage in trace.STAGES:
        assert got[f"model.fwd_s.{stage}"] > 0, stage
        assert got[f"model.bwd_s.{stage}"] > 0, stage
    assert got["autograd.bwd_s.conv1d"] > 0 and got["autograd.backward_walk_s"] > 0
    assert 0.9 < got["trace.coverage"] <= 1.0
