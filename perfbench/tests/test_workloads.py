import pytest

from perfbench import workloads
from sleepstage import evaluation
from sleepstage.errors import EmptySplit


def test_timed_validation_records_each_call_and_restores():
    original = evaluation.evaluate
    spans = []
    with workloads.timed_validation(spans):
        assert evaluation.evaluate is not original
        with pytest.raises(EmptySplit):  # a failing call is timed too
            evaluation.evaluate(None, [], [])
    assert evaluation.evaluate is original
    assert len(spans) == 1 and spans[0] >= 0.0
