from collections import Counter

import pytest

from perfbench import corpus
from sleepstage import edf
from sleepstage.errors import TruncatedFile


def _bytes(nights):
    return [(n.psg.read_bytes(), n.hypnogram.read_bytes() if n.hypnogram else None)
            for n in nights]


def test_same_seed_gives_identical_bytes(tmp_path):
    a = corpus.make_corpus(7, tmp_path / "a", n_epochs=60)
    b = corpus.make_corpus(7, tmp_path / "b", n_epochs=60)
    assert _bytes(a) == _bytes(b)


def test_seeds_give_different_bytes(tmp_path):
    a = corpus.make_corpus(7, tmp_path / "a", n_epochs=60)
    b = corpus.make_corpus(8, tmp_path / "b", n_epochs=60)
    for x, y in zip(_bytes(a), _bytes(b)):
        assert x[0] != y[0]


def test_manifest_lists_the_corpus(tmp_path):
    nights = corpus.make_corpus(3, tmp_path, n_epochs=60)
    assert corpus.load_corpus(tmp_path) == nights


def test_command_line_writes_the_corpus(tmp_path):
    corpus.main(["--seed", "3", "--out", str(tmp_path / "a")])
    assert _bytes(corpus.load_corpus(tmp_path / "a")) == _bytes(
        corpus.make_corpus(3, tmp_path / "b"))


def test_corpus_layout(tmp_path):
    nights = corpus.make_corpus(3, tmp_path, n_epochs=60)
    valid = [n for n in nights if not n.truncated]
    assert len(valid) == 4 and sum(n.truncated for n in nights) == 1
    assert sum(n.hypnogram is None for n in valid) == 1  # one EDF+ PSG with embedded TALs
    header, _ = edf.parse_edf(valid[0].psg.read_bytes())
    rates = sorted(s.samples_per_record for s in header.signals)
    assert rates.count(3000) > 1 and rates[0] < 3000  # several 100 Hz channels, low-rate ones
    hyp, _ = edf.parse_edf(valid[0].hypnogram.read_bytes())
    assert hyp.record_count == 1  # the sidecar TAL list sits in one record


@pytest.mark.parametrize("night", range(4))
def test_annotations_round_trip(tmp_path, night):
    n = corpus.make_corpus(5, tmp_path, n_epochs=120)[night]
    stages = edf.parse_hypnogram((n.hypnogram or n.psg).read_bytes())
    assert stages == corpus.stage_intervals(n.stages)


def test_truncated_psg_is_rejected(tmp_path):
    bad = corpus.make_corpus(5, tmp_path, n_epochs=60)[-1]
    with pytest.raises(TruncatedFile):
        edf.read_recording(bad.psg.read_bytes(), corpus.EEG_CHANNEL, bad.subject)


def test_night_like_stage_mix(tmp_path):
    night = corpus.make_night(11, "S", 0, tmp_path)
    share = Counter(night.expected_labels())
    total = sum(share.values())
    assert set(share) == {0, 1, 2, 3, 4}
    assert share[1] == max(share.values())  # N2 dominates
    assert night.stages[0] == "W" and night.stages[-1] == "?"
    assert 0.03 < share[2] / total < 0.15  # N1 is rare
