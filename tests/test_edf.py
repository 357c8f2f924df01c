"""Parsing, calibration, hypnogram handling, epoching, and cache round trips."""
import datetime as dt
import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sleepstage import cache
from sleepstage.edf import (
    EpochSet,
    LabeledEpoch,
    SignalHeader,
    StageLabel,
    build_edf,
    calibrate,
    encode_annotation_signal,
    epoch_recording,
    extract_annotations,
    find_signal,
    map_label,
    parse_edf,
    parse_hypnogram,
    read_recording,
    serialize_edf,
    EegRecording,
)
from sleepstage.errors import (
    DataError,
    DegenerateCalibration,
    MalformedHeader,
    OverlappingAnnotations,
    SampleRateMismatch,
    SignalNotFound,
    TruncatedFile,
    UnknownStageString,
)
from sleepstage.preprocess import NormalizationStats

from helpers import eeg_signal_header

RNG = np.random.default_rng(7)


def one_signal_file(n_records=2, spr=3000) -> bytes:
    sig = eeg_signal_header(samples_per_record=spr)
    digital = RNG.integers(-2048, 2048, size=n_records * spr).astype(np.int32)
    return build_edf([(sig, digital)], record_count=n_records,
                     record_duration=Fraction(30))


class TestParse:
    def test_two_record_synthetic(self):
        header, signals = parse_edf(one_signal_file())
        assert header.signal_count == 1
        assert header.record_count == 2
        assert len(signals[0]) == 6000

    def test_fields_decoded(self):
        header, _ = parse_edf(one_signal_file())
        sig = header.signals[0]
        assert sig.label == "EEG Fpz-Cz"
        assert sig.physical_dimension == "uV"
        assert (sig.digital_min, sig.digital_max) == (-2048, 2047)
        assert header.header_bytes == 512
        assert header.start_datetime == dt.datetime(1989, 4, 24, 23, 0, 0)

    def test_header_bytes_invariant(self):
        data = bytearray(one_signal_file())
        data[184:192] = b"300     "  # != 256 + 256*1
        with pytest.raises(MalformedHeader):
            parse_edf(bytes(data))

    def test_non_numeric_field(self):
        data = bytearray(one_signal_file())
        data[236:244] = b"oops    "
        with pytest.raises(MalformedHeader):
            parse_edf(bytes(data))

    def test_truncated_records(self):
        data = one_signal_file()
        with pytest.raises(TruncatedFile):
            parse_edf(data[:-10])

    def test_truncated_header(self):
        with pytest.raises(TruncatedFile):
            parse_edf(one_signal_file()[:100])

    def test_unknown_record_count_derived(self):
        data = bytearray(one_signal_file())
        data[236:244] = b"-1      "
        header, signals = parse_edf(bytes(data))
        assert header.record_count == 2
        assert len(signals[0]) == 6000

    def test_signal_not_found(self):
        header, _ = parse_edf(one_signal_file())
        with pytest.raises(SignalNotFound):
            find_signal(header, "EEG Pz-Oz")

    def test_digital_range_invariant(self):
        sig = eeg_signal_header(samples_per_record=4)
        sig.digital_min, sig.digital_max = 5, 5
        data = build_edf([(sig, np.zeros(4, dtype=np.int32))], record_count=1)
        with pytest.raises(MalformedHeader):
            parse_edf(data)


class TestRoundTrip:
    def test_serialize_parse_serialize_bit_exact(self):
        data = one_signal_file()
        header, signals = parse_edf(data)
        again = serialize_edf(header, signals)
        assert again == data

    @given(st.integers(0, 3), st.integers(1, 3), st.integers(1989, 2035),
           st.integers(-500, 0), st.integers(1, 500), st.data())
    @settings(max_examples=25, deadline=None)
    def test_synthetic_round_trip(self, n_records, n_signals, year, dmin_off, drange, data):
        sigs = []
        for i in range(n_signals):
            dmin = -100 + dmin_off
            sig = SignalHeader(
                label=f"sig{i}",
                physical_dimension="uV",
                physical_min=float(data.draw(st.integers(-500, -1))),
                physical_max=float(data.draw(st.integers(0, 500))),
                digital_min=dmin,
                digital_max=dmin + drange,
                samples_per_record=data.draw(st.integers(1, 16)),
            )
            arr = data.draw(st.lists(
                st.integers(-32768, 32767),
                min_size=n_records * sig.samples_per_record,
                max_size=n_records * sig.samples_per_record,
            ))
            sigs.append((sig, np.asarray(arr, dtype=np.int32)))
        blob = build_edf(sigs, record_count=n_records,
                         record_duration=Fraction(30),
                         start=dt.datetime(year, 4, 24, 23, 59, 58))
        header, signals = parse_edf(blob)
        assert header.record_count == n_records
        assert header.start_datetime.year == year
        for (sig, arr), (parsed, got) in zip(sigs, zip(header.signals, signals)):
            assert parsed.label == sig.label
            assert parsed.physical_min == sig.physical_min
            assert parsed.digital_max == sig.digital_max
            np.testing.assert_array_equal(got, arr)
        assert serialize_edf(header, signals) == blob


class TestCalibrate:
    def test_worked_example(self):
        sig = SignalHeader(label="x", physical_min=-204.8, physical_max=204.7,
                           digital_min=-2048, digital_max=2047)
        # gain = 409.5/4095 = 0.1 exactly, so d=0 lands on -204.8 + 2048*0.1
        out = calibrate(np.array([0]), sig)
        assert out[0] == pytest.approx(-204.8 + 2048 * (409.5 / 4095), abs=1e-12)
        assert out[0] == pytest.approx(0.0, abs=1e-12)

    def test_endpoints(self):
        sig = SignalHeader(label="x", physical_min=-3.5, physical_max=9.25,
                           digital_min=-10, digital_max=30)
        np.testing.assert_allclose(calibrate(np.array([-10, 30]), sig), [-3.5, 9.25])

    def test_three_point_affine(self):
        sig = SignalHeader(label="x", physical_min=10.0, physical_max=30.0,
                           digital_min=0, digital_max=200)
        np.testing.assert_allclose(calibrate(np.array([50, 0, 200]), sig),
                                   [15.0, 10.0, 30.0])

    def test_degenerate(self):
        sig = SignalHeader(label="x", digital_min=7, digital_max=7)
        with pytest.raises(DegenerateCalibration):
            calibrate(np.array([7]), sig)

    def test_out_of_range_clamps_with_warning(self, caplog):
        sig = SignalHeader(label="x", physical_min=0.0, physical_max=10.0,
                           digital_min=0, digital_max=10)
        with caplog.at_level(logging.WARNING, logger="sleepstage.edf"):
            out = calibrate(np.array([-5, 15]), sig)
        np.testing.assert_allclose(out, [0.0, 10.0])
        assert any("clamped" in r.message for r in caplog.records)

    @given(st.floats(-1000, 1000), st.floats(-1000, 1000), st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_affine_property(self, d1, d2, alpha):
        sig = SignalHeader(label="x", physical_min=-204.8, physical_max=204.7,
                           digital_min=-2048, digital_max=2047)
        lhs = calibrate(np.array([alpha * d1 + (1 - alpha) * d2]), sig)[0]
        rhs = alpha * calibrate(np.array([d1]), sig)[0] + \
            (1 - alpha) * calibrate(np.array([d2]), sig)[0]
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestHypnogram:
    def test_label_map(self):
        assert map_label("4") is StageLabel.N3
        assert int(map_label("4")) == 0
        assert map_label("W") is StageLabel.W
        assert int(map_label("W")) == 4
        assert map_label("M") is None
        assert map_label("?") is None
        assert map_label("Sleep stage 1") is StageLabel.N1

    def test_label_map_unknown(self):
        with pytest.raises(UnknownStageString):
            map_label("Sleep stage 9")

    def test_code_bijection(self):
        codes = {int(s) for s in StageLabel}
        assert codes == {0, 1, 2, 3, 4}
        for s in StageLabel:
            assert StageLabel(int(s)) is s

    def test_parse_validates_vocabulary(self):
        with pytest.raises(UnknownStageString):
            parse_hypnogram([(0.0, 30.0, "X")])

    def test_out_of_order_onsets(self):
        with pytest.raises(OverlappingAnnotations):
            parse_hypnogram([(60.0, 30.0, "W"), (0.0, 30.0, "1")])

    def test_overlapping_intervals(self):
        with pytest.raises(OverlappingAnnotations):
            parse_hypnogram([(0.0, 60.0, "W"), (30.0, 30.0, "1")])

    def test_annotation_signal_round_trip(self):
        intervals = [(0.0, 1800.0, "W"), (1800.0, 900.0, "1"), (2700.0, 60.0, "M")]
        sig, arr = encode_annotation_signal(intervals, record_count=3,
                                            record_duration=30.0,
                                            samples_per_record=128)
        blob = build_edf([(sig, arr)], record_count=3, record_duration=Fraction(30))
        parsed = parse_hypnogram(blob)
        assert parsed == [(0.0, 1800.0, "W"), (1800.0, 900.0, "1"), (2700.0, 60.0, "M")]

    def test_embedded_annotations_extracted(self):
        eeg = eeg_signal_header(samples_per_record=3000)
        digital = RNG.integers(-2048, 2048, size=2 * 3000).astype(np.int32)
        ann_sig, ann_arr = encode_annotation_signal(
            [(0.0, 60.0, "W")], record_count=2, record_duration=30.0)
        blob = build_edf([(eeg, digital), (ann_sig, ann_arr)], record_count=2,
                         record_duration=Fraction(30))
        assert parse_hypnogram(blob) == [(0.0, 60.0, "W")]
        annotations = extract_annotations(blob)
        assert ("Sleep stage W" in [t for _, _, t in annotations])


def recording(seconds: float, rate: float = 100.0) -> EegRecording:
    n = int(round(seconds * rate))
    return EegRecording(subject_id="s1", channel_name="EEG Fpz-Cz", sample_rate=rate,
                        samples=RNG.normal(size=n), start_datetime=dt.datetime(1989, 4, 24))


class TestEpoching:
    def test_ninety_seconds_three_epochs(self):
        out = epoch_recording(recording(90), [(0.0, 90.0, "W")])
        assert len(out) == 3
        assert all(e.label is StageLabel.W and len(e.samples) == 3000 for e in out)
        assert [e.epoch_index for e in out] == [0, 1, 2]

    def test_trailing_partial_window_dropped(self):
        out = epoch_recording(recording(100), [(0.0, 100.0, "W")])
        assert len(out) == 3

    def test_interval_division(self):
        out = epoch_recording(recording(2700), [(0.0, 1800.0, "W"), (1800.0, 900.0, "1")])
        assert sum(1 for e in out if e.label is StageLabel.W) == 60
        assert sum(1 for e in out if e.label is StageLabel.N1) == 30

    def test_excluded_stage_leaves_gap(self):
        out = epoch_recording(recording(90), [(0.0, 30.0, "W"), (30.0, 30.0, "M"),
                                              (60.0, 30.0, "R")])
        assert [e.epoch_index for e in out] == [0, 2]
        assert [e.label for e in out] == [StageLabel.W, StageLabel.R]

    def test_non_integer_epoch_length(self):
        with pytest.raises(SampleRateMismatch):
            epoch_recording(recording(90, rate=100.01), [(0.0, 90.0, "W")])

    def test_epoch_count_identity(self):
        intervals = [(0.0, 600.0, "W"), (600.0, 300.0, "M"), (900.0, 330.0, "2")]
        out = epoch_recording(recording(1230), intervals)
        scored = int(sum(d for _, d, _ in intervals) // 30)
        excluded = 10
        assert len(out) == scored - excluded
        counts = {}
        for e in out:
            counts[e.label] = counts.get(e.label, 0) + 1
        assert sum(counts.values()) == len(out)

    def test_indices_strictly_increasing(self):
        out = epoch_recording(recording(600), [(0.0, 600.0, "2")])
        idx = [e.epoch_index for e in out]
        assert all(a < b for a, b in zip(idx, idx[1:]))


class TestReadRecording:
    def test_sample_rate_and_calibration(self):
        blob = one_signal_file(n_records=3)
        rec = read_recording(blob, "EEG Fpz-Cz", "subj")
        assert rec.sample_rate == 100.0
        assert len(rec.samples) == 9000
        assert rec.subject_id == "subj"
        header, signals = parse_edf(blob)
        np.testing.assert_allclose(rec.samples, calibrate(signals[0], header.signals[0]))


class TestEpochCache:
    def test_round_trip(self, tmp_path):
        epochs = [
            LabeledEpoch(samples=RNG.normal(size=300), label=StageLabel(i % 5),
                         subject_id="s", epoch_index=i)
            for i in range(7)
        ]
        path = tmp_path / "s.epochs"
        cache.save_epochs(epochs, path)
        loaded = cache.load_epochs(path, "s")
        assert len(loaded) == 7
        for orig, back in zip(epochs, loaded):
            assert back.label == orig.label
            assert back.subject_id == "s"
            np.testing.assert_array_equal(
                back.samples, orig.samples.astype(np.float32).astype(np.float64))

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.epochs"
        path.write_bytes(b"nope")
        with pytest.raises(TruncatedFile):
            cache.load_epochs(path, "x")

    def test_stats_round_trip(self, tmp_path):
        stats = NormalizationStats(s05=-12.3456789012345, s95=98.7654321098765)
        path = tmp_path / "s.stats"
        cache.save_stats(stats, path)
        assert cache.load_stats(path) == stats

    def test_load_all_renumbers_per_subject(self, tmp_path):
        epochs = [LabeledEpoch(samples=RNG.normal(size=10), label=StageLabel(i),
                               subject_id="a", epoch_index=i) for i in range(3)]
        cache.save_epochs(epochs, tmp_path / "a__n1.epochs")
        cache.save_epochs(epochs, tmp_path / "a__n2.epochs")
        cache.save_epochs(epochs, tmp_path / "b__n1.epochs")
        loaded = cache.load_all(tmp_path)
        a_idx = [e.epoch_index for e in loaded if e.subject_id == "a"]
        assert a_idx == [0, 1, 2, 3, 4, 5]
        assert cache.cached_subjects(tmp_path) == ["a", "b"]
        assert isinstance(loaded, EpochSet)
        saved = np.stack([e.samples for e in epochs])
        assert loaded.samples.dtype == np.float32
        np.testing.assert_array_equal(loaded.samples, np.tile(saved.astype(np.float32), (3, 1)))
        assert loaded.labels.tolist() == [0, 1, 2] * 3
        assert loaded.subjects.tolist() == ["a"] * 6 + ["b"] * 3
        assert loaded.epoch_index.tolist() == [0, 1, 2, 3, 4, 5, 0, 1, 2]

    def test_load_all_of_empty_directory_is_empty(self, tmp_path):
        loaded = cache.load_all(tmp_path)
        assert isinstance(loaded, EpochSet)
        assert len(loaded) == 0 and not loaded

    def test_rejects_label_byte_outside_stage_codes(self, tmp_path):
        path = tmp_path / "s.epochs"
        cache.save_epochs([LabeledEpoch(samples=np.zeros(4), label=StageLabel.W,
                                        subject_id="s", epoch_index=i) for i in range(3)], path)
        blob = bytearray(path.read_bytes())
        blob[12 + 17] = 9  # label byte of the second record
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedFile, match="label byte 9 is not a stage code"):
            cache.load_epochs(path, "s")

    def test_rejects_mixed_epoch_lengths(self, tmp_path):
        for name, length in (("a__n1", 4), ("a__n2", 5)):
            cache.save_epochs([LabeledEpoch(samples=np.zeros(length), label=StageLabel.W,
                                            subject_id="a", epoch_index=0)],
                              tmp_path / f"{name}.epochs")
        with pytest.raises(DataError, match="mix epoch lengths"):
            cache.load_all(tmp_path)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_any_bytes_load_or_are_truncated_file(self, tmp_path_factory, blob):
        self._loads_or_is_truncated(tmp_path_factory, blob)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_byte_mutation_loads_or_is_truncated_file(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("cache") / "s.epochs"
        cache.save_epochs([LabeledEpoch(samples=RNG.normal(size=3), label=StageLabel(i % 5),
                                        subject_id="s", epoch_index=i) for i in range(4)], path)
        blob = bytearray(path.read_bytes())
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        self._loads_or_is_truncated(tmp_path_factory, bytes(blob))

    @staticmethod
    def _loads_or_is_truncated(tmp_path_factory, blob: bytes):
        path = tmp_path_factory.mktemp("cache") / "s.epochs"
        path.write_bytes(blob)
        try:
            loaded = cache.load_epochs(path, "s")
        except TruncatedFile:
            return
        assert isinstance(loaded, EpochSet)
        assert loaded.samples.shape[0] == len(loaded) > 0
        assert np.all((loaded.labels >= 0) & (loaded.labels < len(StageLabel)))


class TestEpochSet:
    def epochs(self):
        return [LabeledEpoch(samples=RNG.normal(size=8), label=StageLabel(i % 5),
                             subject_id=f"s{i % 2}", epoch_index=10 + i) for i in range(5)]

    def test_of_stacks_without_casting_and_keeps_sets(self):
        epochs = self.epochs()
        es = EpochSet.of(epochs)
        assert EpochSet.of(es) is es
        assert es.samples.dtype == np.float64
        np.testing.assert_array_equal(es.samples, np.stack([e.samples for e in epochs]))
        assert es.labels.tolist() == [0, 1, 2, 3, 4]
        assert es.subjects.tolist() == ["s0", "s1", "s0", "s1", "s0"]
        assert es.epoch_index.tolist() == [10, 11, 12, 13, 14]
        assert len(EpochSet.of([])) == 0

    def test_integer_index_is_a_float64_labeled_epoch(self):
        es = EpochSet.of(self.epochs())
        es = EpochSet(es.samples.astype(np.float32), es.labels, es.subjects, es.epoch_index)
        e = es[np.int64(3)]
        assert isinstance(e, LabeledEpoch)
        assert e.samples.dtype == np.float64
        assert (e.label, e.subject_id, e.epoch_index) == (StageLabel.R, "s1", 13)
        assert type(e.subject_id) is str and type(e.epoch_index) is int
        assert es[-1].epoch_index == 14
        assert [x.epoch_index for x in es] == [10, 11, 12, 13, 14]

    def test_slice_and_index_array_give_sets(self):
        es = EpochSet.of(self.epochs())
        part = es[1:3]
        assert isinstance(part, EpochSet) and part.epoch_index.tolist() == [11, 12]
        picked = es[np.asarray([4, 0])]
        assert isinstance(picked, EpochSet)
        assert picked.labels.tolist() == [4, 0]
        assert picked.subjects.tolist() == ["s0", "s0"]
