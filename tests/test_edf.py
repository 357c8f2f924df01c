"""Parsing, calibration, hypnogram handling, epoching, and cache round trips."""
import datetime as dt
import hashlib
import logging
import re
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sleepstage import cache, files
from sleepstage.checkpoint import save_arrays
from sleepstage.cli import write_metrics_json
from sleepstage.config import parse_kv_text
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
    scored_windows,
    serialize_edf,
    windows,
    EegRecording,
)
from sleepstage.errors import DataError, TruncatedFile
from sleepstage.preprocess import NormalizationStats, compute_stats, normalize
from sleepstage.training import LogRow, write_training_log

from helpers import (EEG_CHANNEL, build_corpus_recording, eeg_signal_header, epoch_set,
                     reference_load_all)

RNG = np.random.default_rng(7)


def one_signal_file(n_records=2, spr=3000) -> bytes:
    sig = eeg_signal_header(samples_per_record=spr)
    digital = RNG.integers(-2048, 2048, size=n_records * spr).astype(np.int32)
    return build_edf([(sig, digital)], record_count=n_records,
                     record_duration=Fraction(30))


# (offset, width) of header fields in a file with one signal
ONE_SIGNAL_FIELDS = {
    "patient_id": (8, 80), "start_date": (168, 8), "start_time": (176, 8),
    "header_bytes": (184, 8), "record_count": (236, 8), "record_duration": (244, 8),
    "signal_count": (252, 4), "physical_max": (368, 8), "samples_per_record": (472, 8),
}

# a 10-Hz EEG signal plus embedded annotations, two 30-s records; header 768 bytes
EMBEDDED_NIGHT = build_edf(
    [(eeg_signal_header(samples_per_record=300),
      np.random.default_rng(0).integers(-2048, 2048, size=600)),
     encode_annotation_signal([(0.0, 30.0, "W"), (30.0, 30.0, "2")], record_count=2,
                              record_duration=30.0, samples_per_record=64)],
    record_count=2, record_duration=Fraction(30))
# byte offset of each record's 128 annotation bytes in EMBEDDED_NIGHT
EMBEDDED_ANNOTATIONS = [768 + r * 2 * (300 + 64) + 2 * 300 for r in range(2)]
TAL_TIMES = ["+0", "+30", "-30", "+60", "", "+nan", "-inf", "+inf", "+1e400", "+1e308"]


class TestParse:
    def test_two_record_synthetic(self):
        header, signals = parse_edf(one_signal_file())
        assert len(header.signals) == 1
        assert header.record_count == 2
        assert len(signals[0]) == 6000
        assert signals[0].dtype == np.int16

    def test_fields_decoded(self):
        header, _ = parse_edf(one_signal_file())
        sig = header.signals[0]
        assert sig.label == "EEG Fpz-Cz"
        assert sig.physical_dimension == "uV"
        assert (sig.digital_min, sig.digital_max) == (-2048, 2047)
        assert header.start_datetime == dt.datetime(1989, 4, 24, 23, 0, 0)

    def test_counts_are_written_from_the_signals(self):
        """`serialize_edf` writes the header's byte count and signal count
        from the signals it is given."""
        assert EMBEDDED_NIGHT[184:192] == b"768     "
        assert EMBEDDED_NIGHT[252:256] == b"2   "

    @pytest.mark.parametrize("edits, error, match", [
        ({"patient_id": b"\xff"}, DataError, "non-ASCII bytes at offset 8"),
        ({"record_count": b"oops"}, DataError, "record_count: expected integer"),
        ({"physical_max": b"high"}, DataError, "physical_max: expected number"),
        ({"start_date": b"24.04"}, DataError, "bad start date/time"),
        ({"start_date": b"31.02.89"}, DataError, "bad start date/time"),
        ({"start_time": b"25.00.00"}, DataError, "bad start date/time"),
        ({"record_duration": b"30s"}, DataError, "record_duration: got '30s'"),
        ({"record_duration": b"-30"}, DataError, "record_duration -30 < 0"),
        ({"signal_count": b"0"}, DataError, "signal_count 0 < 1"),
        ({"header_bytes": b"300"}, DataError, r"header_bytes 300 != 256 \+ 256\*1"),
        ({"signal_count": b"99", "header_bytes": b"25600"}, TruncatedFile,
         "header needs 25600"),
        ({"samples_per_record": b"0"}, DataError, "samples_per_record 0 < 1"),
        ({"physical_max": b"-204.8"}, DataError, "physical_min == physical_max"),
        ({"record_count": b"-2"}, DataError, "record_count -2 < 0"),
        ({"record_duration": b"0"}, DataError, "record_duration 0 for a sampled signal"),
    ], ids=["non-ascii", "non-numeric-int", "non-numeric-float", "date-unsplit",
            "date-impossible", "time-impossible", "duration-unparsable", "duration-negative",
            "no-signals", "header-bytes-invariant", "shorter-than-header",
            "no-samples-per-record", "physical-range-empty", "record-count-below-minus-one",
            "zero-duration-sampled"])
    def test_header_rejections(self, edits, error, match):
        """Each header check of parse_edf (and read_recording's zero-duration
        check) on a one-signal file with the named fields overwritten."""
        data = bytearray(one_signal_file())
        for name, value in edits.items():
            offset, width = ONE_SIGNAL_FIELDS[name]
            data[offset:offset + width] = value.ljust(width)
        with pytest.raises(error, match=match):
            read_recording(bytes(data), "EEG Fpz-Cz", "s")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 767), st.integers(0, 255)), min_size=1,
                    max_size=8))
    def test_any_header_mutation_reads_or_is_data_error(self, mutations):
        data = bytearray(EMBEDDED_NIGHT)
        for offset, value in mutations:
            data[offset] = value
        for read in (parse_edf, lambda b: read_recording(b, "EEG Fpz-Cz", "s"),
                     parse_hypnogram):
            try:
                read(bytes(data))
            except DataError:
                pass

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(EMBEDDED_ANNOTATIONS), st.integers(0, 127),
           st.one_of(st.binary(min_size=1, max_size=16),
                     st.builds("{}\x15{}\x14Sleep stage W\x14\x00".format,
                               st.sampled_from(TAL_TIMES),
                               st.sampled_from(TAL_TIMES)).map(str.encode)))
    def test_any_annotation_mutation_stages_or_is_data_error(self, block, at, patch):
        """Bytes written into an annotation record, TALs with non-finite or
        overflowing times among them, give stage windows or a DataError."""
        data = bytearray(EMBEDDED_NIGHT)
        patch = patch[:128 - at]
        data[block + at:block + at + len(patch)] = patch
        try:
            scored_windows(parse_hypnogram(bytes(data)), 2)
        except DataError:
            pass

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
        with pytest.raises(DataError, match="^channel 'EEG Pz-Oz' not in "):
            find_signal(header, "EEG Pz-Oz")

    def test_digital_range_invariant(self):
        sig = eeg_signal_header(samples_per_record=4)
        sig.digital_min, sig.digital_max = 5, 5
        data = build_edf([(sig, np.zeros(4, dtype=np.int32))], record_count=1)
        with pytest.raises(DataError, match="^signal 0: digital_min 5 >= digital_max 5$"):
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
        with pytest.raises(DataError, match="^signal 'x': digital_min == digital_max$"):
            calibrate(np.array([7]), sig)

    def test_out_of_range_clamps_with_warning(self, caplog):
        sig = SignalHeader(label="x", physical_min=0.0, physical_max=10.0,
                           digital_min=0, digital_max=10)
        with caplog.at_level(logging.WARNING, logger="sleepstage.edf"):
            out = calibrate(np.array([-5, 15]), sig)
        np.testing.assert_allclose(out, [0.0, 10.0])
        assert any("clamped" in r.message for r in caplog.records)

    def test_out_of_range_int16_keeps_clamps_and_count(self, caplog):
        sig = SignalHeader(label="x", physical_min=-1.0, physical_max=1.0,
                           digital_min=-100, digital_max=100)
        digital = np.array([[-32768, -100, 0], [100, 101, 32767], [5, -101, 7]], dtype=np.int16)
        with caplog.at_level(logging.WARNING, logger="sleepstage.edf"):
            out = calibrate(digital[:, ::-1], sig)
        np.testing.assert_allclose(out, [[0.0, -1.0, -1.0], [1.0, 1.0, 1.0], [0.07, -1.0, 0.05]],
                                   rtol=0, atol=1e-15)
        assert out[1, 0] == out[1, 2] == 1.0 and out[0, 2] == out[2, 1] == -1.0
        assert [r.getMessage() for r in caplog.records] == [
            "signal 'x': clamped 4 samples outside [-100, 100]"]

    @pytest.mark.parametrize("outlier", [-101, 101])
    def test_one_sample_just_outside_is_clamped(self, caplog, outlier):
        sig = SignalHeader(label="x", physical_min=-1.0, physical_max=1.0,
                           digital_min=-100, digital_max=100)
        digital = np.array([-100, 100, outlier, 3], dtype=np.int16)
        with caplog.at_level(logging.WARNING, logger="sleepstage.edf"):
            out = calibrate(digital, sig)
        assert out[2] == np.sign(outlier)
        assert [r.getMessage() for r in caplog.records] == [
            "signal 'x': clamped 1 samples outside [-100, 100]"]

    def test_in_range_signal_logs_nothing(self, caplog):
        sig = SignalHeader(label="x", physical_min=0.0, physical_max=10.0,
                           digital_min=0, digital_max=10)
        with caplog.at_level(logging.WARNING, logger="sleepstage.edf"):
            calibrate(np.array([0, 10, 5], dtype=np.int16), sig)
            calibrate(np.zeros((0, 3), dtype=np.int16), sig)
        assert caplog.records == []

    def test_float64_input_comes_back_unmodified(self):
        sig = SignalHeader(label="x", physical_min=-3.0, physical_max=5.0,
                           digital_min=-20, digital_max=20)
        digital = RNG.uniform(-30, 30, size=50)
        before = digital.copy()
        out = calibrate(digital, sig)
        np.testing.assert_array_equal(digital, before)
        assert not np.shares_memory(out, digital)
        np.testing.assert_array_equal(
            out, sig.physical_min + (np.clip(before, -20, 20) + 20) * (8.0 / 40))

    @given(st.integers(-32768, 32000), st.integers(1, 65535),
           st.floats(-1e4, 1e4), st.floats(1e-3, 1e4), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_strided_record_columns_bit_equal_the_affine_map(self, dmin, drange, pmin, pwidth, seed):
        """As read_recording passes it: one signal's block of columns of the
        [records, samples per record] int16 table, a strided 2-D view."""
        dmax = min(dmin + drange, 32767)
        sig = SignalHeader(label="x", physical_min=pmin, physical_max=pmin + pwidth,
                           digital_min=dmin, digital_max=dmax)
        table = np.random.default_rng(seed).integers(dmin, dmax + 1, size=(6, 3 + 40 + 5),
                                                     dtype=np.int16)
        view = table[:, 3:43]
        out = calibrate(view, sig)
        gain = (sig.physical_max - sig.physical_min) / (dmax - dmin)
        expected = sig.physical_min + (view.astype(np.float64) - dmin) * gain
        assert out.dtype == np.float64 and out.shape == view.shape and out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes()

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
        with pytest.raises(DataError, match="^stage token 'Sleep stage 9'$"):
            map_label("Sleep stage 9")

    def test_code_bijection(self):
        codes = {int(s) for s in StageLabel}
        assert codes == {0, 1, 2, 3, 4}
        for s in StageLabel:
            assert StageLabel(int(s)) is s

    def test_parse_validates_vocabulary(self):
        with pytest.raises(DataError, match="^stage annotation 'X' at 0.0s$"):
            parse_hypnogram([(0.0, 30.0, "X")])

    def test_out_of_order_onsets(self):
        with pytest.raises(DataError, match="^onset 0.0s comes after 60.0s$"):
            parse_hypnogram([(60.0, 30.0, "W"), (0.0, 30.0, "1")])

    def test_overlapping_intervals(self):
        with pytest.raises(DataError,
                           match=r"^interval at 0.0s \(duration 60.0s\) overlaps onset 30.0s$"):
            parse_hypnogram([(0.0, 60.0, "W"), (30.0, 30.0, "1")])

    @pytest.mark.parametrize("onset, duration", [
        (float("nan"), 30.0), (float("inf"), 30.0), (0.0, float("inf")),
        (0.0, float("nan")), (1e308, 1e308), (60.0, -30.0)])
    def test_non_finite_or_negative_times(self, onset, duration):
        with pytest.raises(DataError, match=re.escape(f"stage annotation 'W' at {onset}s")):
            parse_hypnogram([(0.0, 30.0, "2"), (onset, duration, "W")])

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
    return EegRecording(subject_id="s1", sample_rate=rate, samples=RNG.normal(size=n))


def slots(rec: EegRecording, stages) -> list[int]:
    """The 30-s windows of rec that the stages score, in time order."""
    return scored_windows(stages, len(windows(rec)))[0].tolist()


class TestEpoching:
    def test_ninety_seconds_three_epochs(self):
        rec, stages = recording(90), [(0.0, 90.0, "W")]
        out = epoch_recording(rec, stages)
        assert len(out) == 3
        assert all(e.label is StageLabel.W and len(e.samples) == 3000 for e in out)
        assert slots(rec, stages) == [0, 1, 2]
        np.testing.assert_array_equal(out.samples, windows(rec))

    def test_trailing_partial_window_dropped(self):
        out = epoch_recording(recording(100), [(0.0, 100.0, "W")])
        assert len(out) == 3

    def test_interval_division(self):
        out = epoch_recording(recording(2700), [(0.0, 1800.0, "W"), (1800.0, 900.0, "1")])
        assert sum(1 for e in out if e.label is StageLabel.W) == 60
        assert sum(1 for e in out if e.label is StageLabel.N1) == 30

    def test_excluded_stage_leaves_gap(self):
        rec, stages = recording(90), [(0.0, 30.0, "W"), (30.0, 30.0, "M"), (60.0, 30.0, "R")]
        out = epoch_recording(rec, stages)
        assert slots(rec, stages) == [0, 2]
        np.testing.assert_array_equal(out.samples, windows(rec)[[0, 2]])
        assert [e.label for e in out] == [StageLabel.W, StageLabel.R]

    def test_non_integer_epoch_length(self):
        with pytest.raises(DataError,
                           match="^sample rate 100.01 Hz gives non-integer epoch length$"):
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
        rec, stages = recording(600), [(0.0, 600.0, "2")]
        idx = slots(rec, stages)
        assert all(a < b for a, b in zip(idx, idx[1:]))
        np.testing.assert_array_equal(epoch_recording(rec, stages).samples, windows(rec)[idx])

    def test_rows_are_their_windows(self):
        rec, stages = recording(300), [(60.0, 90.0, "R"), (0.0, 30.0, "W"), (210.0, 60.0, "2")]
        out = epoch_recording(rec, stages)
        assert isinstance(out, EpochSet) and out.samples.dtype == np.float64
        assert slots(rec, stages) == [0, 2, 3, 4, 7, 8]
        assert out.subjects.tolist() == ["s1"] * 6
        for w, row in zip(slots(rec, stages), out.samples):
            np.testing.assert_array_equal(row, rec.samples[w * 3000:(w + 1) * 3000])


    def test_windows_view_the_signal(self):
        rec = recording(100)
        grid = windows(rec)
        assert grid.shape == (3, 3000) and np.shares_memory(grid, rec.samples)
        np.testing.assert_array_equal(grid.reshape(-1), rec.samples[:9000])

    @pytest.mark.parametrize("second", ["Sleep stage 1", "Sleep stage W"],
                             ids=["other-label", "same-label"])
    def test_window_inside_two_scored_intervals_rejected(self, second):
        # window 1 (30-60 s) lies inside both intervals
        with pytest.raises(DataError, match="intervals at 0s and 30s") as exc:
            scored_windows([(0, 60, "Sleep stage W"), (30, 60, second)], 4)
        assert exc.value.exit_code == 3

    @pytest.mark.parametrize("excluded", ["Movement time", "Sleep stage ?"])
    def test_overlap_with_an_excluded_interval_passes(self, excluded):
        index, labels = scored_windows([(0, 60, "Sleep stage W"), (30, 60, excluded)], 4)
        assert index.tolist() == [0, 1]
        assert labels.tolist() == [int(StageLabel.W)] * 2

    def test_scored_windows_of_an_empty_grid(self):
        index, labels = scored_windows([(0.0, 90.0, "W")], 0)
        assert index.dtype == labels.dtype == np.int64
        assert index.size == labels.size == 0


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
        epochs = epoch_set(RNG.normal(size=(7, 300)), np.arange(7) % 5)
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

    @pytest.mark.parametrize("save", ["epochs", "stats", "arrays", "metrics", "training_log"])
    def test_interrupted_write_keeps_previous_bytes(self, tmp_path, monkeypatch, save):
        """A write that fails mid-file leaves the old file whole and no temp."""
        def write(path, value):
            if save == "epochs":
                cache.save_epochs(epoch_set(np.full((2, 5), value), [1, 2]), path)
            elif save == "stats":
                cache.save_stats(NormalizationStats(s05=-value, s95=value), path)
            elif save == "arrays":
                save_arrays({"w": np.full(3, value)}, "k = v\n", path)
            elif save == "metrics":
                write_metrics_json({"summary": {"overall_accuracy": value}}, path)
            else:
                write_training_log([LogRow(1, 10, value, None, None, None),
                                    LogRow(2, 20, value / 2, 80.0, 0.7, 0.6)], path)

        path = tmp_path / "artifact"
        write(path, 1.0)
        before = path.read_bytes()

        class FailsMidFile:
            def __init__(self, name, mode):
                self.fh = open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(bytes(data)[:3])
                self.fh.flush()
                raise OSError("device full")

        monkeypatch.setattr(files, "open", FailsMidFile, raising=False)
        with pytest.raises(OSError, match="device full"):
            write(path, 2.0)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
        monkeypatch.undo()
        write(path, 2.0)
        assert path.read_bytes() != before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_write_atomic_publishes_in_one_rename(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"old")

        def write(fh):
            fh.write(b"new ")
            assert path.read_bytes() == b"old"
            fh.write(b"bytes")
        files.write_atomic(path, write)
        assert path.read_bytes() == b"new bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["f"]

    def test_shuffled_epochs_load_back_in_the_order_given(self, tmp_path):
        epochs = epoch_set(RNG.normal(size=(6, 7)), [0, 1, 2, 3, 4, 0])
        shuffled = epochs[np.asarray([3, 0, 5, 1, 4, 2])]
        cache.save_epochs(shuffled, tmp_path / "s.epochs")
        loaded = cache.load_epochs(tmp_path / "s.epochs", "s")
        np.testing.assert_array_equal(loaded.samples, shuffled.samples.astype(np.float32))
        assert loaded.labels.tolist() == [3, 0, 0, 1, 4, 2]

    def test_stats_round_trip(self, tmp_path):
        stats = NormalizationStats(s05=-12.3456789012345, s95=98.7654321098765)
        path = tmp_path / "s.stats"
        cache.save_stats(stats, path)
        values = parse_kv_text(path.read_text())
        assert NormalizationStats(s05=float(values["s05"]), s95=float(values["s95"])) == stats

    def test_written_bytes_literal(self, tmp_path):
        epochs = epoch_set([[1.0, 0.0, -0.5, 3.0], [-2.0, 0.125, 4.0, -0.75],
                            [0.5, -1.0, 2.0, 0.25]],
                           [StageLabel.W, StageLabel.N3, StageLabel.R])
        path = tmp_path / "s.epochs"
        cache.save_epochs(epochs, path)
        assert path.read_bytes() == bytes.fromhex(
            "53534531" "02000000" "03000000"  # magic, version 2, 3 epochs
            "04" "00" "03"  # labels by row: W, N3, R
            "0000803f" "00000000" "000000bf" "00004040"  # row 0: 1, 0, -0.5, 3
            "000000c0" "0000003e" "00008040" "000040bf"  # row 1: -2, 0.125, 4, -0.75
            "0000003f" "000080bf" "00000040" "0000803e")  # row 2: 0.5, -1, 2, 0.25

    def test_load_all_joins_files_in_name_order(self, tmp_path):
        epochs = epoch_set(RNG.normal(size=(3, 10)), np.arange(3), "a")
        cache.save_epochs(epochs, tmp_path / "a__n1.epochs")
        cache.save_epochs(epochs, tmp_path / "a__n2.epochs")
        cache.save_epochs(epochs, tmp_path / "b__n1.epochs")
        loaded = cache.load_all(tmp_path)
        assert isinstance(loaded, EpochSet)
        assert loaded.samples.dtype == np.float32
        np.testing.assert_array_equal(loaded.samples,
                                      np.tile(epochs.samples.astype(np.float32), (3, 1)))
        assert loaded.labels.tolist() == [0, 1, 2] * 3
        assert loaded.subjects.tolist() == ["a"] * 6 + ["b"] * 3

    def test_load_all_of_empty_directory_is_empty(self, tmp_path):
        loaded = cache.load_all(tmp_path)
        assert isinstance(loaded, EpochSet)
        assert len(loaded) == 0 and not loaded

    def test_rejects_label_byte_outside_stage_codes(self, tmp_path):
        path = tmp_path / "s.epochs"
        cache.save_epochs(epoch_set(np.zeros((3, 4)), [StageLabel.W] * 3), path)
        blob = bytearray(path.read_bytes())
        blob[12 + 1] = 9  # label byte of the second epoch
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedFile, match="label byte 9 is not a stage code"):
            cache.load_epochs(path, "s")

    def test_rejects_mixed_epoch_lengths(self, tmp_path):
        for name, length in (("a__n1", 4), ("a__n2", 5)):
            cache.save_epochs(epoch_set(np.zeros((1, length)), [StageLabel.W], "a"),
                              tmp_path / f"{name}.epochs")
        with pytest.raises(DataError, match="mix epoch lengths"):
            cache.load_all(tmp_path)

    LENGTH = 3000

    def save_night(self, path, count, seed):
        rng = np.random.default_rng(seed)
        cache.save_epochs(epoch_set(rng.normal(size=(count, self.LENGTH)).astype(np.float32),
                                    rng.integers(0, len(StageLabel), count)), path)

    def test_load_all_equals_the_joined_files(self, tmp_path):
        """Files of 1 to 65 epochs, across two subjects, load byte for byte as
        the whole files viewed and joined."""
        counts = {"a__n1": 1, "a__n2": 31, "b__n1": 32, "a__n3": 33, "b__n2": 65}
        for seed, (name, count) in enumerate(counts.items()):
            self.save_night(tmp_path / f"{name}.epochs", count, seed)
        loaded, expected = cache.load_all(tmp_path), reference_load_all(tmp_path)
        assert len(loaded) == sum(counts.values())
        for column in ("samples", "labels", "subjects"):
            got, want = getattr(loaded, column), getattr(expected, column)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    def test_rejects_label_byte_of_a_later_epoch(self, tmp_path):
        path = tmp_path / "s.epochs"
        self.save_night(path, 65, 0)
        blob = bytearray(path.read_bytes())
        blob[12 + 35] = 7  # label byte of the 36th epoch
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedFile, match="label byte 7 is not a stage code"):
            cache.load_all(tmp_path)

    @pytest.mark.parametrize("grow", [False, True], ids=["truncated", "grown"])
    def test_file_changed_after_its_header_is_truncated_file(self, tmp_path, monkeypatch, grow):
        """A file cut short or grown between the header check and the read
        stops the load with TruncatedFile naming it."""
        path = tmp_path / "s__n1.epochs"
        self.save_night(path, 33, 0)
        header = cache._header

        def header_then_change(p):
            result = header(p)
            blob = p.read_bytes()
            p.write_bytes(blob + blob[12:] if grow else blob[:-100])
            return result
        monkeypatch.setattr(cache, "_header", header_then_change)
        with pytest.raises(TruncatedFile, match=f"^{re.escape(str(path))}: changed while it was loaded$"):
            cache.load_all(tmp_path)

    def test_load_holds_one_copy_of_the_samples(self, tmp_path):
        """A load's traced peak is its result's samples and labels, plus
        less than 1 MiB: no file is held whole beside the joined rows."""
        for i in range(8):
            self.save_night(tmp_path / f"s{i % 2}__n{i}.epochs", 40 + i, i)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            loaded = cache.load_all(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) == sum(40 + i for i in range(8))
        assert peak <= loaded.samples.nbytes + loaded.labels.nbytes + (1 << 20)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_any_bytes_load_or_are_truncated_file(self, tmp_path_factory, blob):
        self._loads_or_is_truncated(tmp_path_factory, blob)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_byte_mutation_loads_or_is_truncated_file(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("cache") / "s.epochs"
        cache.save_epochs(epoch_set(RNG.normal(size=(4, 3)), np.arange(4) % 5), path)
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
    def epochs(self, dtype=np.float64):
        return epoch_set(RNG.normal(size=(5, 8)).astype(dtype), np.arange(5) % 5,
                         [f"s{i % 2}" for i in range(5)])

    def test_integer_index_is_a_float64_labeled_epoch(self):
        es = self.epochs(np.float32)
        e = es[np.int64(3)]
        assert isinstance(e, LabeledEpoch)
        assert e.samples.dtype == np.float64
        assert (e.label, e.subject_id) == (StageLabel.R, "s1")
        assert type(e.subject_id) is str
        assert es[-1].label is StageLabel.W
        assert [x.label for x in es] == list(StageLabel)

    def test_slice_and_index_array_give_sets(self):
        es = self.epochs()
        part = es[1:3]
        assert isinstance(part, EpochSet) and part.labels.tolist() == [1, 2]
        picked = es[np.asarray([4, 0])]
        assert isinstance(picked, EpochSet)
        assert picked.labels.tolist() == [4, 0]
        assert picked.subjects.tolist() == ["s0", "s0"]


# sha256 of the cache files of golden_night: the stats recorded at the commit
# before compute_stats used histogram selection (np.percentile then), the
# epochs at the cache's version-2 (columns) layout
GOLDEN_DIGESTS = {
    "golden.epochs": "496ad43e81bc1ac27f536686a2f9c2f0446eb67a7eba0973e66c8b269b83cbd6",
    "golden.stats": "f7a1f375ab11589337182ad8be419f47aa2f2f90d43d61fb9fd67803fc0ee5c5",
}
# sha256 of the samples and labels that load_epochs gives for golden.epochs;
# the version-1 layout (one label-and-samples record per epoch) loaded the
# same bytes
GOLDEN_LOADED_DIGESTS = {
    "samples": "61c43463013d229b825ece5f76befdc83b8a095a942f9b995dea46dc7ba40b44",
    "labels": "44e71b463b4fa5fb269ff9da82d260b8c06f597394d90146ef522fd6e500c479",
}


def golden_night() -> bytes:
    """A seeded 60-epoch night at 100 Hz: a 16-bit EEG channel between a
    12-bit EOG channel and its stage annotations, so the EEG's samples are a
    strided block of columns of the record table. Scored W/1/2/3/4/R with a
    movement and an unscored stretch that leave gaps in the window grid."""
    rng = np.random.default_rng(20240417)
    n, spr = 60, 3000
    eog = SignalHeader(label="EOG horizontal", physical_dimension="uV",
                       physical_min=-204.8, physical_max=204.7,
                       digital_min=-2048, digital_max=2047, samples_per_record=spr)
    eeg = SignalHeader(label="EEG Fpz-Cz", physical_dimension="uV",
                       physical_min=-500.0, physical_max=500.0,
                       digital_min=-32768, digital_max=32767, samples_per_record=spr)
    eeg_digital = np.clip(np.round(2500.0 * rng.standard_t(4, size=n * spr)), -32768, 32767)
    eog_digital = rng.integers(-2048, 2048, size=n * spr)
    runs = [("W", 5), ("1", 3), ("2", 10), ("M", 2), ("3", 6), ("4", 4), ("2", 8),
            ("R", 7), ("?", 3), ("2", 5), ("W", 7)]
    intervals, onset = [], 0.0
    for token, count in runs:
        intervals.append((onset, 30.0 * count, token))
        onset += 30.0 * count
    annotations = encode_annotation_signal(intervals, record_count=n, record_duration=30.0,
                                           samples_per_record=16 * (2 + len(intervals)))
    return build_edf([(eog, eog_digital.astype(np.int32)),
                      (eeg, eeg_digital.astype(np.int32)), annotations],
                     record_count=n, record_duration=Fraction(30))


class TestGoldenIngest:
    def test_cache_bytes_pinned(self, tmp_path):
        """preprocess's calls on golden_night write the pinned bytes."""
        psg = golden_night()
        rec = read_recording(psg, "EEG Fpz-Cz", "golden")
        stages = parse_hypnogram(psg)
        stats = compute_stats(rec.samples)
        rec.samples = normalize(rec.samples, stats)
        epochs = epoch_recording(rec, stages)
        cache.save_epochs(epochs, tmp_path / "golden.epochs")
        cache.save_stats(stats, tmp_path / "golden.stats")
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("golden.epochs", "golden.stats")}
        assert len(epochs) == 55
        assert digests == GOLDEN_DIGESTS
        loaded = cache.load_epochs(tmp_path / "golden.epochs", "golden")
        assert (loaded.samples.dtype, loaded.labels.dtype) == (np.float32, np.int64)
        assert {name: hashlib.sha256(getattr(loaded, name).tobytes()).hexdigest()
                for name in GOLDEN_LOADED_DIGESTS} == GOLDEN_LOADED_DIGESTS


class TestIngestChain:
    """preprocess's calls on one night: read_recording, compute_stats,
    normalize, epoch_recording, save_epochs."""

    def test_epochs_are_what_their_cache_file_gives_back(self, tmp_path):
        psg = golden_night()
        rec = read_recording(psg, "EEG Fpz-Cz", "golden")
        rec.samples = normalize(rec.samples, compute_stats(rec.samples))
        epochs = epoch_recording(rec, parse_hypnogram(psg))
        cache.save_epochs(epochs, tmp_path / "golden.epochs")
        loaded = cache.load_epochs(tmp_path / "golden.epochs", "golden")
        assert epochs.samples.dtype == np.float32
        for name in ("samples", "labels", "subjects"):
            mine, back = getattr(epochs, name), getattr(loaded, name)
            assert (mine.dtype, mine.shape) == (back.dtype, back.shape), name
            assert mine.tobytes() == back.tobytes(), name

    def test_peak_memory_holds_no_whole_night_float64_temporary(self, tmp_path):
        """Beyond the PSG bytes, the chain's traced peak stays within 1.75x
        the night's float64 samples: the physical samples (1x), the float32
        normalized signal (0.5x) and a few blocks of work. A whole-night
        float64 normalized copy or float64 epoch rows would add 1x each."""
        n_epochs = 480  # 4 h at 100 Hz, scored in 10-minute stretches
        build_corpus_recording(tmp_path, "s", [4] * 20 + [3] * 20 + [2] * 20 + [1] * 20 + [0] * 20,
                               n_epochs, seed=0, sidecar_hypnogram=False)
        tracemalloc.start()
        try:
            psg = (tmp_path / "s-PSG.edf").read_bytes()
            rec = read_recording(psg, "EEG Fpz-Cz", "s")
            stages = parse_hypnogram(psg)
            stats = compute_stats(rec.samples)
            rec.samples = normalize(rec.samples, stats)
            epochs = epoch_recording(rec, stages)
            cache.save_epochs(epochs, tmp_path / "night.epochs")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(epochs) == n_epochs
        assert peak - len(psg) <= 1.75 * (n_epochs * 3000 * 8)


@pytest.fixture(scope="module")
def tiny_entry(tmp_path_factory):
    """A tiny night's PSG and hypnogram bytes, the cache entry a fresh
    `cache.ingest_night` writes for them (file name -> bytes) and the epochs
    it returns."""
    corpus = tmp_path_factory.mktemp("night")
    build_corpus_recording(corpus, "n", [4, 3, 2, 1, 0], n_epochs=6, seed=5, rate=10)
    psg, hyp = (corpus / "n-PSG.edf").read_bytes(), (corpus / "n-Hypnogram.edf").read_bytes()
    epochs = cache.ingest_night(psg, hyp, EEG_CHANNEL, corpus, "n__n", "n")
    return psg, hyp, {p.name: p.read_bytes() for p in corpus.glob("n__n.*")}, epochs


def _damage(data, entry: dict[str, bytes]) -> tuple[str, bytes]:
    """(file name, damaged bytes) of one file of a cache entry: an edited,
    non-UTF-8 or truncated `.src`, or an `.epochs` truncated, with its epoch
    count scaled by 1e5, with another version word, or with a label byte
    that is no stage code. Flipped sample bytes are left out: no checksum
    covers them, so such an entry loads as up to date. So is a truncation
    by a whole number of float32 samples per row, which loads as shorter
    rows (see the xfail below)."""
    kind = data.draw(st.sampled_from(["src-edit", "src-non-utf8", "src-truncate",
                                      "epochs-truncate", "epochs-count", "epochs-version",
                                      "epochs-label"]))
    name = "n__n.src" if kind.startswith("src") else "n__n.epochs"
    blob = bytearray(entry[name])
    count = struct.unpack_from("<I", entry["n__n.epochs"], 8)[0]
    if kind == "src-edit":
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    elif kind == "src-non-utf8":  # .src is ASCII, so any byte >= 0x80 is invalid UTF-8
        at = data.draw(st.integers(0, len(blob)))
        blob[at:at] = bytes([data.draw(st.integers(0x80, 0xFF))])
    elif kind.endswith("truncate"):
        keep = st.integers(0, len(blob) - 1)
        if kind == "epochs-truncate":
            keep = keep.filter(lambda n: n < 12 or (n - 12 - count) % (4 * count))
        del blob[data.draw(keep):]
    elif kind == "epochs-count":
        struct.pack_into("<I", blob, 8, count * 10**5)
    elif kind == "epochs-version":
        struct.pack_into("<I", blob, 4, data.draw(
            st.integers(0, 2**32 - 1).filter(lambda v: v != cache.VERSION)))
    else:
        blob[12 + data.draw(st.integers(0, count - 1))] = data.draw(st.integers(5, 255))
    return name, bytes(blob)


class TestIngestNight:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_damaged_entry_is_rebuilt_to_fresh_bytes(self, tmp_path_factory, tiny_entry, data):
        """Whatever damage an entry's `.src` or `.epochs` takes, one
        `ingest_night` leaves the entry's files with a fresh build's bytes
        and returns the epochs a fresh build returns."""
        psg, hyp, fresh, epochs = tiny_entry
        name, damaged = _damage(data, fresh)
        cache_dir = tmp_path_factory.mktemp("cache")
        for file, blob in fresh.items():
            (cache_dir / file).write_bytes(damaged if file == name else blob)
        got = cache.ingest_night(psg, hyp, EEG_CHANNEL, cache_dir, "n__n", "n")
        assert {p.name: p.read_bytes() for p in cache_dir.iterdir()} == fresh
        for column in ("samples", "labels", "subjects"):
            mine, back = getattr(got, column), getattr(epochs, column)
            assert (mine.dtype, mine.shape, mine.tobytes()) == (back.dtype, back.shape,
                                                                back.tobytes()), column

    @pytest.mark.xfail(strict=True, reason="an .epochs file cut by 4 bytes per epoch parses "
                                           "as one sample fewer per row, and nothing records "
                                           "the row length to refuse it")
    def test_entry_cut_by_one_sample_per_row_is_rebuilt(self, tmp_path, tiny_entry):
        psg, hyp, fresh, epochs = tiny_entry
        for file, blob in fresh.items():
            (tmp_path / file).write_bytes(blob)
        cut = tmp_path / "n__n.epochs"
        cut.write_bytes(fresh[cut.name][:-4 * len(epochs)])
        got = cache.ingest_night(psg, hyp, EEG_CHANNEL, tmp_path, "n__n", "n")
        assert got.samples.shape == epochs.samples.shape
