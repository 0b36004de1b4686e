import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import smf
from sing import midi_io
from sing.midi_io import (
    MAX_SAMPLES,
    MidiParseError,
    Notes,
    PianoRoll,
    estimate_tempo,
    load_proll,
    parse_midi,
    proll_from_bytes,
    proll_to_bytes,
    save_proll,
    to_midi,
    to_piano_roll,
)


def make_roll(active: dict[int, list[int]], n: int, tempo: float = 120.0) -> PianoRoll:
    data = np.zeros((128, n), dtype=np.uint8)
    for pitch, samples in active.items():
        data[pitch, samples] = 1
    return PianoRoll(data=data, tempo=tempo, source_id="test")


def notes(*rows: tuple[int, float, float, int]) -> Notes:
    """Notes from (pitch, onset, offset, velocity) rows."""
    return Notes(*(zip(*rows) if rows else ([], [], [], [])))


def rows(events: Notes) -> list[tuple[int, float, float, int]]:
    columns = (events.pitch, events.onset, events.offset, events.velocity)
    return list(zip(*(column.tolist() for column in columns)))


def parse_matches_oracle(data: bytes) -> None:
    """parse_midi gives the per-event parser's notes bit for bit and its
    warnings, or raises the same MidiParseError at the same offset."""
    try:
        want, want_warnings = oracles.parse_midi_per_event(data)
    except MidiParseError as err:
        with pytest.raises(MidiParseError) as got:
            parse_midi(data)
        assert (str(got.value), got.value.offset) == (str(err), err.offset)
        return
    parsed = parse_midi(data)
    assert rows(parsed.events) == want
    assert parsed.warnings == want_warnings


class TestNotes:
    def test_columns_coerced(self):
        events = notes((60, 0, 1, 64), (61, 0.5, 2.0, 0))
        assert events.pitch.dtype == np.int64 and events.velocity.dtype == np.int64
        assert events.onset.dtype == np.float64 and events.offset.dtype == np.float64
        assert len(events) == 2 and len(notes()) == 0

    @pytest.mark.parametrize(
        "row, message",
        [
            ((128, 0.0, 1.0, 64), "pitch 128 outside 0..127"),
            ((-1, 0.0, 1.0, 64), "pitch -1 outside 0..127"),
            ((60, 1.0, 1.0, 64), r"need offset > onset >= 0, got \[1.0, 1.0\)"),
            ((60, -0.5, 1.0, 64), r"got \[-0.5, 1.0\)"),
            ((60, float("nan"), 1.0, 64), r"got \[nan, 1.0\)"),
            ((60, 0.0, 1.0, 128), "velocity 128 outside 0..127"),
        ],
    )
    def test_each_note_checked_by_the_note_rules(self, row, message):
        with pytest.raises(ValueError, match=message):
            notes((60, 0.0, 1.0, 64), row)

    def test_columns_of_one_length(self):
        with pytest.raises(ValueError, match="1-D of one length"):
            Notes([60, 61], [0.0], [1.0], [64])
        with pytest.raises(ValueError, match="1-D of one length"):
            Notes([[60]], [[0.0]], [[1.0]], [[64]])

    def test_equality_compares_every_column(self):
        assert notes((60, 0.0, 1.0, 64)) == notes((60, 0.0, 1.0, 64))
        assert notes((60, 0.0, 1.0, 64)) != notes((60, 0.0, 1.0, 65))
        assert notes((60, 0.0, 1.0, 64)) != notes((60, 0.0, 1.0, 64), (61, 0.0, 1.0, 64))


class TestParse:
    def test_single_note_default_tempo(self):
        # 480 ticks at 480 tpq and the default 120 BPM is one quarter = 0.5 s
        parsed = parse_midi(smf.single_note_file(tpq=480, pitch=60, on=0, off=480))
        assert parsed.events == notes((60, 0.0, 0.5, 64))

    def test_empty_track(self):
        data = smf.header(0, 1, 480) + smf.track(b"")
        assert parse_midi(data).events == notes()

    def test_velocity_zero_is_note_off(self):
        body = smf.note_on(0, 60, 64) + smf.vlq(480) + bytes((0x90, 60, 0))
        parsed = parse_midi(smf.header(0, 1, 480) + smf.track(body))
        assert parsed.events == notes((60, 0.0, 0.5, 64))

    def test_running_status(self):
        # second note-on omits the status byte
        body = smf.note_on(0, 60, 64) + smf.vlq(0) + bytes((64, 64))
        body += smf.note_off(480, 60) + smf.note_off(0, 64)
        parsed = parse_midi(smf.header(0, 1, 480) + smf.track(body))
        assert parsed.events.pitch.tolist() == [60, 64]

    def test_tempo_change_applies(self):
        # 240 BPM from tick 0: 480 ticks -> 0.25 s
        body = smf.tempo_meta(0, 250_000) + smf.note_on(0, 60) + smf.note_off(480, 60)
        parsed = parse_midi(smf.header(0, 1, 480) + smf.track(body))
        assert parsed.events.offset[0] == pytest.approx(0.25, abs=1e-12)

    def test_format_1_merges_tracks_and_tempo(self):
        tempo_track = smf.track(smf.tempo_meta(0, 1_000_000))  # 60 BPM
        note_track = smf.track(smf.note_on(0, 72) + smf.note_off(480, 72))
        parsed = parse_midi(smf.header(1, 2, 480) + tempo_track + note_track)
        assert parsed.events == notes((72, 0.0, 1.0, 64))

    def test_unterminated_note_closes_at_end_of_track(self):
        body = smf.note_on(0, 60)
        parsed = parse_midi(smf.header(0, 1, 480) + smf.track(body, end_delta=960))
        assert parsed.events == notes((60, 0.0, 1.0, 64))
        assert any("unterminated" in w for w in parsed.warnings)

    def test_notes_ordered_by_onset_pitch_offset_velocity(self):
        body = b"".join(smf.note_on(0, 60, velocity, channel)
                        for channel, velocity in ((0, 10), (1, 100), (2, 50)))
        body += smf.note_on(0, 59, 127, 0) + smf.note_off(480, 60, 0, 1)
        body += smf.note_off(0, 60, 0, 2) + smf.note_off(0, 59) + smf.note_off(480, 60)
        data = smf.header(0, 1, 480) + smf.track(body)
        assert parse_midi(data).events == notes(
            (59, 0.0, 0.5, 127), (60, 0.0, 0.5, 50), (60, 0.0, 0.5, 100), (60, 0.0, 1.0, 10)
        )
        parse_matches_oracle(data)

    def test_malformed_header_reports_offset(self):
        with pytest.raises(MidiParseError) as err:
            parse_midi(b"XXXX" + bytes(20))
        assert err.value.offset == 0

    def test_format_2_rejected(self):
        with pytest.raises(MidiParseError):
            parse_midi(smf.header(2, 1, 480) + smf.track(b""))

    def test_smpte_division_rejected(self):
        import struct

        data = struct.pack(">4sIHHH", b"MThd", 6, 0, 1, 0x8000 | (0x9C << 8) | 40)
        with pytest.raises(MidiParseError):
            parse_midi(data + smf.track(b""))

    def test_deterministic(self):
        data = smf.single_note_file()
        assert parse_midi(data).events == parse_midi(data).events

    def test_smoke_corpus_100_files(self):
        rng = np.random.default_rng(7)
        n_parsed = 0
        for i in range(60):
            n = int(rng.integers(1, 30))
            data = np.zeros((128, n), dtype=np.uint8)
            for _ in range(int(rng.integers(1, 12))):
                pitch = int(rng.integers(0, 128))
                start = int(rng.integers(0, n))
                stop = int(rng.integers(start + 1, n + 1))
                data[pitch, start:stop] = 1
            data[int(rng.integers(0, 128)), n - 1] = 1
            tempo = float(rng.uniform(40, 300))
            blob = to_midi(PianoRoll(data=data, tempo=tempo))
            assert len(parse_midi(blob).events) or data.sum() == 0
            parse_matches_oracle(blob)
            n_parsed += 1
        for i in range(40):
            fmt = 1 if i % 2 else 0
            tracks = []
            n_tracks = 2 if fmt == 1 else 1
            for _ in range(n_tracks):
                body = smf.tempo_meta(0, int(rng.integers(200_000, 1_200_000)))
                tick_gap = int(rng.integers(1, 800))
                for _ in range(int(rng.integers(1, 20))):
                    pitch = int(rng.integers(0, 128))
                    body += smf.note_on(tick_gap, pitch, int(rng.integers(1, 128)))
                    body += smf.note_off(int(rng.integers(1, 800)), pitch)
                tracks.append(smf.track(body))
            blob = smf.header(fmt, n_tracks, int(rng.integers(24, 960))) + b"".join(tracks)
            parse_matches_oracle(blob)
            n_parsed += 1
        assert n_parsed == 100


class TestEstimateTempo:
    def test_median_ioi(self):
        events = notes(*[(60, t, t + 0.1, 64) for t in (0.0, 0.5, 1.0)])
        assert estimate_tempo(events) == pytest.approx(120.0)

    def test_single_note_fallback(self):
        assert estimate_tempo(notes((60, 0.0, 1.0, 64))) == 120.0

    def test_clamped_to_300(self):
        events = notes(*[(60, i * 0.1, i * 0.1 + 0.05, 64) for i in range(10)])
        assert estimate_tempo(events) == 300.0

    def test_clamped_to_40(self):
        events = notes(*[(60, i * 10.0, i * 10.0 + 0.05, 64) for i in range(4)])
        assert estimate_tempo(events) == 40.0

    def test_duplicate_onsets_collapse(self):
        events = notes((60, 0.0, 0.1, 64), (64, 0.0, 0.1, 64), (67, 0.5, 0.6, 64))
        assert estimate_tempo(events) == pytest.approx(120.0)

    def test_empty_fallback(self):
        assert estimate_tempo(notes()) == 120.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 50.0), max_size=30))
    def test_matches_the_per_note_estimate(self, onsets):
        rows = [(60, onset, onset + 0.25, 64) for onset in onsets]
        assert estimate_tempo(notes(*rows)) == oracles.estimate_tempo_per_note(rows)


class TestToPianoRoll:
    def test_one_second_note_two_samples(self):
        roll = to_piano_roll(notes((60, 0.0, 1.0, 64)), 120.0)
        assert roll.n_samples == 2
        assert roll.data[60].tolist() == [1, 1]
        assert roll.data.sum() == 2

    def test_binarized_regardless_of_velocity(self):
        roll = to_piano_roll(notes((60, 0.0, 1.0, 127)), 120.0)
        assert set(np.unique(roll.data)) <= {0, 1}
        assert roll.data[60, 0] == 1

    def test_note_between_instants_silent(self):
        roll = to_piano_roll(notes((60, 0.25, 0.3, 64)), 120.0)
        assert roll.n_samples == 1
        assert roll.data.sum() == 0

    def test_empty_events_error(self):
        with pytest.raises(ValueError, match="empty piece"):
            to_piano_roll(notes(), 120.0)

    def test_overlapping_notes_of_one_pitch_stay_binary(self):
        roll = to_piano_roll(notes((60, 0.0, 2.0, 64), (60, 0.5, 1.0, 64)), 120.0)
        assert roll.data[60].tolist() == [1, 1, 1, 1]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 127), st.floats(0.0, 20.0), st.floats(1e-9, 5.0)),
            min_size=1,
            max_size=40,
        ),
        st.floats(40.0, 300.0),
    )
    def test_matches_the_per_note_sampler(self, spans, tempo):
        rows = [(pitch, onset, onset + length, 64) for pitch, onset, length in spans]
        roll = to_piano_roll(notes(*rows), tempo)
        assert np.array_equal(roll.data, oracles.to_piano_roll_per_note(rows, tempo))

    def test_length_capped_before_allocating(self):
        at_cap = to_piano_roll(notes((60, 0.0, MAX_SAMPLES * 0.5, 64)), 120.0)
        assert at_cap.n_samples == MAX_SAMPLES
        with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
            to_piano_roll(notes((60, 0.0, MAX_SAMPLES * 0.5 + 0.5, 64)), 120.0)

    def test_tiny_file_naming_a_huge_piece_rejected(self):
        # 37 bytes: division 1, one note held 0x0FFFFFFF ticks, which the
        # sampler would make a 268,435,455-sample (34 GB) roll
        data = smf.single_note_file(tpq=1, on=0, off=0x0FFFFFFF)
        assert len(data) == 37
        events = parse_midi(data).events
        with pytest.raises(ValueError, match="268435455 samples"):
            to_piano_roll(events, estimate_tempo(events))

    def test_tick_span_past_int64_microseconds_stays_exact(self):
        # 2,100 four-byte deltas at the slowest tempo: the tick span times
        # microseconds per quarter passes 2**63, where an int64 product
        # would wrap to a negative length; the piece is excluded by its
        # exact length, as by the per-event parser
        body = smf.tempo_meta(0, 0xFFFFFF) + smf.note_on(0, 60)
        body += smf.note_off(0x0FFFFFFF, 61) * 2_100 + smf.note_off(0, 60)
        data = smf.header(0, 1, 1) + smf.track(body)
        assert 2_100 * 0x0FFFFFFF * 0xFFFFFF > 2**63 and len(data) < 16_000
        parse_matches_oracle(data)
        want, _ = oracles.parse_midi_per_event(data)
        with pytest.raises(ValueError, match="samples, more than") as err:
            oracles.to_piano_roll_per_note(want, oracles.estimate_tempo_per_note(want))
        events = parse_midi(data).events
        with pytest.raises(ValueError, match=f"^{err.value}$"):
            to_piano_roll(events, estimate_tempo(events))


class TestToMidi:
    def test_runs_become_notes(self):
        roll = make_roll({60: [0, 1, 3]}, 4)
        events = parse_midi(to_midi(roll)).events
        spans = list(zip(events.onset.tolist(), events.offset.tolist()))
        assert spans == [pytest.approx((0.0, 1.0)), pytest.approx((1.5, 2.0))]

    def test_all_zero_roll_no_notes(self):
        roll = make_roll({}, 3)
        assert parse_midi(to_midi(roll)).events == notes()

    def test_velocity_is_80(self):
        roll = make_roll({64: [0]}, 1)
        assert parse_midi(to_midi(roll)).events.velocity[0] == 80

    def test_round_trip_exact(self):
        roll = make_roll({60: [0, 1], 61: [1]}, 2)
        reparsed = to_piano_roll(parse_midi(to_midi(roll)).events, 120.0)
        assert reparsed == roll

    @pytest.mark.parametrize(
        "tempo, tick",
        [
            (199.99978741519195, 470400),  # 49 samples span 470400.5 ticks: down to even
            (150.000159438945, 470400),  # 49 samples span 470399.5 ticks: up to even
        ],
    )
    def test_half_tick_rounds_half_to_even(self, tempo, tick):
        roll = make_roll({60: [49]}, 50, tempo=tempo)
        blob = to_midi(roll)
        assert blob == oracles.to_midi_per_pitch(roll)
        assert smf.tempo_meta(0, round(60e6 / tempo)) + smf.note_on(tick, 60, 80) in blob


def _roll_ending_on(seed: int, n: int, tempo: float) -> PianoRoll:
    rng = np.random.default_rng(seed)
    data = (rng.random((128, n)) < 0.05).astype(np.uint8)
    data[int(rng.integers(0, 128)), n - 1] = 1
    return PianoRoll(data=data, tempo=tempo)


ROLL_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 50),
    tempo=st.floats(40.0, 300.0, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(**ROLL_CASES)
def test_round_trip_property(seed, n, tempo):
    # restricted to rolls whose final sample is not silent: the reparsed
    # sample count comes from the last note offset, so trailing silence
    # cannot survive any roll -> MIDI -> roll cycle
    roll = _roll_ending_on(seed, n, tempo)
    reparsed = to_piano_roll(parse_midi(to_midi(roll)).events, tempo)
    assert reparsed.n_samples == n
    assert (reparsed.data == roll.data).all()


@settings(max_examples=100, deadline=None)
@given(**ROLL_CASES)
@example(seed=1, n=50, tempo=199.99978741519195)  # sample 49 lands on tick 470400.5
@example(seed=2, n=50, tempo=150.000159438945)  # sample 49 lands on tick 470399.5
def test_to_midi_matches_the_per_pitch_writer(seed, n, tempo):
    roll = _roll_ending_on(seed, n, tempo)
    assert to_midi(roll) == oracles.to_midi_per_pitch(roll)


class TestParseFuzz:
    """Whatever the bytes, parse_midi returns what the per-event parser
    returns or raises the MidiParseError it raises."""

    @settings(max_examples=400, deadline=None)
    @given(st.binary(max_size=120))
    def test_arbitrary_bytes(self, data):
        parse_matches_oracle(data)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2), st.integers(0, 3), st.integers(0, 0xFFFF), st.binary(max_size=120))
    def test_arbitrary_track_bodies(self, fmt, n_tracks, division, body):
        track = b"MTrk" + len(body).to_bytes(4, "big") + body
        parse_matches_oracle(smf.header(fmt, n_tracks, division) + track * n_tracks)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 1),
        st.lists(
            st.tuples(
                st.sampled_from([0, 1, 3, 127, 128, 300, 2**14, 2**21]),  # delta
                st.sampled_from(["on", "off", "on0", "tempo", "cc", "running"]),
                st.integers(0, 2),  # channel
                st.integers(58, 62),  # pitch
                st.integers(1, 127),  # velocity
            ),
            max_size=40,
        ),
        st.sampled_from([1, 3, 96, 480]),
    )
    def test_note_event_streams(self, fmt, events, division):
        # many notes on few keys: repeated, overlapping, zero-length and
        # unterminated notes, tempo changes at equal ticks, running status;
        # format 1 deals the events to two tracks in turn
        bodies = [b"", b""]
        for i, (delta, kind, channel, pitch, velocity) in enumerate(events):
            track = i % (fmt + 1)
            if kind == "on":
                bodies[track] += smf.note_on(delta, pitch, velocity, channel)
            elif kind == "off":
                bodies[track] += smf.note_off(delta, pitch, velocity, channel)
            elif kind == "on0":
                bodies[track] += smf.note_on(delta, pitch, 0, channel)
            elif kind == "tempo":
                bodies[track] += smf.tempo_meta(delta, 1000 * velocity)
            elif kind == "cc":
                bodies[track] += smf.vlq(delta) + bytes((0xB0 | channel, 64, velocity))
            else:  # a bare data-byte pair under running status
                bodies[track] += smf.vlq(delta) + bytes((pitch, velocity))
        tracks = b"".join(smf.track(body) for body in bodies[: fmt + 1])
        parse_matches_oracle(smf.header(fmt, fmt + 1, division) + tracks)

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(
            st.tuples(st.sampled_from(["overwrite", "delete", "insert"]),
                      st.integers(0, 10_000), st.integers(0, 255)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_damaged_valid_files(self, seed, edits):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        data = (rng.random((128, n)) < 0.03).astype(np.uint8)
        data[int(rng.integers(0, 128)), n - 1] = 1
        blob = bytearray(to_midi(PianoRoll(data=data, tempo=float(rng.uniform(40, 300)))))
        for kind, pos, value in edits:
            pos %= len(blob) + 1
            if kind == "insert":
                blob.insert(pos, value)
            elif pos < len(blob):
                if kind == "delete":
                    del blob[pos]
                else:
                    blob[pos] = value
        parse_matches_oracle(bytes(blob))


class TestPRollContainer:
    @pytest.mark.parametrize("bad", [2, 255, -1])
    def test_entries_other_than_0_and_1_rejected(self, bad):
        data = np.zeros((128, 2), dtype=np.int64)
        data[5, 1] = bad
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            PianoRoll(data=data, tempo=120.0)
        blob = bytearray(proll_to_bytes(make_roll({0: [1]}, 2)))
        blob[-1] = bad % 256
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            proll_from_bytes(bytes(blob))

    def test_round_trip_bit_identical(self):
        roll = make_roll({60: [0, 2], 100: [1]}, 3, tempo=205.3)
        blob = proll_to_bytes(roll)
        again = proll_to_bytes(proll_from_bytes(blob))
        assert blob == again

    def test_layout(self):
        roll = make_roll({0: [1]}, 2, tempo=120.0)
        blob = proll_to_bytes(roll)
        assert blob[:8] == b"SINGPR1\x00"
        assert int.from_bytes(blob[8:12], "little") == 2
        assert int.from_bytes(blob[12:16], "little") == 128
        # sample-major payload: sample 1, pitch 0 is byte 24 + 128
        assert blob[24 + 128] == 1
        assert blob[24] == 0

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            proll_from_bytes(b"NOTAPRLL" + bytes(100))

    def test_length_capped_before_building(self):
        def blob(n):
            return proll_to_bytes(PianoRoll(data=np.zeros((128, n), np.uint8), tempo=120.0))

        assert proll_from_bytes(blob(MAX_SAMPLES)).n_samples == MAX_SAMPLES
        over = blob(MAX_SAMPLES + 1)
        for blob in (over, over[:24]):  # the header alone is enough to reject it
            with pytest.raises(ValueError, match=f"{MAX_SAMPLES + 1} samples, more than"):
                proll_from_bytes(blob)

    def test_save_load_sets_source_id(self, tmp_path):
        roll = make_roll({60: [0]}, 1)
        save_proll(roll, tmp_path / "piece_a.proll")
        assert load_proll(tmp_path / "piece_a.proll").source_id == "piece_a"
