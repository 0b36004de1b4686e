import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smf
from sing import midi_io
from sing.midi_io import (
    MAX_SAMPLES,
    MidiParseError,
    NoteEvent,
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


class TestParse:
    def test_single_note_default_tempo(self):
        # 480 ticks at 480 tpq and the default 120 BPM is one quarter = 0.5 s
        parsed = parse_midi(smf.single_note_file(tpq=480, pitch=60, on=0, off=480))
        assert parsed.events == [NoteEvent(60, 0.0, 0.5, 64)]

    def test_empty_track(self):
        data = smf.header(0, 1, 480) + smf.track(b"")
        assert parse_midi(data).events == []

    def test_velocity_zero_is_note_off(self):
        body = smf.note_on(0, 60, 64) + smf.vlq(480) + bytes((0x90, 60, 0))
        parsed = parse_midi(smf.header(0, 1, 480) + smf.track(body))
        assert parsed.events == [NoteEvent(60, 0.0, 0.5, 64)]

    def test_running_status(self):
        # second note-on omits the status byte
        body = smf.note_on(0, 60, 64) + smf.vlq(0) + bytes((64, 64))
        body += smf.note_off(480, 60) + smf.note_off(0, 64)
        parsed = parse_midi(smf.header(0, 1, 480) + smf.track(body))
        assert [e.pitch for e in parsed.events] == [60, 64]

    def test_tempo_change_applies(self):
        # 240 BPM from tick 0: 480 ticks -> 0.25 s
        body = smf.tempo_meta(0, 250_000) + smf.note_on(0, 60) + smf.note_off(480, 60)
        parsed = parse_midi(smf.header(0, 1, 480) + smf.track(body))
        assert parsed.events[0].offset == pytest.approx(0.25, abs=1e-12)

    def test_format_1_merges_tracks_and_tempo(self):
        tempo_track = smf.track(smf.tempo_meta(0, 1_000_000))  # 60 BPM
        note_track = smf.track(smf.note_on(0, 72) + smf.note_off(480, 72))
        parsed = parse_midi(smf.header(1, 2, 480) + tempo_track + note_track)
        assert parsed.events == [NoteEvent(72, 0.0, 1.0, 64)]

    def test_unterminated_note_closes_at_end_of_track(self):
        body = smf.note_on(0, 60)
        parsed = parse_midi(smf.header(0, 1, 480) + smf.track(body, end_delta=960))
        assert parsed.events == [NoteEvent(60, 0.0, 1.0, 64)]
        assert any("unterminated" in w for w in parsed.warnings)

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
            parsed = parse_midi(to_midi(PianoRoll(data=data, tempo=tempo)))
            assert parsed.events or data.sum() == 0
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
            parse_midi(blob)
            n_parsed += 1
        assert n_parsed == 100


class TestEstimateTempo:
    def test_median_ioi(self):
        events = [NoteEvent(60, t, t + 0.1, 64) for t in (0.0, 0.5, 1.0)]
        assert estimate_tempo(events) == pytest.approx(120.0)

    def test_single_note_fallback(self):
        assert estimate_tempo([NoteEvent(60, 0.0, 1.0, 64)]) == 120.0

    def test_clamped_to_300(self):
        events = [NoteEvent(60, i * 0.1, i * 0.1 + 0.05, 64) for i in range(10)]
        assert estimate_tempo(events) == 300.0

    def test_clamped_to_40(self):
        events = [NoteEvent(60, i * 10.0, i * 10.0 + 0.05, 64) for i in range(4)]
        assert estimate_tempo(events) == 40.0

    def test_duplicate_onsets_collapse(self):
        events = [
            NoteEvent(60, 0.0, 0.1, 64),
            NoteEvent(64, 0.0, 0.1, 64),
            NoteEvent(67, 0.5, 0.6, 64),
        ]
        assert estimate_tempo(events) == pytest.approx(120.0)

    def test_empty_fallback(self):
        assert estimate_tempo([]) == 120.0


class TestToPianoRoll:
    def test_one_second_note_two_samples(self):
        roll = to_piano_roll([NoteEvent(60, 0.0, 1.0, 64)], 120.0)
        assert roll.n_samples == 2
        assert roll.data[60].tolist() == [1, 1]
        assert roll.data.sum() == 2

    def test_binarized_regardless_of_velocity(self):
        roll = to_piano_roll([NoteEvent(60, 0.0, 1.0, 127)], 120.0)
        assert set(np.unique(roll.data)) <= {0, 1}
        assert roll.data[60, 0] == 1

    def test_note_between_instants_silent(self):
        roll = to_piano_roll([NoteEvent(60, 0.25, 0.3, 64)], 120.0)
        assert roll.n_samples == 1
        assert roll.data.sum() == 0

    def test_empty_events_error(self):
        with pytest.raises(ValueError, match="empty piece"):
            to_piano_roll([], 120.0)


    def test_length_capped_before_allocating(self):
        at_cap = to_piano_roll([NoteEvent(60, 0.0, MAX_SAMPLES * 0.5, 64)], 120.0)
        assert at_cap.n_samples == MAX_SAMPLES
        with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
            to_piano_roll([NoteEvent(60, 0.0, MAX_SAMPLES * 0.5 + 0.5, 64)], 120.0)

    def test_tiny_file_naming_a_huge_piece_rejected(self):
        # 37 bytes: division 1, one note held 0x0FFFFFFF ticks, which the
        # sampler would make a 268,435,455-sample (34 GB) roll
        data = smf.single_note_file(tpq=1, on=0, off=0x0FFFFFFF)
        assert len(data) == 37
        events = parse_midi(data).events
        with pytest.raises(ValueError, match="268435455 samples"):
            to_piano_roll(events, estimate_tempo(events))


class TestToMidi:
    def test_runs_become_notes(self):
        roll = make_roll({60: [0, 1, 3]}, 4)
        events = parse_midi(to_midi(roll)).events
        spans = [(e.onset, e.offset) for e in events]
        assert spans == [pytest.approx((0.0, 1.0)), pytest.approx((1.5, 2.0))]

    def test_all_zero_roll_no_notes(self):
        roll = make_roll({}, 3)
        assert parse_midi(to_midi(roll)).events == []

    def test_velocity_is_80(self):
        roll = make_roll({64: [0]}, 1)
        assert parse_midi(to_midi(roll)).events[0].velocity == 80

    def test_round_trip_exact(self):
        roll = make_roll({60: [0, 1], 61: [1]}, 2)
        reparsed = to_piano_roll(parse_midi(to_midi(roll)).events, 120.0)
        assert reparsed == roll


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 50),
    tempo=st.floats(40.0, 300.0, allow_nan=False),
)
def test_round_trip_property(seed, n, tempo):
    # restricted to rolls whose final sample is not silent: the reparsed
    # sample count comes from the last note offset, so trailing silence
    # cannot survive any roll -> MIDI -> roll cycle
    rng = np.random.default_rng(seed)
    data = (rng.random((128, n)) < 0.05).astype(np.uint8)
    data[int(rng.integers(0, 128)), n - 1] = 1
    roll = PianoRoll(data=data, tempo=tempo)
    reparsed = to_piano_roll(parse_midi(to_midi(roll)).events, tempo)
    assert reparsed.n_samples == n
    assert (reparsed.data == roll.data).all()


def _parses_or_raises_midi_error(data: bytes) -> None:
    try:
        parse_midi(data)
    except MidiParseError:
        pass


class TestParseFuzz:
    """Whatever the bytes, parse_midi returns or raises MidiParseError."""

    @settings(max_examples=400, deadline=None)
    @given(st.binary(max_size=120))
    def test_arbitrary_bytes(self, data):
        _parses_or_raises_midi_error(data)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2), st.integers(0, 3), st.integers(0, 0xFFFF), st.binary(max_size=120))
    def test_arbitrary_track_bodies(self, fmt, n_tracks, division, body):
        track = b"MTrk" + len(body).to_bytes(4, "big") + body
        _parses_or_raises_midi_error(smf.header(fmt, n_tracks, division) + track * n_tracks)

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
        _parses_or_raises_midi_error(bytes(blob))


class TestPRollContainer:
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
