"""Standard MIDI File ingestion and binary piano rolls.

What this module does:

1. Parses SMF format 0/1 bytes into :class:`NoteEvent` lists with absolute
   times in seconds (all ``FF 51`` tempo meta-events applied).
2. Estimates a tempo in events per minute from inter-onset intervals.
3. Samples note events into a binary 128 x n piano roll, one sample per
   estimated beat.
4. Writes piano rolls back to format-0 MIDI so that roll -> MIDI -> roll
   is the identity.
5. Reads/writes the ``PRoll`` container (magic ``SINGPR1\\0``).
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_PITCHES = 128
PROLL_MAGIC = b"SINGPR1\x00"

DEFAULT_US_PER_QUARTER = 500_000  # 120 BPM until the first tempo event
TEMPO_MIN = 40.0
TEMPO_MAX = 300.0
TEMPO_FALLBACK = 120.0
NOTE_VELOCITY = 80
# Longest piece, in samples, any input may name: its n x n float64 SSM is
# 2 GiB, and it lasts 55 minutes at the TEMPO_MAX sample rate.
MAX_SAMPLES = 16_384
WRITE_TICKS_PER_QUARTER = 9600

# Sampling tolerance as a fraction of the sample period. Note boundaries in
# a MIDI file are quantized to integer ticks and an integer tempo in
# microseconds per quarter, so re-parsed times sit within half a tick of the
# exact sample instants; half a tick is at most 1/(2*9600) of a period for
# files we write, far below this tolerance.
SAMPLE_EPS = 1e-4


class MidiParseError(ValueError):
    """Malformed MIDI data. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class NoteEvent:
    """One note with absolute onset/offset in seconds."""

    pitch: int
    onset: float
    offset: float
    velocity: int

    def __post_init__(self):
        if not 0 <= self.pitch < N_PITCHES:
            raise ValueError(f"pitch {self.pitch} outside 0..127")
        if not self.offset > self.onset >= 0.0:
            raise ValueError(f"need offset > onset >= 0, got [{self.onset}, {self.offset})")
        if not 0 <= self.velocity < 128:
            raise ValueError(f"velocity {self.velocity} outside 0..127")


@dataclass
class PianoRoll:
    """Binary pitch-activation matrix, 128 pitches x n samples."""

    data: np.ndarray  # (128, n) uint8, entries 0/1
    tempo: float  # events per minute used for sampling
    source_id: str = ""

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.uint8)
        if self.data.ndim != 2 or self.data.shape[0] != N_PITCHES:
            raise ValueError(f"piano roll must be (128, n), got {self.data.shape}")
        if self.data.shape[1] < 1:
            raise ValueError("piano roll needs at least one sample")
        if not np.isin(self.data, (0, 1)).all():
            raise ValueError("piano roll entries must be 0 or 1")
        if not (math.isfinite(self.tempo) and self.tempo > 0):
            raise ValueError(f"tempo must be positive, got {self.tempo}")

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PianoRoll):
            return NotImplemented
        return (
            self.tempo == other.tempo
            and self.data.shape == other.data.shape
            and bool((self.data == other.data).all())
        )


@dataclass
class ParsedMidi:
    """Parse result: note events with absolute seconds, plus warnings."""

    events: list[NoteEvent]
    warnings: list[str]


def _read_vlq(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    for _ in range(4):
        if pos >= len(data):
            raise MidiParseError("truncated variable-length quantity", pos)
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise MidiParseError("variable-length quantity longer than 4 bytes", pos)


def _encode_vlq(value: int) -> bytes:
    if value < 0:
        raise ValueError("cannot encode negative delta")
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(chunks))


_CHANNEL_DATA_BYTES = {0x80: 2, 0x90: 2, 0xA0: 2, 0xB0: 2, 0xC0: 1, 0xD0: 1, 0xE0: 2}


def parse_midi(data: bytes) -> ParsedMidi:
    """Parse SMF format 0/1 bytes into note events with absolute seconds.

    Note-on with velocity 0 is treated as note-off. Notes left open at the
    end of a track are closed at the end-of-track tick and flagged in
    ``warnings``. Sustain-pedal and all other controller events are ignored.
    """
    if len(data) < 14:
        raise MidiParseError("file too short for a header chunk", 0)
    if data[0:4] != b"MThd":
        raise MidiParseError("missing MThd header chunk", 0)
    header_len = struct.unpack(">I", data[4:8])[0]
    if header_len < 6:
        raise MidiParseError(f"header chunk length {header_len} < 6", 4)
    fmt, declared_tracks, division = struct.unpack(">HHH", data[8:14])
    if fmt not in (0, 1):
        raise MidiParseError(f"unsupported SMF format {fmt} (only 0 and 1)", 8)
    if division & 0x8000:
        raise MidiParseError("SMPTE time division is unsupported", 12)
    if division == 0:
        raise MidiParseError("ticks-per-quarter must be positive", 12)

    pos = 8 + header_len
    tempo_events: list[tuple[int, int, int]] = []  # (tick, order, us_per_quarter)
    raw_notes: list[tuple[int, int, int, int]] = []  # (on_tick, off_tick, pitch, velocity)
    warnings: list[str] = []
    tracks_seen = 0
    order = 0

    while pos < len(data):
        if pos + 8 > len(data):
            raise MidiParseError("truncated chunk header", pos)
        chunk_type = data[pos : pos + 4]
        chunk_len = struct.unpack(">I", data[pos + 4 : pos + 8])[0]
        chunk_start = pos + 8
        chunk_end = chunk_start + chunk_len
        if chunk_end > len(data):
            raise MidiParseError("chunk extends past end of file", pos + 4)
        pos = chunk_end
        if chunk_type != b"MTrk":
            continue  # unknown chunks are skipped per the SMF spec
        tracks_seen += 1

        tick = 0
        cursor = chunk_start
        running_status: int | None = None
        open_notes: dict[tuple[int, int], list[tuple[int, int]]] = {}

        while cursor < chunk_end:
            delta, cursor = _read_vlq(data, cursor)
            tick += delta
            if cursor >= chunk_end:
                raise MidiParseError("event truncated at end of track", cursor)
            byte = data[cursor]
            if byte & 0x80:
                status = byte
                cursor += 1
                if status < 0xF0:
                    running_status = status
            else:
                if running_status is None:
                    raise MidiParseError("data byte with no running status", cursor)
                status = running_status

            if status == 0xFF:
                if cursor >= chunk_end:
                    raise MidiParseError("truncated meta event", cursor)
                meta_type = data[cursor]
                cursor += 1
                length, cursor = _read_vlq(data, cursor)
                if cursor + length > chunk_end:
                    raise MidiParseError("meta event extends past track end", cursor)
                payload = data[cursor : cursor + length]
                cursor += length
                if meta_type == 0x51:
                    if length != 3:
                        raise MidiParseError("tempo meta event must carry 3 bytes", cursor)
                    tempo_events.append((tick, order, int.from_bytes(payload, "big")))
                    order += 1
                elif meta_type == 0x2F:
                    break
            elif status in (0xF0, 0xF7):
                running_status = None
                length, cursor = _read_vlq(data, cursor)
                if cursor + length > chunk_end:
                    raise MidiParseError("sysex event extends past track end", cursor)
                cursor += length
            else:
                kind = status & 0xF0
                n_data = _CHANNEL_DATA_BYTES.get(kind)
                if n_data is None:
                    raise MidiParseError(f"unexpected status byte 0x{status:02x}", cursor - 1)
                if cursor + n_data > chunk_end:
                    raise MidiParseError("channel event truncated", cursor)
                d1 = data[cursor]
                d2 = data[cursor + 1] if n_data == 2 else 0
                if d1 & 0x80 or d2 & 0x80:
                    raise MidiParseError("data byte has high bit set", cursor)
                cursor += n_data
                channel = status & 0x0F
                if kind == 0x90 and d2 > 0:
                    open_notes.setdefault((channel, d1), []).append((tick, d2))
                elif kind == 0x80 or (kind == 0x90 and d2 == 0):
                    stack = open_notes.get((channel, d1))
                    if stack:
                        on_tick, velocity = stack.pop(0)  # FIFO pairing
                        raw_notes.append((on_tick, tick, d1, velocity))
                    # orphan note-off: ignore (common in imperfect files)

        for (channel, pitch), stack in sorted(open_notes.items()):
            for on_tick, velocity in stack:
                raw_notes.append((on_tick, tick, pitch, velocity))
                warnings.append(
                    f"note pitch={pitch} ch={channel} unterminated; closed at end of track"
                )

    if tracks_seen == 0:
        raise MidiParseError("no MTrk chunk found", len(data))
    if tracks_seen != declared_tracks:
        warnings.append(f"header declares {declared_tracks} tracks, found {tracks_seen}")

    # Global tempo map: last writer wins at equal ticks, default 120 BPM.
    tempo_events.sort(key=lambda e: (e[0], e[1]))
    tempo_map: list[tuple[int, int]] = [(0, DEFAULT_US_PER_QUARTER)]
    for tick, _, us in tempo_events:
        if tick == tempo_map[-1][0]:
            tempo_map[-1] = (tick, us)
        else:
            tempo_map.append((tick, us))

    change_ticks = [t for t, _ in tempo_map]
    change_seconds = [0.0]
    for i in range(1, len(tempo_map)):
        prev_tick, prev_us = tempo_map[i - 1]
        span = (tempo_map[i][0] - prev_tick) * prev_us / (division * 1e6)
        change_seconds.append(change_seconds[-1] + span)

    def seconds_at(tick: int) -> float:
        idx = bisect.bisect_right(change_ticks, tick) - 1
        start_tick = change_ticks[idx]
        us_per_quarter = tempo_map[idx][1]
        return change_seconds[idx] + (tick - start_tick) * us_per_quarter / (division * 1e6)

    events = []
    for on_tick, off_tick, pitch, velocity in raw_notes:
        onset = seconds_at(on_tick)
        offset = seconds_at(off_tick)
        if offset <= onset:
            warnings.append(f"zero-length note pitch={pitch} at tick {on_tick} dropped")
            continue
        events.append(NoteEvent(pitch, onset, offset, velocity))
    events.sort(key=lambda e: (e.onset, e.pitch, e.offset, e.velocity))
    return ParsedMidi(events=events, warnings=warnings)


def estimate_tempo(events: list[NoteEvent]) -> float:
    """Events per minute from the median inter-onset interval.

    Clamped to [40, 300]; returns 120 when fewer than 2 distinct onsets.
    """
    onsets = sorted({e.onset for e in events})
    if len(onsets) < 2:
        return TEMPO_FALLBACK
    median_ioi = float(np.median(np.diff(onsets)))
    if median_ioi <= 0.0:
        return TEMPO_FALLBACK
    return float(min(max(60.0 / median_ioi, TEMPO_MIN), TEMPO_MAX))


def to_piano_roll(events: list[NoteEvent], tempo: float, source_id: str = "") -> PianoRoll:
    """Sample note events at the given tempo into a binary piano roll.

    Entry (p, s) is 1 iff some note with pitch p sounds at the instant
    s * 60/tempo, i.e. onset <= instant < offset. The roll spans
    ceil(last offset / period) samples.
    """
    if not events:
        raise ValueError("empty piece")
    if not tempo > 0:
        raise ValueError(f"tempo must be positive, got {tempo}")
    period = 60.0 / tempo
    last_offset = max(e.offset for e in events)
    n_samples = max(1, math.ceil(last_offset / period - SAMPLE_EPS))
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"piece spans {n_samples} samples, more than {MAX_SAMPLES}")
    data = np.zeros((N_PITCHES, n_samples), dtype=np.uint8)
    for event in events:
        start = max(0, math.ceil(event.onset / period - SAMPLE_EPS))
        stop = min(n_samples, math.ceil(event.offset / period - SAMPLE_EPS))
        if stop > start:
            data[event.pitch, start:stop] = 1
    return PianoRoll(data=data, tempo=float(tempo), source_id=source_id)


def to_midi(roll: PianoRoll) -> bytes:
    """Write a piano roll as a format-0 SMF.

    Each maximal run of 1s in a pitch row becomes one note (velocity 80)
    spanning the run at sample period 60/tempo. Re-parsing and re-sampling
    the output at the same tempo reproduces the roll (for rolls whose final
    sample is not silent).
    """
    tempo = roll.tempo
    us_per_quarter = round(60e6 / tempo)  # one quarter note per sample
    if not 1 <= us_per_quarter <= 0xFFFFFF:
        raise ValueError(f"tempo {tempo} not representable in MIDI")
    period = 60.0 / tempo
    # Ratio of the exact period to the quantized MIDI period; ticks are
    # rounded per boundary, so the error never accumulates across samples.
    ratio = period * 1e6 / us_per_quarter

    def boundary_tick(sample: int) -> int:
        return round(sample * WRITE_TICKS_PER_QUARTER * ratio)

    # (tick, 0=off/1=on, pitch) -- offs sort before ons at equal ticks
    note_edges: list[tuple[int, int, int]] = []
    for pitch in range(N_PITCHES):
        row = roll.data[pitch]
        edges = np.diff(np.concatenate(([0], row, [0])).astype(np.int8))
        for start, stop in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)):
            note_edges.append((boundary_tick(int(start)), 1, pitch))
            note_edges.append((boundary_tick(int(stop)), 0, pitch))
    note_edges.sort()

    track = bytearray()
    track += _encode_vlq(0) + b"\xff\x51\x03" + us_per_quarter.to_bytes(3, "big")
    prev_tick = 0
    for tick, is_on, pitch in note_edges:
        track += _encode_vlq(tick - prev_tick)
        status = 0x90 if is_on else 0x80
        track += bytes((status, pitch, NOTE_VELOCITY if is_on else 0))
        prev_tick = tick
    track += _encode_vlq(0) + b"\xff\x2f\x00"

    header = struct.pack(">4sIHHH", b"MThd", 6, 0, 1, WRITE_TICKS_PER_QUARTER)
    return header + struct.pack(">4sI", b"MTrk", len(track)) + bytes(track)


def proll_to_bytes(roll: PianoRoll) -> bytes:
    """Serialize to the PRoll container (sample-major 0/1 bytes)."""
    header = PROLL_MAGIC + struct.pack("<II", roll.n_samples, N_PITCHES)
    header += struct.pack("<d", roll.tempo)
    return header + np.ascontiguousarray(roll.data.T).tobytes()


def proll_from_bytes(data: bytes, source_id: str = "") -> PianoRoll:
    if data[: len(PROLL_MAGIC)] != PROLL_MAGIC:
        raise ValueError("not a PRoll container (bad magic)")
    pos = len(PROLL_MAGIC) + 16
    if len(data) < pos:
        raise ValueError("PRoll header truncated")
    n_samples, n_pitches, tempo = struct.unpack_from("<IId", data, len(PROLL_MAGIC))
    if n_pitches != N_PITCHES:
        raise ValueError(f"PRoll pitch count must be 128, got {n_pitches}")
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"PRoll holds {n_samples} samples, more than {MAX_SAMPLES}")
    payload = data[pos:]
    if len(payload) != n_samples * N_PITCHES:
        raise ValueError(
            f"PRoll payload is {len(payload)} bytes, expected {n_samples * N_PITCHES}"
        )
    grid = np.frombuffer(payload, dtype=np.uint8).reshape(n_samples, N_PITCHES)
    return PianoRoll(data=grid.T.copy(), tempo=tempo, source_id=source_id)


def save_proll(roll: PianoRoll, path: str | Path) -> None:
    Path(path).write_bytes(proll_to_bytes(roll))


def load_proll(path: str | Path) -> PianoRoll:
    path = Path(path)
    return proll_from_bytes(path.read_bytes(), source_id=path.stem)
