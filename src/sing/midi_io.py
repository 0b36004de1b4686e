"""Standard MIDI File ingestion and binary piano rolls.

What this module does:

1. Parses SMF format 0/1 bytes into :class:`Notes` arrays with absolute
   times in seconds (all ``FF 51`` tempo meta-events applied).
2. Estimates a tempo in events per minute from inter-onset intervals.
3. Samples note events into a binary 128 x n piano roll, one sample per
   estimated beat.
4. Writes piano rolls back to format-0 MIDI so that roll -> MIDI -> roll
   is the identity.
5. Reads/writes the ``PRoll`` container (magic ``SINGPR1\\0``).
"""

from __future__ import annotations

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


@dataclass(eq=False)
class Notes:
    """Notes as parallel arrays, entry i one note: pitch, onset and offset in
    seconds, velocity."""

    pitch: np.ndarray  # (m,) int64 in 0..127
    onset: np.ndarray  # (m,) float64, >= 0
    offset: np.ndarray  # (m,) float64, > onset
    velocity: np.ndarray  # (m,) int64 in 0..127

    def __post_init__(self):
        self.pitch = np.asarray(self.pitch, dtype=np.int64)
        self.onset = np.asarray(self.onset, dtype=np.float64)
        self.offset = np.asarray(self.offset, dtype=np.float64)
        self.velocity = np.asarray(self.velocity, dtype=np.int64)
        shapes = {column.shape for column in self._columns()}
        if len(shapes) != 1 or self.pitch.ndim != 1:
            raise ValueError(f"note columns must be 1-D of one length, got {sorted(shapes)}")
        bad = np.flatnonzero((self.pitch < 0) | (self.pitch >= N_PITCHES))
        if bad.size:
            raise ValueError(f"pitch {self.pitch[bad[0]]} outside 0..127")
        bad = np.flatnonzero(~((self.offset > self.onset) & (self.onset >= 0.0)))
        if bad.size:
            onset, offset = self.onset[bad[0]], self.offset[bad[0]]
            raise ValueError(f"need offset > onset >= 0, got [{onset}, {offset})")
        bad = np.flatnonzero((self.velocity < 0) | (self.velocity >= 128))
        if bad.size:
            raise ValueError(f"velocity {self.velocity[bad[0]]} outside 0..127")

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.pitch, self.onset, self.offset, self.velocity

    def __len__(self) -> int:
        return self.pitch.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Notes):
            return NotImplemented
        return all(map(np.array_equal, self._columns(), other._columns()))


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
        if not (self.data <= 1).all():
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
    """Parse result: notes with absolute seconds, plus warnings."""

    events: Notes
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


_OTHER_CHANNEL_DATA_BYTES = {0xA0: 2, 0xB0: 2, 0xC0: 1, 0xD0: 1, 0xE0: 2}  # note on/off: 2


def parse_midi(data: bytes) -> ParsedMidi:
    """Parse SMF format 0/1 bytes into notes with absolute seconds.

    Note-on with velocity 0 is treated as note-off. Notes left open at the
    end of a track are closed at the end-of-track tick and flagged in
    ``warnings``. Sustain-pedal and all other controller events are ignored.
    The byte walk collects ticks only; they become seconds in one pass over
    the tempo map.
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
    raw_notes: list[int] = []  # on_tick, off_tick, pitch, velocity of each note in turn
    warnings: list[str] = []
    tracks_seen = 0

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
        # channel << 7 | pitch -> (on_tick, velocity) of its open notes, oldest first
        open_notes: dict[int, list[tuple[int, int]]] = {}

        while cursor < chunk_end:
            byte = data[cursor]
            if not byte & 0x80:  # one-byte delta
                tick += byte
                cursor += 1
            elif cursor + 1 < chunk_end and not data[cursor + 1] & 0x80:  # two bytes
                tick += (byte & 0x7F) << 7 | data[cursor + 1]
                cursor += 2
            else:
                delta, cursor = _read_vlq(data, cursor)
                tick += delta
            if cursor >= chunk_end:
                raise MidiParseError("event truncated at end of track", cursor)
            status = data[cursor]
            if status & 0x80:
                cursor += 1
                if status < 0xF0:
                    running_status = status
            elif running_status is None:
                raise MidiParseError("data byte with no running status", cursor)
            else:
                status = running_status

            kind = status & 0xF0
            if kind == 0x90 or kind == 0x80:
                if cursor + 2 > chunk_end:
                    raise MidiParseError("channel event truncated", cursor)
                pitch = data[cursor]
                velocity = data[cursor + 1]
                if (pitch | velocity) & 0x80:
                    raise MidiParseError("data byte has high bit set", cursor)
                cursor += 2
                key = (status & 0x0F) << 7 | pitch
                stack = open_notes.get(key)
                if kind == 0x90 and velocity:
                    if stack is None:
                        open_notes[key] = [(tick, velocity)]
                    else:
                        stack.append((tick, velocity))
                elif stack:
                    on_tick, on_velocity = stack.pop(0)  # FIFO pairing
                    raw_notes += (on_tick, tick, pitch, on_velocity)
                # orphan note-off: ignore (common in imperfect files)
            elif status == 0xFF:
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
                    tempo_events.append((tick, len(tempo_events), int.from_bytes(payload, "big")))
                elif meta_type == 0x2F:
                    break
            elif status in (0xF0, 0xF7):
                running_status = None
                length, cursor = _read_vlq(data, cursor)
                if cursor + length > chunk_end:
                    raise MidiParseError("sysex event extends past track end", cursor)
                cursor += length
            else:
                n_data = _OTHER_CHANNEL_DATA_BYTES.get(kind)
                if n_data is None:
                    raise MidiParseError(f"unexpected status byte 0x{status:02x}", cursor - 1)
                if cursor + n_data > chunk_end:
                    raise MidiParseError("channel event truncated", cursor)
                if data[cursor] & 0x80 or (n_data == 2 and data[cursor + 1] & 0x80):
                    raise MidiParseError("data byte has high bit set", cursor)
                cursor += n_data

        for key, stack in sorted(open_notes.items()):
            for on_tick, velocity in stack:
                raw_notes += (on_tick, tick, key & 0x7F, velocity)
                warnings.append(
                    f"note pitch={key & 0x7F} ch={key >> 7} unterminated; closed at end of track"
                )

    if tracks_seen == 0:
        raise MidiParseError("no MTrk chunk found", len(data))
    if tracks_seen != declared_tracks:
        warnings.append(f"header declares {declared_tracks} tracks, found {tracks_seen}")

    # Global tempo map: last writer wins at equal ticks, default 120 BPM.
    tempo_events.sort()
    tempo_map: dict[int, int] = {0: DEFAULT_US_PER_QUARTER}
    for tick, _, us in tempo_events:
        tempo_map[tick] = us
    raw = np.array(raw_notes, dtype=np.int64).reshape(-1, 4)
    onset, offset = _tick_seconds(raw[:, :2], tempo_map, division).T
    pitch, velocity = raw[:, 2], raw[:, 3]

    dropped = offset <= onset
    for on_tick, _, note_pitch, _ in raw[dropped].tolist():
        warnings.append(f"zero-length note pitch={note_pitch} at tick {on_tick} dropped")
    kept = ~dropped
    pitch, onset, offset, velocity = pitch[kept], onset[kept], offset[kept], velocity[kept]
    order = np.lexsort((velocity, offset, pitch, onset))
    notes = Notes(pitch[order], onset[order], offset[order], velocity[order])
    return ParsedMidi(events=notes, warnings=warnings)


def _tick_seconds(ticks: np.ndarray, tempo_map: dict[int, int], division: int) -> np.ndarray:
    """Seconds at each tick (any shape) under a tempo map {first tick: us per quarter}.

    Spans are float64(ticks) * float64(us) / (division * 1e6), which is the
    exact integer product rounded once for spans below 2**53 ticks, and
    cannot wrap where an int64 product would.
    """
    change_ticks = np.fromiter(tempo_map.keys(), dtype=np.int64)
    us_per_quarter = np.fromiter(tempo_map.values(), dtype=np.float64)
    spans = np.diff(change_ticks).astype(np.float64) * us_per_quarter[:-1] / (division * 1e6)
    change_seconds = np.concatenate(([0.0], np.cumsum(spans)))
    idx = np.searchsorted(change_ticks, ticks, side="right") - 1
    since = (ticks - change_ticks[idx]).astype(np.float64)
    return change_seconds[idx] + since * us_per_quarter[idx] / (division * 1e6)


def estimate_tempo(events: Notes) -> float:
    """Events per minute from the median inter-onset interval.

    Clamped to [40, 300]; returns 120 when fewer than 2 distinct onsets.
    """
    onsets = np.unique(events.onset)
    if onsets.size < 2:
        return TEMPO_FALLBACK
    median_ioi = float(np.median(np.diff(onsets)))
    if median_ioi <= 0.0:
        return TEMPO_FALLBACK
    return float(min(max(60.0 / median_ioi, TEMPO_MIN), TEMPO_MAX))


def to_piano_roll(events: Notes, tempo: float, source_id: str = "") -> PianoRoll:
    """Sample notes at the given tempo into a binary piano roll.

    Entry (p, s) is 1 iff some note with pitch p sounds at the instant
    s * 60/tempo, i.e. onset <= instant < offset. The roll spans
    ceil(last offset / period) samples.
    """
    if not len(events):
        raise ValueError("empty piece")
    if not tempo > 0:
        raise ValueError(f"tempo must be positive, got {tempo}")
    period = 60.0 / tempo
    last_offset = float(events.offset.max())
    n_samples = max(1, math.ceil(last_offset / period - SAMPLE_EPS))
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"piece spans {n_samples} samples, more than {MAX_SAMPLES}")
    start = np.maximum(0, np.ceil(events.onset / period - SAMPLE_EPS)).astype(np.int64)
    stop = np.minimum(n_samples, np.ceil(events.offset / period - SAMPLE_EPS)).astype(np.int64)
    sounding = stop > start
    pitch = events.pitch[sounding]
    # +1 where a note starts sounding, -1 where it stops: a running sum > 0 is on
    count = np.zeros((N_PITCHES, n_samples + 1), dtype=np.int32)
    np.add.at(count, (pitch, start[sounding]), 1)
    np.add.at(count, (pitch, stop[sounding]), -1)
    np.cumsum(count, axis=1, out=count)
    return PianoRoll(data=count[:, :n_samples] > 0, tempo=float(tempo), source_id=source_id)


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

    padded = np.zeros((N_PITCHES, roll.n_samples + 2), dtype=np.int8)
    padded[:, 1:-1] = roll.data
    step = np.diff(padded, axis=1)  # +1 at a run's first sample, -1 one past its last
    pitch, sample = np.nonzero(step)
    is_on = step[pitch, sample] > 0
    tick = np.rint(sample * WRITE_TICKS_PER_QUARTER * ratio).astype(np.int64)  # half to even
    order = np.lexsort((pitch, is_on, tick))  # offs sort before ons at equal ticks
    pitch, is_on, tick = pitch[order], is_on[order], tick[order]
    messages = np.stack(
        [np.where(is_on, 0x90, 0x80), pitch, np.where(is_on, NOTE_VELOCITY, 0)], axis=1
    )

    track = b"\x00\xff\x51\x03" + us_per_quarter.to_bytes(3, "big")
    track += _vlq_events(np.diff(tick, prepend=0), messages) + b"\x00\xff\x2f\x00"
    header = struct.pack(">4sIHHH", b"MThd", 6, 0, 1, WRITE_TICKS_PER_QUARTER)
    return header + struct.pack(">4sI", b"MTrk", len(track)) + track


def _vlq_events(deltas: np.ndarray, messages: np.ndarray) -> bytes:
    """Track bytes of events: each delta as a variable-length quantity, then
    its message's bytes (one row of messages)."""
    n_groups = np.ones(len(deltas), dtype=np.int64)  # 7-bit groups per delta
    for shift in range(7, 64, 7):
        longer = (deltas >> shift) > 0
        if not longer.any():
            break
        n_groups += longer
    sizes = n_groups + messages.shape[1]
    last = np.cumsum(sizes) - sizes + n_groups - 1  # each delta's final byte
    out = np.empty(int(sizes.sum()), dtype=np.uint8)
    for group in range(int(n_groups.max(initial=0))):
        has = n_groups > group
        continued = 0x80 if group else 0
        out[last[has] - group] = ((deltas[has] >> (7 * group)) & 0x7F) | continued
    for column in range(messages.shape[1]):
        out[last + 1 + column] = messages[:, column]
    return out.tobytes()


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
