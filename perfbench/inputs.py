"""Seeded synthetic inputs for the benchmark workloads.

Every piece is block-structured: each section of an archetype such as
"ABBA" plays one of two chroma-disjoint chords, one chord per beat, with
per-note octave jitter, so its chroma SSM is a block pattern. Piece lengths
are fixed per workload; the seed chooses the archetypes, roots, jitter and
note lengths. Fixing the lengths keeps the work per run the same for every
seed, so runs with different seeds can be compared.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from sing.midi_io import N_PITCHES, PianoRoll, save_proll

ARCHETYPES = ("AABB", "ABAB", "ABBA", "AABA")
TPQ = 480
US_PER_QUARTER = (500_000, 461_538)  # 120 and 130 BPM, alternating by section

# Training segments after slicing at 700: 120 and 150 need a >4% edit and are
# excluded, as is 520; the rest pad or truncate onto the k=2 grid (128..700),
# and 1380 is sliced into two segments of 690. 13 segments are kept and the
# generate corpus has 15 pieces: with an odd count of equal-sized groups the
# latency median falls inside one length's group rather than between two.
TRAIN_LENGTHS = (120, 128, 150, 175, 196, 230, 260, 290, 310, 350, 400, 440, 520, 640, 1380)
VAL_LENGTHS = (150, 260, 410)
# Points of the 16-length grid from 128 to 700, so evaluation edits nothing.
GENERATE_LENGTHS = (
    128, 143, 161, 180, 201, 226, 253, 283, 317, 355, 397, 445, 498, 558, 700
)
# Beats per MIDI file: 36 log-spaced from 128 to 700, plus four long files
# that batch-plan slices.
INGEST_BEATS = tuple(int(round(128 * (700 / 128) ** (i / 35))) for i in range(36)) + (
    900,
    1200,
    1600,
    2000,
)


def _chords(rng: np.random.Generator) -> dict[str, tuple[int, int, int]]:
    root = int(rng.integers(36, 56))
    return {"A": (root, root + 4, root + 7), "B": (root + 2, root + 5, root + 9)}


def _sections(archetype: str, n: int) -> list[str]:
    section_len = n // len(archetype)
    return [archetype[min(s // section_len, len(archetype) - 1)] for s in range(n)]


def block_roll(n: int, rng: np.random.Generator, index: int) -> np.ndarray:
    """(128, n) binary roll: three chord tones per sample, octave-jittered."""
    chords = _chords(rng)
    sections = _sections(ARCHETYPES[index % len(ARCHETYPES)], n)
    pitches = np.array([chords[name] for name in sections]).T  # (3, n)
    pitches = pitches + 12 * rng.integers(0, 2, size=pitches.shape)
    data = np.zeros((N_PITCHES, n), dtype=np.uint8)
    data[pitches, np.arange(n)] = 1
    return data


def write_prolls(directory: Path, lengths: tuple[int, ...], rng: np.random.Generator) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for i, n in enumerate(lengths):
        roll = PianoRoll(data=block_roll(n, rng, i), tempo=120.0)
        save_proll(roll, directory / f"p{i:02d}_n{n}.proll")


# ---------------------------------------------------------------------------
# Standard MIDI Files


def _vlq(value: int) -> bytes:
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(chunks))


def _track(events: list[tuple[int, int, bytes]], running_status: bool) -> bytes:
    """Encode (tick, order, message) events as an MTrk chunk.

    With running_status, a channel message repeating the previous status
    byte is written without it.
    """
    body = bytearray()
    prev_tick = 0
    status = None
    for tick, _, message in sorted(events):
        body += _vlq(tick - prev_tick)
        prev_tick = tick
        if message[0] < 0xF0 and running_status and message[0] == status:
            body += message[1:]
        else:
            body += message
        status = message[0] if message[0] < 0xF0 else None
    body += _vlq(0) + b"\xff\x2f\x00"
    return struct.pack(">4sI", b"MTrk", len(body)) + bytes(body)


def block_midi(beats: int, rng: np.random.Generator, index: int) -> bytes:
    """An SMF of `beats` chords whose tempo changes at every section.

    Even indices give format 0 with running status and note-on velocity 0
    as note-off; odd indices give format 1 with a tempo track and the chord
    split over two channels with explicit note-offs. Some notes are
    staccato (half a beat); the final chord is held for four beats so the
    last sample of the parsed roll is never silent.
    """
    chords = _chords(rng)
    archetype = ARCHETYPES[index % len(ARCHETYPES)]
    sections = _sections(archetype, beats)
    octaves = rng.integers(0, 2, size=(beats, 3))
    staccato = rng.random((beats, 3)) < 0.25
    fmt = index % 2

    tempo_events = []
    section_len = beats // len(archetype)
    for k in range(len(archetype)):
        us = US_PER_QUARTER[k % 2]
        tempo_events.append((k * section_len * TPQ, 0, b"\xff\x51\x03" + us.to_bytes(3, "big")))

    voices: list[list[tuple[int, int, bytes]]] = [[], []]
    for beat in range(beats):
        for j, pitch in enumerate(chords[sections[beat]]):
            pitch += 12 * int(octaves[beat, j])
            length = TPQ // 2 if staccato[beat, j] else TPQ
            if beat == beats - 1:
                length = 4 * TPQ
            on, off = beat * TPQ, beat * TPQ + length
            voice, channel = (0, 0) if fmt == 0 or j == 0 else (1, 1)
            if fmt == 0:
                off_msg = bytes((0x90, pitch, 0))
            else:
                off_msg = bytes((0x80 | channel, pitch, 64))
            voices[voice].append((on, 2, bytes((0x90 | channel, pitch, 80))))
            voices[voice].append((off, 1, off_msg))

    if fmt == 0:
        tracks = [_track(tempo_events + voices[0], running_status=True)]
    else:
        tracks = [
            _track(tempo_events, running_status=False),
            _track(voices[0], running_status=True),
            _track(voices[1], running_status=False),
        ]
    header = struct.pack(">4sIHHH", b"MThd", 6, fmt, len(tracks), TPQ)
    return header + b"".join(tracks)


def write_midis(directory: Path, beats: tuple[int, ...], rng: np.random.Generator) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for i, n in enumerate(beats):
        (directory / f"m{i:02d}_b{n}.mid").write_bytes(block_midi(n, rng, i))
