"""Synthetic block-structured corpora for desk-scale experiments.

Each piece realizes one of four section layouts (the archetypes) with two
chroma-disjoint chords. Within a section every sample plays the same three
pitch classes, with per-sample octave jitter, so the piece's chroma SSM is
an exact block pattern matching its archetype.
"""

from __future__ import annotations

import numpy as np

from sing.midi_io import PianoRoll

ARCHETYPES = ("AABB", "ABAB", "ABBA", "AABA")


def make_block_piece(
    archetype: str, n: int, rng: np.random.Generator, source_id: str
) -> PianoRoll:
    """A whole piece as an item, labelled `<source_id>[0]`."""
    root = int(rng.integers(36, 56))
    chords = {
        "A": (root, root + 4, root + 7),
        "B": (root + 2, root + 5, root + 9),
    }
    section_len = n // len(archetype)
    data = np.zeros((128, n), dtype=np.uint8)
    for s in range(n):
        section = archetype[min(s // section_len, len(archetype) - 1)]
        for pitch in chords[section]:
            data[pitch + 12 * int(rng.integers(0, 2)), s] = 1
    return PianoRoll(data=data, tempo=120.0, source_id=f"{source_id}[0]")


def make_corpus(
    n_pieces: int, n: int, rng: np.random.Generator, prefix: str = "synth"
) -> list[PianoRoll]:
    return [
        make_block_piece(ARCHETYPES[i % len(ARCHETYPES)], n, rng, f"{prefix}{i}")
        for i in range(n_pieces)
    ]
