"""Chroma vectors, self-similarity matrices, and structural distance.

A self-similarity matrix (SSM) here is the n x n matrix of pairwise cosine
similarities between the chroma vectors of a piece's samples, scaled to
unit length by `unit_columns`, which the structural training loss shares.
Silent samples (zero chroma) score 0 against everything, themselves too.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sing import nn
from sing.config import kv_lines
from sing.midi_io import MAX_SAMPLES, PianoRoll

N_CHROMA = 12
SSM_MAGIC = b"SINGSSM\x00"
DEGENERATE_STD = 1e-12
ATTENTION_BLOCK_ROWS = 64  # rows per sparsemax call: temporaries stay at 64 x n


@dataclass(eq=False)
class SelfSimilarityMatrix:
    values: np.ndarray  # (n, n) float64, symmetric, entries in [0, 1]
    role: str = "template"  # "template" or "generated"
    # sparsemax thresholds of each weights block read so far, keyed (start, stop)
    _tau: dict[tuple[int, int], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError(f"SSM must be square, got {self.values.shape}")
        if self.role not in ("template", "generated"):
            raise ValueError(f"unknown SSM role {self.role!r}")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SelfSimilarityMatrix):
            return NotImplemented
        return self.role == other.role and np.array_equal(self.values, other.values)

    def weights(self, start: int, stop: int) -> np.ndarray:
        """(stop - start, stop - 1): row i holds sparsemax(S[t, :t]), t = start + i, then zeros.
        The entries at and right of the diagonal, all in the last columns, are set to -inf.
        The block's thresholds are sorted the first time it is read, then kept."""
        q = self.values[start:stop, : stop - 1].copy()
        q[:, start:][np.arange(stop - 1 - start) >= np.arange(stop - start)[:, None]] = -np.inf
        tau = self._tau.get((start, stop))
        if tau is None:
            tau = self._tau[start, stop] = nn.sparsemax_threshold(q)
        return nn.sparsemax(q, tau)


@dataclass
class SynthSpec:
    """Recipe for a synthetic block SSM.

    Each block (start, end, level) paints the square region
    [start, end) x [start, end); later blocks overwrite earlier ones and
    the diagonal is forced to 1 on realization.
    """

    length: int
    blocks: list[tuple[int, int, float]] = field(default_factory=list)
    background: float = 0.0

    def __post_init__(self):
        if not 1 <= self.length <= MAX_SAMPLES:
            raise ValueError(f"length {self.length} outside 1..{MAX_SAMPLES}")
        if not 0.0 <= self.background <= 1.0:
            raise ValueError(f"background {self.background} outside [0, 1]")
        for start, end, level in self.blocks:
            if not 0 <= start < end <= self.length:
                raise ValueError(f"block ({start}, {end}) outside 0..{self.length}")
            if not 0.0 <= level <= 1.0:
                raise ValueError(f"block level {level} outside [0, 1]")


def fold_pitch_classes(rows: np.ndarray) -> np.ndarray:
    """(128, m) float64 -> (12, m): sum the pitch rows of each pitch class."""
    out = np.zeros((N_CHROMA, rows.shape[1]))
    for cls in range(N_CHROMA):
        out[cls] = rows[cls::N_CHROMA].sum(axis=0)
    return out


def chroma(roll: PianoRoll) -> np.ndarray:
    """Fold a piano roll into per-sample pitch-class counts, (12, n)."""
    return fold_pitch_classes(roll.data.astype(np.float64))


def unit_columns(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cols scaled to unit column length, column norms); zero columns stay zero."""
    norms = np.linalg.norm(cols, axis=0)
    return cols / np.where(norms > 0.0, norms, 1.0), norms


def ssm(chroma_seq: np.ndarray, role: str = "template") -> SelfSimilarityMatrix:
    """Pairwise cosine similarity between chroma columns: one product
    `unit.T @ unit` (numpy forms it as one syrk, so it is exactly
    symmetric), the clip to [0, 1], then the diagonal. A zero column scores
    0 against everything, its diagonal included; the others' diagonal is 1.
    """
    cols = np.asarray(chroma_seq, dtype=np.float64)
    if cols.ndim != 2 or cols.shape[0] != N_CHROMA:
        raise ValueError(f"chroma must be (12, n), got {cols.shape}")
    unit, norms = unit_columns(cols)
    values = unit.T @ unit
    np.clip(values, 0.0, 1.0, out=values)
    np.fill_diagonal(values, norms > 0.0)
    return SelfSimilarityMatrix(values=values, role=role)


def standardized_mse(template: SelfSimilarityMatrix, generated: SelfSimilarityMatrix) -> float:
    """MSE between the two SSMs, each shifted to zero mean and scaled to unit
    population std over its n^2 entries.

    That is 2 - 2 corr(a, b), taken from one centred inner product, so
    statistically unrelated matrices score about 2 and affinely related ones
    0. An input whose std is below DEGENERATE_STD standardizes to all zeros:
    it adds 0 instead of 1, and the cross term drops out.
    """
    if template.values.shape != generated.values.shape:
        raise ValueError(f"shape mismatch: {template.values.shape} vs {generated.values.shape}")
    if generated.n < 2:
        raise ValueError("standardized MSE needs n >= 2")
    a = template.values - template.values.mean()
    b = generated.values - generated.values.mean()
    a_sq, b_sq = np.vdot(a, a), np.vdot(b, b)
    a_live = bool(np.sqrt(a_sq / a.size) >= DEGENERATE_STD)
    b_live = bool(np.sqrt(b_sq / b.size) >= DEGENERATE_STD)
    score = float(a_live) + float(b_live)
    if a_live and b_live:
        score -= 2.0 * float(np.vdot(a, b) / np.sqrt(a_sq * b_sq))
    return score


def synth_ssm(spec: SynthSpec) -> SelfSimilarityMatrix:
    """Realize a synthetic SSM: background, block overwrites, unit diagonal."""
    values = np.full((spec.length, spec.length), spec.background, dtype=np.float64)
    for start, end, level in spec.blocks:
        values[start:end, start:end] = level
    values[np.diag_indices_from(values)] = 1.0
    return SelfSimilarityMatrix(values=values, role="template")


def parse_synth_spec(text: str) -> SynthSpec:
    """Read a SynthSpec from `length=`, `background=`, `block=` lines."""
    length: int | None = None
    background = 0.0
    blocks: list[tuple[int, int, float]] = []
    for lineno, key, value in kv_lines(text):
        try:
            if key == "length":
                length = int(value)
            elif key == "background":
                background = float(value)
            elif key == "block":
                start_s, end_s, level_s = value.split(",")
                blocks.append((int(start_s), int(end_s), float(level_s)))
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if length is None:
        raise ValueError("spec must set length=<int>")
    return SynthSpec(length=length, blocks=blocks, background=background)


def render_pgm(matrix: SelfSimilarityMatrix) -> bytes:
    """Render an SSM as a binary PGM (P5) image, row 0 on top.

    Values are clamped to [0, 1] and mapped to 0..255 with round-half-up.
    """
    values = np.clip(matrix.values, 0.0, 1.0)
    pixels = np.floor(values * 255.0 + 0.5).astype(np.uint8)
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + pixels.tobytes()


def _ssm_header(n: int) -> bytes:
    return SSM_MAGIC + struct.pack("<I", n)


def ssm_to_bytes(matrix: SelfSimilarityMatrix) -> bytes:
    return _ssm_header(matrix.n) + matrix.values.astype("<f4").tobytes()


def ssm_from_bytes(data: bytes) -> SelfSimilarityMatrix:
    if data[: len(SSM_MAGIC)] != SSM_MAGIC:
        raise ValueError("not an SSM container (bad magic)")
    if len(data) < len(SSM_MAGIC) + 4:
        raise ValueError("SSM header truncated")
    (n,) = struct.unpack_from("<I", data, len(SSM_MAGIC))
    if n > MAX_SAMPLES:
        raise ValueError(f"SSM is {n} x {n}, more than {MAX_SAMPLES} samples")
    payload = data[len(SSM_MAGIC) + 4 :]
    if len(payload) != n * n * 4:
        raise ValueError("SSM payload size mismatch")
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(n, n)
    if not np.isfinite(values).all():
        raise ValueError("SSM holds non-finite values")
    if n == 0:
        raise ValueError("SSM is 0 x 0")
    outside = (values < 0.0) | (values > 1.0)
    if outside.any():
        i, j = np.unravel_index(np.argmax(outside), outside.shape)
        raise ValueError(f"SSM entry ({i}, {j}) is {values[i, j]}, outside [0, 1]")
    asymmetric = values != values.T
    if asymmetric.any():
        i, j = np.unravel_index(np.argmax(asymmetric), asymmetric.shape)
        raise ValueError(f"SSM is not symmetric: entry ({i}, {j}) differs from ({j}, {i})")
    return SelfSimilarityMatrix(values=values)


def save_ssm(matrix: SelfSimilarityMatrix, path: str | Path) -> None:
    """Write the bytes of `ssm_to_bytes`, the payload straight from its cast."""
    with open(path, "wb") as handle:
        handle.write(_ssm_header(matrix.n))
        handle.write(matrix.values.astype("<f4", order="C"))


def load_ssm(path: str | Path) -> SelfSimilarityMatrix:
    return ssm_from_bytes(Path(path).read_bytes())
