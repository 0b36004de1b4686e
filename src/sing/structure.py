"""Chroma vectors, self-similarity matrices, and structural distance.

A self-similarity matrix (SSM) here is the n x n matrix of pairwise cosine
similarities between the chroma vectors of a piece's samples, scaled to
unit length by `unit_columns`, which the structural training loss shares.
Silent samples (zero chroma) score 0 against everything, themselves too.
An SSM built from chroma keeps those 12 x n unit columns and forms its
n x n values only when they are read; the standardized MSE reads the factor.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sing import nn
from sing.config import kv_lines
from sing.midi_io import MAX_SAMPLES, N_PITCHES, PianoRoll

N_CHROMA = 12
SSM_MAGIC = b"SINGSSM\x00"
DEGENERATE_STD = 1e-12
ATTENTION_BLOCK_ROWS = 64  # rows per sparsemax call: temporaries stay at 64 x n


class SelfSimilarityMatrix:
    """An n x n SSM: float64, symmetric, entries in [0, 1].

    Built from chroma (`ssm`), it holds the unit chroma factor `unit`
    (12 x n, a silent sample's column zero) and forms `values` the first
    time they are read; `standardized_mse` reads the factor instead. Built
    from values (an `.ssm` file, `synth_ssm`), it holds them dense and
    `unit` is None.
    """

    def __init__(self, values: np.ndarray | None = None, role: str = "template",
                 unit: np.ndarray | None = None, live: np.ndarray | None = None):
        if (values is None) == (unit is None):
            raise ValueError("an SSM holds either its values or its unit chroma factor")
        if (unit is None) != (live is None):
            raise ValueError("an SSM's live mask comes with its unit factor, and only with it")
        if role not in ("template", "generated"):
            raise ValueError(f"unknown SSM role {role!r}")
        self.role = role  # "template" or "generated"
        self.unit, self._live = unit, live  # live: the columns of nonzero chroma
        self._values = None
        if values is not None:
            self._values = np.asarray(values, dtype=np.float64)
            if self._values.ndim != 2 or self._values.shape[0] != self._values.shape[1]:
                raise ValueError(f"SSM must be square, got {self._values.shape}")
        # sparsemax thresholds of each weights block read so far, keyed (start, stop)
        self._tau: dict[tuple[int, int], np.ndarray] = {}

    @property
    def values(self) -> np.ndarray:
        """One product `unit.T @ unit` (numpy forms it as one syrk, so it is
        exactly symmetric), the clip to [0, 1], then the diagonal: 0 for a
        silent sample, 1 for the others. Formed on the first read, then kept."""
        if self._values is None:
            values = self.unit.T @ self.unit
            np.clip(values, 0.0, 1.0, out=values)
            np.fill_diagonal(values, self._live)
            self._values = values
        return self._values

    @property
    def n(self) -> int:
        return self.unit.shape[1] if self.unit is not None else self._values.shape[0]

    def __repr__(self) -> str:
        held = "dense" if self.unit is None else "factored"
        return f"SelfSimilarityMatrix(n={self.n}, role={self.role!r}, {held})"

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
    """(128, m) -> (12, m): the sum of the pitch rows of each pitch class, ten
    whole octaves in one sum and then the last eight rows, so each class's
    rows are added in row order. It accumulates in uint16 for uint8 rows,
    whose whole counts are exact, and in float64 for float64 rows."""
    octaves = N_PITCHES // N_CHROMA * N_CHROMA
    dtype = np.promote_types(rows.dtype, np.uint16)
    out = rows[:octaves].reshape(-1, N_CHROMA, rows.shape[1]).sum(axis=0, dtype=dtype)
    out[: N_PITCHES - octaves] += rows[octaves:]
    return out


def chroma(roll: PianoRoll) -> np.ndarray:
    """Fold a piano roll into per-sample pitch-class counts, (12, n) float64."""
    return fold_pitch_classes(roll.data).astype(np.float64)


def unit_columns(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cols scaled to unit column length, column norms); zero columns stay zero."""
    norms = np.linalg.norm(cols, axis=0)
    return cols / np.where(norms > 0.0, norms, 1.0), norms


def ssm(chroma_seq: np.ndarray, role: str = "template") -> SelfSimilarityMatrix:
    """Pairwise cosine similarity between chroma columns, held as their unit
    columns; SelfSimilarityMatrix.values forms the n x n matrix. A zero
    column scores 0 against everything, its diagonal included; the others'
    diagonal is 1.
    """
    cols = np.asarray(chroma_seq, dtype=np.float64)
    if cols.ndim != 2 or cols.shape[0] != N_CHROMA:
        raise ValueError(f"chroma must be (12, n), got {cols.shape}")
    if not (np.isfinite(cols).all() and (cols >= 0.0).all()):
        raise ValueError("chroma must be finite and >= 0")
    unit, norms = unit_columns(cols)
    return SelfSimilarityMatrix(role=role, unit=unit, live=norms > 0.0)


def _centred_factor(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(E, alpha, sum of (G - mean)^2) of the Gram matrix G = U^T U of a unit
    factor U: with u = U1/n, E = U - u1^T and alpha = E^T u, G - mean is
    E^T E + alpha 1^T + 1 alpha^T, three parts orthogonal to each other."""
    n = unit.shape[1]
    mean_col = unit.sum(axis=1) / n
    E = unit - mean_col[:, None]
    alpha = mean_col @ E
    gram = E @ E.T
    return E, alpha, 2.0 * n * float(alpha @ alpha) + float(np.vdot(gram, gram))


def standardized_mse(template: SelfSimilarityMatrix, generated: SelfSimilarityMatrix) -> float:
    """MSE between the two SSMs, each shifted to zero mean and scaled to unit
    population std over its n^2 entries.

    That is 2 - 2 corr(a, b), so statistically unrelated matrices score
    about 2 and affinely related ones 0. An input whose std is below
    DEGENERATE_STD standardizes to all zeros: it adds 0 instead of 1, and
    the cross term drops out.

    The generated SSM must be built from chroma: the centred sums come from
    its 12 x n unit factor, and the cross term is 2n alpha_a . alpha_b +
    |E_a E_b^T|^2 against a template built from chroma too, or
    <E, E T> + alpha . (T1 + T^T 1), one pass, against dense values T. The
    factor's sums are of Gram entries, before the clip and the forced
    diagonal, which move them by a few ulps.
    """
    if template.n != generated.n:
        raise ValueError(f"shape mismatch: {(template.n,) * 2} vs {(generated.n,) * 2}")
    n = generated.n
    if n < 2:
        raise ValueError("standardized MSE needs n >= 2")
    if generated.unit is None:
        raise ValueError("the generated SSM must be built from chroma")
    E, alpha, b_sq = _centred_factor(generated.unit)
    if template.unit is not None:
        E_a, alpha_a, a_sq = _centred_factor(template.unit)
        cross_EE = E_a @ E.T
        cross = 2.0 * n * float(alpha_a @ alpha) + float(np.vdot(cross_EE, cross_EE))
    else:
        S = template.values
        centred = S - S.mean()
        sums = S.sum(axis=1) + S.sum(axis=0)
        a_sq = float(np.vdot(centred, centred))
        cross = float(np.vdot(E, E @ S)) + float(alpha @ sums)
    a_live = bool(np.sqrt(a_sq / (n * n)) >= DEGENERATE_STD)
    b_live = bool(np.sqrt(b_sq / (n * n)) >= DEGENERATE_STD)
    score = float(a_live) + float(b_live)
    if a_live and b_live:
        score -= 2.0 * cross / float(np.sqrt(a_sq * b_sq))
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
