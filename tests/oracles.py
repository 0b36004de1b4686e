"""Independent oracles: brute-force simplex projection, finite differences.

These deliberately avoid the library's own algorithms so that the tests
check against a second derivation, not a mirror of the implementation.
The step-by-step references at the end are the forms the vectorized and
in-place kernels replaced (masked sigmoid, one sparsemax per attention row
and one masked sparsemax per block of them, whole-history attention products,
lexsort sampler drawing with rng.choice, concatenated LSTM backward with
its factors taken per step, the dense LSTM input product, Adam as plain
expressions), as are the pitch-class fold that summed each class's rows
on its own, the chroma SSM and structural loss that symmetrised
their n x n products and averaged the squared difference, the
standardized MSE that standardized both matrices first, and the MIDI
reader, sampler and writer that made one Python object per event, note
and pitch row. The tests require bit-for-bit equal results from both (for
MIDI: the same notes, warnings, errors and bytes), except for values
behind a sum or product whose order moved (the attention vectors, the LSTM
input projection, the LSTM backward step, the structural loss and its
gradients, the standardized MSE), which `close` checks to RTOL.
"""

from __future__ import annotations

import bisect
import copy
import math
import struct
from itertools import combinations

import numpy as np

from sing import nn
from sing.midi_io import (
    DEFAULT_US_PER_QUARTER,
    MAX_SAMPLES,
    NOTE_VELOCITY,
    SAMPLE_EPS,
    TEMPO_FALLBACK,
    TEMPO_MAX,
    TEMPO_MIN,
    WRITE_TICKS_PER_QUARTER,
    MidiParseError,
)
from sing.structure import DEGENERATE_STD, N_CHROMA
from sing.training import PieceLoss, _backward_through_time

PITCH_CLASSES = np.arange(128) % N_CHROMA  # the pitch class of each pitch row


def project_simplex_bruteforce(q: np.ndarray) -> np.ndarray:
    """Exhaustive active-set search over all nonempty supports.

    Every candidate p is feasible (nonnegative, sums to one) by
    construction; the Euclidean projection is the feasible candidate with
    minimum distance to q. Exponential in len(q): keep K <= 12.
    """
    q = np.asarray(q, dtype=np.float64)
    size = len(q)
    best_p = None
    best_dist = np.inf
    indices = range(size)
    for support_size in range(1, size + 1):
        for support in combinations(indices, support_size):
            support = list(support)
            tau = (q[support].sum() - 1.0) / support_size
            p = np.zeros(size)
            p[support] = q[support] - tau
            if (p[support] < -1e-15).any():
                continue
            dist = float(np.sum((p - q) ** 2))
            if dist < best_dist - 1e-15:
                best_dist = dist
                best_p = p
    return best_p


def project_simplex_bruteforce_fast(q: np.ndarray) -> np.ndarray:
    """Same search, vectorized over all 2^K - 1 support masks."""
    q = np.asarray(q, dtype=np.float64)
    size = len(q)
    masks = ((np.arange(1, 2**size)[:, None] >> np.arange(size)) & 1).astype(np.float64)
    sizes = masks.sum(axis=1)
    taus = (masks @ q - 1.0) / sizes
    candidates = (q[None, :] - taus[:, None]) * masks
    feasible = (candidates >= -1e-15).all(axis=1)
    dists = np.sum((candidates - q[None, :]) ** 2, axis=1)
    dists[~feasible] = np.inf
    return candidates[np.argmin(dists)]


def central_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        up = f(x)
        flat[i] = original - h
        down = f(x)
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * h)
    return grad


def relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    approx = np.asarray(approx, dtype=np.float64).ravel()
    exact = np.asarray(exact, dtype=np.float64).ravel()
    scale = max(float(np.linalg.norm(approx)), float(np.linalg.norm(exact)), 1e-12)
    return float(np.linalg.norm(approx - exact)) / scale


RTOL = 1e-12  # for values behind a floating-point sum whose order a kernel may change


def close(a, b, rtol: float = RTOL) -> bool:
    """Equal shapes, all finite, and every row (last axis) of a within rtol
    of b's relative to the larger row norm: the one tolerance check for
    values that may move in the last bits (README "Notes on the numerics")."""
    a, b = np.atleast_1d(np.asarray(a, np.float64)), np.atleast_1d(np.asarray(b, np.float64))
    if a.shape != b.shape or not (np.isfinite(a).all() and np.isfinite(b).all()):
        return False
    scale = np.maximum(np.linalg.norm(a, axis=-1), np.linalg.norm(b, axis=-1))
    return bool((np.linalg.norm(a - b, axis=-1) <= rtol * scale).all())


def piece_gradients_per_step(
    params: dict[str, np.ndarray],
    head: str,
    seed_len: int,
    X: np.ndarray,
    A: np.ndarray | None,
    target: np.ndarray,
    S: np.ndarray,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Combined-loss gradients by backprop one step at a time.

    head is "dense", "per_pitch" or "ablated". X holds the n-1 LSTM inputs
    (fed-back samples are constants), A the attention vectors of the
    generated steps, target the (n, 128) target samples and S the template.
    The LSTM is rerun from X; every weight gradient is the sum of one outer
    product per step. Returns (logits of the generated steps, gradients).
    """
    n = target.shape[0]
    W_x, W_h, b = params["lstm.W_x"], params["lstm.W_h"], params["lstm.b"]
    hidden = W_h.shape[1]
    grads = {name: np.zeros_like(value) for name, value in params.items()}

    # forward: gates, cell states and hidden states of steps 1..n-1
    hs, cs, gates = [np.zeros(hidden)], [np.zeros(hidden)], [None]
    for t in range(1, n):
        pre = W_x @ X[t - 1] + W_h @ hs[-1] + b
        i, f, o = (1.0 / (1.0 + np.exp(-pre[k * hidden : (k + 1) * hidden])) for k in (0, 1, 3))
        g = np.tanh(pre[2 * hidden : 3 * hidden])
        cs.append(f * cs[-1] + i * g)
        hs.append(o * np.tanh(cs[-1]))
        gates.append((i, f, g, o))
    logits = []
    for t in range(seed_len, n):
        z = hs[t]
        if head == "dense":
            logits.append(params["combine.W"] @ np.concatenate([A[t - seed_len], z])
                          + params["combine.b"])
        elif head == "per_pitch":
            logits.append(params["combine.w_a"][0] * A[t - seed_len]
                          + params["combine.w_z"][0] * z + params["combine.b"][0])
        else:
            logits.append(params["head.W"] @ z + params["head.b"])
    probs = [1.0 / (1.0 + np.exp(-d)) for d in logits]

    # structural loss mean((V^T V - S)^2) over unit chroma columns V
    cols = [target[t] for t in range(seed_len)] + probs
    U = np.zeros((12, n))
    for pitch in range(128):
        U[pitch % 12] += np.array([col[pitch] for col in cols])
    norms = np.sqrt(np.sum(U * U, axis=0))
    V = np.zeros_like(U)
    V[:, norms > 0] = U[:, norms > 0] / norms[norms > 0]
    diff = V.T @ V - S

    dz_by_step = {}
    for t in range(seed_len, n):
        j = t - seed_len
        dd = probs[j] - target[t]  # BCE
        if norms[t] > 0:
            dv = V @ (diff[t] + diff[:, t]) * 2.0 / (n * n)
            du = (dv - V[:, t] * (V[:, t] @ dv)) / norms[t]
            dd = dd + du[np.arange(128) % 12] * probs[j] * (1.0 - probs[j])
        z = hs[t]
        if head == "dense":
            grads["combine.W"] += np.outer(dd, np.concatenate([A[j], z]))
            grads["combine.b"] += dd
            dz_by_step[t] = params["combine.W"][:, A.shape[1] :].T @ dd
        elif head == "per_pitch":
            grads["combine.w_a"] += dd @ A[j]
            grads["combine.w_z"] += dd @ z
            grads["combine.b"] += dd.sum()
            dz_by_step[t] = params["combine.w_z"][0] * dd
        else:
            grads["head.W"] += np.outer(dd, z)
            grads["head.b"] += dd
            dz_by_step[t] = params["head.W"].T @ dd

    dh_next = np.zeros(hidden)
    dc_next = np.zeros(hidden)
    for t in range(n - 1, 0, -1):
        i, f, g, o = gates[t]
        dh = dh_next + dz_by_step.get(t, 0.0)
        tc = np.tanh(cs[t])
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dpre = np.concatenate([
            dc * g * i * (1.0 - i),
            dc * cs[t - 1] * f * (1.0 - f),
            dc * i * (1.0 - g * g),
            dh * tc * o * (1.0 - o),
        ])
        grads["lstm.W_x"] += np.outer(dpre, X[t - 1])
        grads["lstm.W_h"] += np.outer(dpre, hs[t - 1])
        grads["lstm.b"] += dpre
        dh_next = W_h.T @ dpre
        dc_next = dc * f
    return np.array(logits), grads


# ---------------------------------------------------------------------------
# step-by-step forward references


def sigmoid_masked(x: np.ndarray) -> np.ndarray:
    """Sigmoid by two masked branches, exp(-x) for x >= 0 and exp(x) below."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sparsemax_1d(q: np.ndarray) -> np.ndarray:
    """Sort-and-threshold simplex projection of one vector."""
    q = np.asarray(q, dtype=np.float64)
    sorted_desc = np.sort(q)[::-1]
    cumulative = np.cumsum(sorted_desc)
    ks = np.arange(1, q.shape[0] + 1)
    k = int(ks[1.0 + ks * sorted_desc > cumulative][-1])
    tau = (cumulative[k - 1] - 1.0) / k
    return np.maximum(q - tau, 0.0)


def attention_weights_per_row(S: np.ndarray, first_row: int) -> np.ndarray:
    """Row t - first_row holds sparsemax_1d(S[t, :t]), zero-padded to n - 1."""
    n = S.shape[0]
    W = np.zeros((n - first_row, n - 1))
    for t in range(first_row, n):
        W[t - first_row, :t] = sparsemax_1d(S[t, :t])
    return W


def attention_weights(S: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The attention weights of steps start..stop-1 of template values S, as
    one sparsemax over rows masked to -inf at and right of the diagonal:
    row i holds sparsemax(S[t, :t]) for t = start + i, then zeros. It sorts
    on every call; SelfSimilarityMatrix.weights sorts a block once and keeps
    its thresholds."""
    width = stop - 1
    prefix = np.arange(width) < np.arange(start, stop)[:, None]
    return nn.sparsemax(np.where(prefix, S[start:stop, :width], -np.inf))


def _top_k_weights(d: np.ndarray, cfg) -> tuple[np.ndarray, np.ndarray]:
    """The pitches the lexsort sampler draws from, and their probabilities."""
    probs = sigmoid_masked(np.asarray(d, dtype=np.float64))
    allowed = np.arange(cfg.pitch_lo, cfg.pitch_hi + 1)
    order = np.lexsort((allowed, -probs[allowed]))
    top = allowed[order[: cfg.top_k]]
    mass = probs[top]
    total = mass.sum()
    if total <= 0.0:
        return allowed, np.full(len(allowed), 1.0 / len(allowed))
    return top, mass / total


def sample_notes_lexsort(d: np.ndarray, cfg, rng: np.random.Generator) -> np.ndarray:
    """Top-k sampler ranking the allowed pitches by lexsort on (-prob, pitch)."""
    top, weights = _top_k_weights(d, cfg)
    draws = rng.choice(top, size=cfg.max_notes, replace=True, p=weights)
    sample = np.zeros(128, dtype=np.uint8)
    sample[np.unique(draws)] = 1
    return sample


def draw_margin(d: np.ndarray, cfg, rng: np.random.Generator) -> float:
    """Distance from the uniforms `sample_notes_lexsort(d, cfg, rng)` is about
    to draw to the nearest inner boundary of the CDF that rng.choice searches
    them in. Replayed on a copy, so rng does not advance. Two samplers can
    draw different pitches from one uniform only if their CDFs move a
    boundary past it."""
    _, weights = _top_k_weights(d, cfg)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    uniforms = copy.deepcopy(rng).random(cfg.max_notes)
    return float(np.abs(uniforms[:, None] - cdf[:-1]).min(initial=np.inf))


def lstm_cell_backward_concat(step, dh, dc):
    """One LSTM step backward with dpre built by concatenating its four blocks,
    each factor taken in the step, for step = (W_x, W_h, c_prev, gates, tanh(c)).
    Bit for bit the per-step kernel that lstm_backward_factors replaced."""
    _, W_h, c_prev, gates, tc = step
    i, f, g, o = np.split(gates, 4)
    do = dh * tc
    dct = dc + dh * o * (1.0 - tc * tc)
    dpre = np.concatenate([dct * g * i * (1.0 - i), dct * c_prev * f * (1.0 - f),
                           dct * i * (1.0 - g * g), do * o * (1.0 - o)])
    return W_h.T @ dpre, dct * f, dpre


def adam_step_expressions(params, lr: float) -> None:
    """One Adam update written as plain expressions, each forming new arrays."""
    params.step += 1
    t = params.step
    for name, value in params.values.items():
        g, m, v = params.grads[name], params.m[name], params.v[name]
        m *= nn.ADAM_BETA1
        m += (1.0 - nn.ADAM_BETA1) * g
        v *= nn.ADAM_BETA2
        v += (1.0 - nn.ADAM_BETA2) * g * g
        m_hat = m / (1.0 - nn.ADAM_BETA1**t)
        v_hat = v / (1.0 - nn.ADAM_BETA2**t)
        value -= lr * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPS)
    params.zero_grads()


def lstm_cell_dense(W_x, W_h, b, x, h_prev, c_prev):
    """One LSTM step with the dense input product W_x @ x, the form the
    column gather replaced; returns (h, c, stacked gate activations)."""
    hidden = W_h.shape[1]
    pre = W_x @ x + W_h @ h_prev + b
    gates = sigmoid_masked(pre)
    gates[2 * hidden : 3 * hidden] = np.tanh(pre[2 * hidden : 3 * hidden])
    i, f, g, o = np.split(gates, 4)
    c = f * c_prev + i * g
    return o * np.tanh(c), c, gates


def _lstm_step(params, x, state):
    h, c, _ = lstm_cell_dense(params["lstm.W_x"], params["lstm.W_h"], params["lstm.b"], x, *state)
    return h, c


def _logits(params, cfg, z, S, t, history):
    """(logits, attention vector) of step t; the attention row is projected here."""
    if not cfg.attention_enabled:
        return params["head.W"] @ z + params["head.b"], None
    a = sparsemax_1d(S[t, :t]) @ history
    if cfg.combiner_mode == "dense":
        return params["combine.W"] @ np.concatenate([a, z]) + params["combine.b"], a
    return params["combine.w_a"][0] * a + params["combine.w_z"][0] * z + params["combine.b"][0], a


def forward_piece_per_step(params, cfg, target, S, p_feedback, rng, margins=None):
    """Scheduled-sampling forward pass, one step at a time.

    target is the (n, 128) float sample matrix. Returns (X, D, A) laid out
    as in training.PieceTrace. A `margins` dict receives the `draw_margin`
    of each step t that samples X[t].
    """
    n, seed_len = target.shape[0], cfg.seed_len
    X = np.zeros((n - 1, 128))
    X[:seed_len] = target[:seed_len]
    state = (np.zeros(cfg.hidden_size), np.zeros(cfg.hidden_size))
    for t in range(1, seed_len):
        state = _lstm_step(params, X[t - 1], state)
    D, A = [], []
    for t in range(seed_len, n):
        state = _lstm_step(params, X[t - 1], state)
        d, a = _logits(params, cfg, state[0], S, t, X[:t])
        D.append(d)
        A.append(a)
        if t <= n - 2:
            if rng.random() < p_feedback:
                if margins is not None:
                    margins[t] = draw_margin(d, cfg, rng)
                X[t] = sample_notes_lexsort(d, cfg, rng).astype(np.float64)
            else:
                X[t] = target[t]
    return X, np.array(D), np.array(A) if cfg.attention_enabled else None


def generate_per_step(params, cfg, seed, S, rng, margins=None):
    """Continue seed to the template's length, one step at a time; (128, n)
    uint8. A `margins` dict receives the `draw_margin` of each step t."""
    n, seed_len = S.shape[0], cfg.seed_len
    out = np.zeros((n, 128))
    out[:seed_len] = seed
    state = (np.zeros(cfg.hidden_size), np.zeros(cfg.hidden_size))
    for t in range(1, n):
        state = _lstm_step(params, out[t - 1], state)
        if t >= seed_len:
            d, _ = _logits(params, cfg, state[0], S, t, out[:t])
            if margins is not None:
                margins[t] = draw_margin(d, cfg, rng)
            out[t] = sample_notes_lexsort(d, cfg, rng)
    return out.T.astype(np.uint8)


# ---------------------------------------------------------------------------
# structural references with the symmetrising and zeroing passes


def fold_pitch_classes_per_class(rows: np.ndarray) -> np.ndarray:
    """(128, m) -> (12, m) float64: each pitch class's rows summed by a
    strided slice of their own."""
    out = np.zeros((N_CHROMA, rows.shape[1]))
    for cls in range(N_CHROMA):
        out[cls] = rows[cls::N_CHROMA].sum(axis=0)
    return out


def standardize(values: np.ndarray) -> np.ndarray:
    """Shift to zero mean and scale to unit population std over all entries;
    a std below DEGENERATE_STD gives the all-zero matrix."""
    std = float(values.std())
    if std < DEGENERATE_STD:
        return np.zeros_like(values)
    return (values - values.mean()) / std


def standardized_mse_two_step(a: np.ndarray, b: np.ndarray) -> float:
    """The mean squared difference of the two standardized matrices."""
    return float(np.mean((standardize(a) - standardize(b)) ** 2))



def ssm_two_pass(chroma_seq: np.ndarray) -> np.ndarray:
    """Chroma SSM values, symmetrised and with silent rows and columns zeroed
    after the clip."""
    cols = np.asarray(chroma_seq, dtype=np.float64)
    if cols.ndim != 2 or cols.shape[0] != N_CHROMA:
        raise ValueError(f"chroma must be (12, n), got {cols.shape}")
    norms = np.linalg.norm(cols, axis=0)
    nonzero = norms > 0.0
    unit = np.where(nonzero, norms, 1.0)
    normalized = cols / unit
    values = normalized.T @ normalized
    values = (values + values.T) / 2.0
    np.clip(values, 0.0, 1.0, out=values)
    values[~nonzero, :] = 0.0
    values[:, ~nonzero] = 0.0
    values[np.diag_indices_from(values)] = np.where(nonzero, 1.0, 0.0)
    return values


def piece_loss_two_pass(model, trace, target, S, with_grad=True) -> PieceLoss:
    """Combined loss with the structural term on the n x n matrix V.T V - S
    itself, and its gradient V @ (dG + dG.T)."""
    n, seed_len = trace.n, trace.seed_len
    if target.n_samples != n or S.n != n:
        raise ValueError("trace, target, and SSM lengths disagree")
    target_samples = target.data.T.astype(np.float64)
    P = nn.sigmoid(trace.D)
    bce_total, dD = nn.bce_with_logits(trace.D, target_samples[seed_len:], P)

    # Structural term on chroma of [target seed | predicted probabilities].
    cols = np.concatenate([target_samples[:seed_len].T, P.T], axis=1)
    U = fold_pitch_classes_per_class(cols)
    norms = np.linalg.norm(U, axis=0)
    nonzero = norms > 0.0
    V = U / np.where(nonzero, norms, 1.0)
    G = V.T @ V
    diff = G - S.values
    structural = float(np.mean(diff**2))
    total = bce_total + structural

    if with_grad:
        dG = 2.0 * diff / (n * n)
        dV = V @ (dG + dG.T)
        # normalization backward, generated columns only (seed is constant)
        vg = V[:, seed_len:]
        dvg = dV[:, seed_len:]
        nz_gen = nonzero[seed_len:]
        du = (dvg - vg * np.sum(vg * dvg, axis=0)) / np.where(nz_gen, norms[seed_len:], 1.0)
        du[:, ~nz_gen] = 0.0
        dD += du[PITCH_CLASSES, :].T * P * (1.0 - P)  # unfold pitch classes to 128
        _backward_through_time(model, trace, dD)
    return PieceLoss(total=total, bce=bce_total, structural=structural)


# ---------------------------------------------------------------------------
# MIDI references: one Python object per event, note and pitch row


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


def parse_midi_per_event(data: bytes) -> tuple[list[tuple[int, float, float, int]], list[str]]:
    """(notes, warnings): notes as (pitch, onset, offset, velocity) tuples in
    seconds, ordered by (onset, pitch, offset, velocity); each tick becomes
    seconds through a bisect in the tempo map and Python-int arithmetic."""
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
            continue
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
                        on_tick, velocity = stack.pop(0)
                        raw_notes.append((on_tick, tick, d1, velocity))

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

    notes = []
    for on_tick, off_tick, pitch, velocity in raw_notes:
        onset = seconds_at(on_tick)
        offset = seconds_at(off_tick)
        if offset <= onset:
            warnings.append(f"zero-length note pitch={pitch} at tick {on_tick} dropped")
            continue
        notes.append((pitch, onset, offset, velocity))
    notes.sort(key=lambda n: (n[1], n[0], n[2], n[3]))
    return notes, warnings


def estimate_tempo_per_note(notes) -> float:
    """Events per minute from the median gap between a set of onsets."""
    onsets = sorted({onset for _, onset, _, _ in notes})
    if len(onsets) < 2:
        return TEMPO_FALLBACK
    median_ioi = float(np.median(np.diff(onsets)))
    if median_ioi <= 0.0:
        return TEMPO_FALLBACK
    return float(min(max(60.0 / median_ioi, TEMPO_MIN), TEMPO_MAX))


def to_piano_roll_per_note(notes, tempo: float) -> np.ndarray:
    """(128, n) uint8 roll written one note slice at a time."""
    if not notes:
        raise ValueError("empty piece")
    period = 60.0 / tempo
    last_offset = max(offset for _, _, offset, _ in notes)
    n_samples = max(1, math.ceil(last_offset / period - SAMPLE_EPS))
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"piece spans {n_samples} samples, more than {MAX_SAMPLES}")
    data = np.zeros((128, n_samples), dtype=np.uint8)
    for pitch, onset, offset, _ in notes:
        start = max(0, math.ceil(onset / period - SAMPLE_EPS))
        stop = min(n_samples, math.ceil(offset / period - SAMPLE_EPS))
        if stop > start:
            data[pitch, start:stop] = 1
    return data


def to_midi_per_pitch(roll) -> bytes:
    """Format-0 SMF from one (tick, on, pitch) tuple per run edge, pitch row by row."""
    tempo = roll.tempo
    us_per_quarter = round(60e6 / tempo)
    if not 1 <= us_per_quarter <= 0xFFFFFF:
        raise ValueError(f"tempo {tempo} not representable in MIDI")
    period = 60.0 / tempo
    ratio = period * 1e6 / us_per_quarter

    def boundary_tick(sample: int) -> int:
        return round(sample * WRITE_TICKS_PER_QUARTER * ratio)

    note_edges: list[tuple[int, int, int]] = []
    for pitch in range(128):
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
