"""Independent oracles: brute-force simplex projection, finite differences.

These deliberately avoid the library's own algorithms so that the tests
check against a second derivation, not a mirror of the implementation.
The step-by-step references at the end are the forms the vectorized and
in-place kernels replaced (masked sigmoid, one sparsemax per attention row,
lexsort sampler drawing with rng.choice, concatenated LSTM backward, the
dense LSTM input product), as are the chroma SSM and structural loss that
symmetrised their n x n products and averaged the squared difference, and
the standardized MSE that standardized both matrices first. The tests
require bit-for-bit equal results from both, except for values behind a sum
whose order moved (the LSTM input projection, the structural loss sum, the
standardized MSE), which `close` checks to RTOL.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from sing import nn
from sing.structure import DEGENERATE_STD, N_CHROMA, fold_pitch_classes
from sing.training import PITCH_CLASSES, PieceLoss, _backward_through_time


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


def sample_notes_lexsort(d: np.ndarray, cfg, rng: np.random.Generator) -> np.ndarray:
    """Top-k sampler ranking the allowed pitches by lexsort on (-prob, pitch)."""
    probs = sigmoid_masked(np.asarray(d, dtype=np.float64))
    allowed = np.arange(cfg.pitch_lo, cfg.pitch_hi + 1)
    order = np.lexsort((allowed, -probs[allowed]))
    top = allowed[order[: cfg.top_k]]
    mass = probs[top]
    total = mass.sum()
    if total <= 0.0:
        top = allowed
        weights = np.full(len(allowed), 1.0 / len(allowed))
    else:
        weights = mass / total
    draws = rng.choice(top, size=cfg.max_notes, replace=True, p=weights)
    sample = np.zeros(128, dtype=np.uint8)
    sample[np.unique(draws)] = 1
    return sample


def lstm_cell_backward_concat(step, dh, dc):
    """One LSTM step backward with dpre built by concatenating its four blocks."""
    _, W_h, c_prev, gates, tc = step
    i, f, g, o = np.split(gates, 4)
    do = dh * tc
    dct = dc + dh * o * (1.0 - tc * tc)
    dpre = np.concatenate([dct * g * i * (1.0 - i), dct * c_prev * f * (1.0 - f),
                           dct * i * (1.0 - g * g), do * o * (1.0 - o)])
    return W_h.T @ dpre, dct * f, dpre


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


def forward_piece_per_step(params, cfg, target, S, p_feedback, rng):
    """Scheduled-sampling forward pass, one step at a time.

    target is the (n, 128) float sample matrix. Returns (X, D, A) laid out
    as in training.PieceTrace.
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
                X[t] = sample_notes_lexsort(d, cfg, rng).astype(np.float64)
            else:
                X[t] = target[t]
    return X, np.array(D), np.array(A) if cfg.attention_enabled else None


def generate_per_step(params, cfg, seed, S, rng):
    """Continue seed to the template's length, one step at a time; (128, n) uint8."""
    n, seed_len = S.shape[0], cfg.seed_len
    out = np.zeros((n, 128))
    out[:seed_len] = seed
    state = (np.zeros(cfg.hidden_size), np.zeros(cfg.hidden_size))
    for t in range(1, n):
        state = _lstm_step(params, out[t - 1], state)
        if t >= seed_len:
            d, _ = _logits(params, cfg, state[0], S, t, out[:t])
            out[t] = sample_notes_lexsort(d, cfg, rng)
    return out.T.astype(np.uint8)


# ---------------------------------------------------------------------------
# structural references with the symmetrising and zeroing passes


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
    """Combined loss whose structural gradient takes V @ (dG + dG.T)."""
    n, seed_len = trace.n, trace.seed_len
    if target.n_samples != n or S.n != n:
        raise ValueError("trace, target, and SSM lengths disagree")
    target_samples = target.data.T.astype(np.float64)
    P = nn.sigmoid(trace.D)
    bce_total, dD = nn.bce_with_logits(trace.D, target_samples[seed_len:], P)

    # Structural term on chroma of [target seed | predicted probabilities].
    cols = np.concatenate([target_samples[:seed_len].T, P.T], axis=1)
    U = fold_pitch_classes(cols)
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
