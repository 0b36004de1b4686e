"""Independent oracles: brute-force simplex projection, finite differences.

These deliberately avoid the library's own algorithms so that the tests
check against a second derivation, not a mirror of the implementation.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


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
