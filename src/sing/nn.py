"""Differentiable numeric kernels, the Adam optimizer and the SINGCKPT container.

Everything is 64-bit numpy with hand-written backward passes. Forward
kernels keep no cache: `sparsemax` returns its output alone, and
`lstm_cell_forward` writes one step's state and gate activations into rows
the caller owns, from which `lstm_backward_factors` forms the backward
pass's factors. Backward functions take the upstream gradient and return
the gradients of the inputs. `sigmoid` is max(e, x >= 0) / (1 + e) with
e = exp(-|x|) <= 1: 1 / (1 + e) for x >= 0, e / (1 + e) below.

Numerics contract, checked against the references in tests/oracles.py:
bit for bit for the sampler's draws, `sigmoid`, the attention weights,
the order of the LSTM row writes and Adam (its reference's expressions);
within 1e-12 relative for the LSTM input projection (a gather of the
columns of W_x at the active inputs; bit for bit on up to two binary
ones), the LSTM backward step (its factors formed once per piece) and the
structural loss and its gradients.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

CKPT_MAGIC = b"SINGCKPT"
CKPT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def aligned_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """float64 zeros in C order whose data starts on a 64-byte boundary.

    numpy aligns its data to 16 bytes, and a BLAS matrix-vector product over a
    matrix 16 or 48 bytes past a 64-byte boundary ran 40% slower (7.2 against
    5.2 us for a 512 x 128 matrix, one thread) with the same bits. The
    parameters and `model.unroll`'s input history live here, so a step's speed
    does not depend on where the heap put them."""
    size = math.prod(shape)
    buffer = np.zeros(size + 7)
    start = -buffer.ctypes.data % 64 // 8
    return buffer[start : start + size].reshape(shape)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow: exp is only taken of -|x| <= 0.
    Per element 1 / (1 + e) for x >= 0, e / (1 + e) below, as one
    max(e, x >= 0) since e <= 1; written to out if given."""
    e = np.exp(-np.abs(x))
    return np.divide(np.maximum(e, x >= 0.0), np.add(e, 1.0), out=out)


# ---------------------------------------------------------------------------
# dense affine map


def dense_backward(
    W: np.ndarray, X: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dW, db, dX) of the rows y_i = W x_i + b given the rows dL/dy_i.

    X and upstream stack one row per input; dW and db sum over the rows.
    """
    return upstream.T @ X, upstream.sum(axis=0), upstream @ W


# ---------------------------------------------------------------------------
# LSTM cell; gate rows are stacked [input, forget, candidate, output]


def _gate_blocks(a: np.ndarray, hidden: int) -> tuple[np.ndarray, ...]:
    """Views of the four hidden-size blocks of a stacked gate vector."""
    return a[:hidden], a[hidden : 2 * hidden], a[2 * hidden : 3 * hidden], a[3 * hidden :]


def lstm_cell_forward(
    W_x: np.ndarray,
    W_h: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step into out = (h, c, gates), which it returns; gates are the
    stacked activations [i, f, g, o]: sigmoid of the input, forget and output
    blocks, tanh of g. out must not overlap the inputs. W_x @ x reads only
    the columns of W_x at the nonzero entries of x, contiguous if W_x is
    column-major (as `model.unroll` passes it)."""
    hidden = h_prev.shape[0]
    h, c, gates = out
    active = x.nonzero()[0]
    pre = W_x[:, active] @ x[active]
    pre += W_h @ h_prev
    pre += b
    sigmoid(pre, out=gates)  # one call for all four blocks; the candidate block is replaced
    i, f, g, o = _gate_blocks(gates, hidden)
    np.tanh(pre[2 * hidden : 3 * hidden], out=g)
    np.multiply(f, c_prev, out=c)
    c += i * g
    np.multiply(o, np.tanh(c), out=h)
    return h, c, gates


def lstm_backward_factors(H: np.ndarray, C: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The factors of the gate derivatives of T steps, formed for all steps at once.

    H and C are the (T + 1, hidden) hidden and cell states, row 0 the
    initial ones, and G the (T, 4 * hidden) gate activations, as
    lstm_cell_forward wrote them (so H[t] = o tanh(C[t])). K[:, t - 1] of
    the (6, T, hidden) result belongs to step t and holds o(1 - tanh(c)^2),
    g i(1 - i), c_prev f(1 - f), i(1 - g^2), tanh(c) o(1 - o) and f, which
    lstm_cell_backward reads.
    """
    hidden = C.shape[1]
    i, f, g, o = (G[:, k * hidden : (k + 1) * hidden] for k in range(4))
    h = H[1:]
    K = np.empty((6, G.shape[0], hidden))
    K[0] = o - h * np.tanh(C[1:])  # o - (o tanh(c)) tanh(c)
    K[1] = (1.0 - i) * i * g
    K[2] = (1.0 - f) * f * C[:-1]
    K[3] = (1.0 - g * g) * i
    K[4] = h * (1.0 - o)  # (o tanh(c))(1 - o)
    K[5] = f
    return K


def lstm_cell_backward(
    step: tuple, dh: np.ndarray, dc: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dh_prev, dc_prev, dpre) for step = (W_x, W_h, k).

    k is the step's column K[:, t - 1] of lstm_backward_factors; W_x is not
    read. dpre, written into out, is the gradient of the stacked gate
    pre-activations; the step's weight gradients are outer(dpre, x),
    outer(dpre, h_prev) and dpre, which a caller sums over many steps as
    one matrix product.
    """
    _, W_h, k = step
    dct = dh * k[0]
    dct += dc
    blocks = out.reshape(4, -1)
    np.multiply(k[1:4], dct, out=blocks[:3])  # the input, forget and candidate blocks
    np.multiply(dh, k[4], out=blocks[3])
    return out @ W_h, dct * k[5], out


# ---------------------------------------------------------------------------
# sparsemax: Euclidean projection onto the probability simplex


def sparsemax_threshold(q: np.ndarray) -> np.ndarray:
    """The tau of sparsemax(q) = max(q - tau, 0), (..., 1): one per row of a 2-D q.
    -inf entries get zero weight, so a row can be masked to a prefix; every
    row needs one finite entry."""
    q = np.asarray(q, dtype=np.float64)
    size = q.shape[-1]
    if size == 0:
        raise ValueError("sparsemax needs at least one entry")
    sorted_desc = np.sort(q, axis=-1)[..., ::-1]
    cumulative = np.cumsum(sorted_desc, axis=-1)
    ks = np.arange(1, size + 1)
    feasible = 1.0 + ks * sorted_desc > cumulative
    if not feasible.any(axis=-1).all():  # non-finite input, or sums that swamp the 1
        if np.isnan(q).any() or np.isposinf(q).any() or not np.isfinite(q).any(axis=-1).all():
            raise ValueError("sparsemax input must be finite")
        raise ValueError("sparsemax input spans too wide a range for float64's feasibility test")
    k = size - np.argmax(feasible[..., ::-1], axis=-1, keepdims=True)  # last feasible size
    return (np.take_along_axis(cumulative, k - 1, axis=-1) - 1.0) / k


def sparsemax(q: np.ndarray, tau: np.ndarray | None = None) -> np.ndarray:
    """Project q (row by row if 2-D) onto {p : p >= 0, sum p = 1}: max(q - tau, 0),
    tau = sparsemax_threshold(q) unless the caller holds it (model.Template)."""
    q = np.asarray(q, dtype=np.float64)
    if tau is None:
        tau = sparsemax_threshold(q)
    return np.maximum(q - tau, 0.0)


# ---------------------------------------------------------------------------
# multi-label binary cross-entropy from logits


def bce_with_logits(x: np.ndarray, y: np.ndarray, probs: np.ndarray) -> tuple[float, np.ndarray]:
    """Stable BCE summed over entries; returns (loss, dloss/dx).

    probs is sigmoid(x), which the caller already holds; the gradient is
    probs - y.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    loss = float(np.sum(np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))))
    return loss, probs - y


# ---------------------------------------------------------------------------
# parameters and Adam


class ParamSet:
    """Named tensors with gradient accumulators and Adam moments."""

    def __init__(self):
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0

    def add(self, name: str, value: np.ndarray) -> np.ndarray:
        if name in self.values:
            raise ValueError(f"duplicate parameter {name!r}")
        stored = aligned_zeros(np.shape(value))
        stored[...] = value
        self.values[name] = stored
        self.grads[name] = np.zeros_like(stored)
        self.m[name] = np.zeros_like(stored)
        self.v[name] = np.zeros_like(stored)
        return stored

    def __getitem__(self, name: str) -> np.ndarray:
        return self.values[name]

    def names(self) -> list[str]:
        return list(self.values)

    def accumulate(self, name: str, grad: np.ndarray, columns=None) -> None:
        """Add grad to the gradient of name; with columns (a slice or index
        array of its last axis), grad holds only those columns."""
        index = ... if columns is None else (..., columns)
        shape = self.values[name][index].shape
        if grad.shape != shape:
            raise ValueError(f"gradient shape {grad.shape} != {shape}")
        self.grads[name][index] += grad

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0


def init_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def adam_step(params: ParamSet, lr: float) -> None:
    """One bias-corrected Adam update over every parameter; clears gradients."""
    params.step += 1
    t = params.step
    for name, value in params.values.items():
        g, m, v = params.grads[name], params.m[name], params.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        value -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    params.zero_grads()


# ---------------------------------------------------------------------------
# checkpoint container

_ADAM_M = "adam/m/"
_ADAM_V = "adam/v/"
_ADAM_STEP = "adam/step"


def _tensor_head(name: str, array: np.ndarray) -> bytes:
    encoded = name.encode("utf-8")
    if array.ndim == 1:
        rows, cols = array.shape[0], 0
    elif array.ndim == 2:
        rows, cols = array.shape
    else:
        raise ValueError(f"tensor {name!r} has rank {array.ndim}, expected 1 or 2")
    return struct.pack("<I", len(encoded)) + encoded + struct.pack("<II", rows, cols)


def _entries(params: ParamSet) -> list[tuple[str, np.ndarray]]:
    """The SINGCKPT layout: each parameter in name order, followed by its two
    Adam moments, then adam/step."""
    entries = []
    for name in sorted(params.values):
        entries += [(name, params.values[name]), (_ADAM_M + name, params.m[name]),
                    (_ADAM_V + name, params.v[name])]
    return entries + [(_ADAM_STEP, np.array([float(params.step)]))]


def _checkpoint_parts(params: ParamSet) -> list[bytes | np.ndarray]:
    """The file in order: the header, then each tensor's head and its
    little-endian float64 values, a view of the tensor wherever it is one."""
    entries = _entries(params)
    parts = [CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, len(entries))]
    for name, array in entries:
        parts += [_tensor_head(name, array), np.ascontiguousarray(array, dtype="<f8")]
    return parts


def checkpoint_to_bytes(params: ParamSet) -> bytes:
    return b"".join(_checkpoint_parts(params))


def checkpoint_from_bytes(data: bytes, into: ParamSet) -> None:
    """Read a checkpoint of into's layout into its values, moments and step.

    The file's tensors must be _entries(into), name for name and shape for
    shape; the first that differs is named. adam/step must be a whole
    number >= 0. into is written only once the whole file has passed.
    """
    if data[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise ValueError("not a checkpoint (bad magic)")
    expected = _entries(into)
    pos = len(CKPT_MAGIC)
    try:
        version, count = struct.unpack_from("<II", data, pos)
        pos += 8
        if version != CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        tensors: list[np.ndarray] = []
        for want, target in expected[:count]:
            (name_len,) = struct.unpack_from("<I", data, pos)
            pos += 4
            name = data[pos : pos + name_len].decode("utf-8")
            pos += name_len
            rows, cols = struct.unpack_from("<II", data, pos)
            pos += 8
            shape = (rows,) if cols == 0 else (rows, cols)
            if (name, shape) != (want, target.shape):
                raise ValueError(f"checkpoint tensor {name!r} {shape} "
                                 f"where {want!r} {target.shape} belongs")
            if pos + target.size * 8 > len(data):
                raise ValueError(f"checkpoint truncated at byte {len(data)}, "
                                 f"inside tensor {name!r}")
            values = np.frombuffer(data, dtype="<f8", count=target.size, offset=pos)
            pos += target.size * 8
            if not np.isfinite(values).all():
                raise ValueError(f"checkpoint tensor {name!r} holds non-finite values")
            tensors.append(values.reshape(shape))
    except struct.error:
        raise ValueError(f"checkpoint truncated at byte {pos}") from None
    if count < len(expected):
        want, target = expected[count]
        raise ValueError(f"checkpoint ends where {want!r} {target.shape} belongs")
    if pos != len(data) or count > len(expected):
        raise ValueError("trailing bytes after last tensor")
    step = tensors[-1][0]
    if not (step >= 0 and step == int(step)):
        raise ValueError(f"checkpoint tensor {_ADAM_STEP!r} is {tensors[-1].tolist()}, "
                         "not one whole number >= 0")
    for (_, target), values in zip(expected, tensors):
        target[...] = values
    into.step = int(step)


def write_atomic(path: str | Path, *parts: bytes | np.ndarray) -> None:
    """Write the bytes-like parts, in order, to a temporary name beside path,
    then rename it over path: a failed write leaves the earlier file whole and
    no temporary behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("wb") as handle:
            for part in parts:
                handle.write(part)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(params: ParamSet, path: str | Path) -> None:
    write_atomic(path, *_checkpoint_parts(params))


def load_checkpoint(path: str | Path, into: ParamSet) -> None:
    checkpoint_from_bytes(Path(path).read_bytes(), into)
