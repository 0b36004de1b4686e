"""The generation model: LSTM backbone plus SSM-driven attention.

At step t the attention weights are the sparsemax projection of the first
t entries of row t of a user-supplied self-similarity matrix; a `Template`
keeps their thresholds and `unroll` clips a block of rows at a time. The
attention vector is the weighted sum of the previous input samples. A linear
combiner merges it with the LSTM output into 128 logits. The ablated baseline
is the same LSTM with the attention path removed and a plain dense head.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from sing import config as cfgio
from sing import nn
from sing.midi_io import N_PITCHES, PianoRoll
from sing.structure import SelfSimilarityMatrix

COMBINER_MODES = ("dense", "per_pitch")


@dataclass
class ModelConfig:
    hidden_size: int = 128
    combiner_mode: str = "dense"  # one of COMBINER_MODES
    seed_len: int = 10
    top_k: int = 50
    max_notes: int = 3
    pitch_lo: int = 20
    pitch_hi: int = 107
    attention_enabled: bool = True

    def __post_init__(self):
        if not 0 <= self.pitch_lo <= self.pitch_hi <= 127:
            raise ValueError(f"pitch range [{self.pitch_lo}, {self.pitch_hi}] invalid")
        if not 1 <= self.max_notes <= self.top_k:
            raise ValueError("need 1 <= max_notes <= top_k")
        if self.combiner_mode not in COMBINER_MODES:
            raise ValueError(f"unknown combiner mode {self.combiner_mode!r}")
        if self.combiner_mode == "per_pitch" and self.hidden_size != N_PITCHES:
            raise ValueError("per_pitch combiner requires hidden_size == 128")
        if self.seed_len < 1:
            raise ValueError("seed_len must be >= 1")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")

    def to_text(self) -> str:
        return cfgio.format_kv(asdict(self))

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        """Parse a saved config; keys that are not fields are ignored."""
        kv = cfgio.parse_kv(text)
        return cls(
            **{f.name: cfgio.cast_like(f.default, kv[f.name]) for f in fields(cls) if f.name in kv}
        )


class Model:
    """Parameter container; the functions below do the actual math."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        hidden = cfg.hidden_size
        p = nn.ParamSet()
        p.add("lstm.W_x", nn.init_uniform(rng, (4 * hidden, N_PITCHES), N_PITCHES))
        p.add("lstm.W_h", nn.init_uniform(rng, (4 * hidden, hidden), hidden))
        bias = np.zeros(4 * hidden)
        bias[hidden : 2 * hidden] = 1.0  # forget gate starts open
        p.add("lstm.b", bias)
        if cfg.attention_enabled:
            if cfg.combiner_mode == "dense":
                p.add(
                    "combine.W",
                    nn.init_uniform(rng, (N_PITCHES, N_PITCHES + hidden), N_PITCHES + hidden),
                )
                p.add("combine.b", np.zeros(N_PITCHES))
            else:
                p.add("combine.w_a", nn.init_uniform(rng, (1,), 2))
                p.add("combine.w_z", nn.init_uniform(rng, (1,), 2))
                p.add("combine.b", np.zeros(1))
        else:
            p.add("head.W", nn.init_uniform(rng, (N_PITCHES, hidden), hidden))
            p.add("head.b", np.zeros(N_PITCHES))
        self.params = p


ATTENTION_BLOCK_ROWS = 64  # rows per sparsemax call: temporaries stay at 64 x n


class Template:
    """A template SSM S compiled for attention: step t's weights are max(S[t, :t] - tau[t], 0),
    each sparsemax threshold tau[t] sorted out once, when an attention pass first reads tau."""

    def __init__(self, S: SelfSimilarityMatrix):
        self.S, self.n = S, S.n

    @cached_property
    def tau(self) -> np.ndarray:
        """(n, 1), tau[0] nan; one threshold call per 64 rows masked to their prefixes."""
        n, values = self.n, self.S.values
        tau = np.full((n, 1), np.nan)
        for start in range(1, n, ATTENTION_BLOCK_ROWS):
            stop = min(start + ATTENTION_BLOCK_ROWS, n)
            prefix = np.arange(stop - 1) < np.arange(start, stop)[:, None]
            tau[start:stop] = nn.sparsemax_threshold(
                np.where(prefix, values[start:stop, : stop - 1], -np.inf))
        return tau

    def weights(self, start: int, stop: int) -> np.ndarray:
        """(stop - start, stop - 1): row i holds sparsemax(S[t, :t]), t = start + i, then zeros.
        The entries at and right of the diagonal, all in the last columns, are set to -inf."""
        q = self.S.values[start:stop, : stop - 1].copy()
        q[:, start:][np.arange(stop - 1 - start) >= np.arange(stop - start)[:, None]] = -np.inf
        return nn.sparsemax(q, self.tau[start:stop])


def attention_step(w: np.ndarray, history: np.ndarray, before: np.ndarray) -> np.ndarray:
    """Step t's attention vector: before, its block's sum over samples 0..t0-1,
    plus weights w times history, samples t0..t-1."""
    return before + w @ history


def combine_forward(params: nn.ParamSet, mode: str, a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Merge attention vector and LSTM output into 128 logits."""
    if mode == "dense":
        return params["combine.W"] @ np.concatenate([a, z]) + params["combine.b"]
    w_a = params["combine.w_a"][0]
    w_z = params["combine.w_z"][0]
    return w_a * a + w_z * z + params["combine.b"][0]


def combine_backward(
    params: nn.ParamSet, mode: str, A: np.ndarray, Z: np.ndarray, upstream: np.ndarray
) -> np.ndarray:
    """Backprop stacked steps: rows of A, Z and upstream belong to one step.

    Accumulates the combiner gradients summed over the rows; returns dZ.
    The attention vectors take no gradient, so none is formed for A.
    """
    if mode == "dense":
        n_a = A.shape[1]
        dW_z, db, dZ = nn.dense_backward(params["combine.W"][:, n_a:], Z, upstream)
        params.accumulate("combine.W", upstream.T @ A, columns=slice(None, n_a))
        params.accumulate("combine.W", dW_z, columns=slice(n_a, None))
        params.accumulate("combine.b", db)
        return dZ
    params.accumulate("combine.w_a", np.array([float(np.sum(upstream * A))]))
    params.accumulate("combine.w_z", np.array([float(np.sum(upstream * Z))]))
    params.accumulate("combine.b", np.array([float(upstream.sum())]))
    return params["combine.w_z"][0] * upstream


def forward_step(
    model: Model, w: np.ndarray | None, history: np.ndarray | None, before: np.ndarray | None,
    h: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The logits of sample t from the LSTM output h of step t.

    w, history and before are attention_step's; the ablated model reads none.
    Returns (d, a). With attention enabled the logits combine the attention
    vector a with h; otherwise the dense head maps h alone and a is None.
    """
    p = model.params
    if model.cfg.attention_enabled:
        a = attention_step(w, history, before)
        return combine_forward(p, model.cfg.combiner_mode, a, h), a
    return p["head.W"] @ h + p["head.b"], None


def head_backward(
    model: Model, A: np.ndarray | None, Z: np.ndarray, dD: np.ndarray
) -> np.ndarray:
    """Backprop stacked logit rows dD to the LSTM outputs Z; accumulates param grads.

    A holds the matching attention rows (None for the ablated model).
    """
    p = model.params
    if model.cfg.attention_enabled:
        return combine_backward(p, model.cfg.combiner_mode, A, Z, dD)
    dW, db, dZ = nn.dense_backward(p["head.W"], Z, dD)
    p.accumulate("head.W", dW)
    p.accumulate("head.b", db)
    return dZ


def sample_notes(d: np.ndarray, cfg: ModelConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw up to max_notes pitches from the top-k of sigmoid(d).

    Pitches outside [pitch_lo, pitch_hi] are masked out. The k highest
    probabilities (ties to the lower pitch) are renormalized into a
    categorical; max_notes draws with replacement give 1..max_notes distinct
    active pitches. Each draw searches a uniform variate in the cumulative
    weights, as rng.choice(top, p=weights) does: same pitches, same RNG state.
    """
    probs = nn.sigmoid(np.asarray(d, dtype=np.float64)[cfg.pitch_lo : cfg.pitch_hi + 1])
    top = (-probs).argsort(kind="stable")[: cfg.top_k]  # stable: ties to the lower pitch
    mass = probs[top]
    total = mass.sum()
    if total > 0.0:
        weights = mass / total
    elif total == 0.0:  # degenerate logits: uniform over the allowed range
        top = np.arange(len(probs))
        weights = np.full(len(top), 1.0 / len(top))
    else:  # checked before drawing, as rng.choice does
        raise ValueError("sampler probabilities contain NaN")
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    draws = top[cdf.searchsorted(rng.random(cfg.max_notes), side="right")]
    sample = np.zeros(N_PITCHES, dtype=np.uint8)
    sample[draws + cfg.pitch_lo] = 1
    return sample


@dataclass
class PieceTrace:
    """Forward pass record for one piece, one row per LSTM step.

    Step t (1 <= t < n) reads input X[t - 1] and state (H[t - 1], C[t - 1])
    and yields H[t], C[t] and its gate activations G[t - 1]; the generated
    steps t = seed_len .. n-1 also yield the logits D[t - seed_len] and,
    with attention, the attention vector A[t - seed_len]. A pass that no
    backward pass follows keeps X and D alone: H, C, G and A are None.
    """

    n: int
    seed_len: int
    X: np.ndarray  # (n - 1, 128) LSTM inputs
    H: np.ndarray | None  # (n, hidden) hidden states; H[0] is the initial state
    C: np.ndarray | None  # (n, hidden) cell states; C[0] is the initial state
    G: np.ndarray | None  # (n - 1, 4 * hidden) gate activations, as nn.lstm_cell_forward writes them
    A: np.ndarray | None  # (n - seed_len, 128) attention vectors; None when ablated
    D: np.ndarray  # (n - seed_len, 128) logits


def unroll(
    model: Model,
    seed: np.ndarray,
    template: Template,
    next_input: Callable[[int, np.ndarray], np.ndarray],
    with_grad: bool = True,
) -> PieceTrace:
    """Run LSTM steps 1..n-1 of an n-sample piece from its (seed_len, 128) seed.

    n is the template's length. Step t feeds X[t - 1] to the LSTM; from
    t = seed_len on, forward_step turns its output into logits d and, for
    t <= n - 2, X[t] = next_input(t, d). At the first step t0 of each block
    of ATTENTION_BLOCK_ROWS steps, the block's weights times X[:t0] is one product.

    with_grad says a backward pass will read the trace: the states, gates
    and attention vectors of every step are kept. Otherwise the state lives
    in a two-row ring (a step's output must not overlap its inputs), the
    gates in one row, and the trace holds X and D alone.
    """
    cfg = model.cfg
    p = model.params
    n, seed_len, hidden = template.n, cfg.seed_len, cfg.hidden_size
    if n <= seed_len:
        raise ValueError(f"piece length {n} must exceed seed length {seed_len}")
    if np.shape(seed) != (seed_len, N_PITCHES):
        raise ValueError(f"seed must be ({seed_len}, 128), got {np.shape(seed)}")
    X = nn.aligned_zeros((n - 1, N_PITCHES))
    X[:seed_len] = seed
    rows = n if with_grad else 2  # step t writes state row t % rows, gate row (t - 1) % (rows - 1)
    H = np.zeros((rows, hidden))
    C = np.zeros((rows, hidden))
    G = np.zeros((rows - 1, 4 * hidden))
    D = np.zeros((n - seed_len, N_PITCHES))
    attend = cfg.attention_enabled
    A = np.zeros_like(D) if attend and with_grad else None
    W_x = np.asfortranarray(p["lstm.W_x"])  # column-major: a step gathers its active columns
    if not np.isfinite(W_x).all():  # a skipped column would hide it
        raise ValueError("parameter 'lstm.W_x' holds non-finite values")
    W_h, b = p["lstm.W_h"], p["lstm.b"]
    w = history = before = None
    for t in range(1, n):
        now, prev = t % rows, (t - 1) % rows
        nn.lstm_cell_forward(W_x, W_h, b, X[t - 1], H[prev], C[prev],
                             out=(H[now], C[now], G[(t - 1) % (rows - 1)]))
        if t < seed_len:  # warm-up: no prediction yet
            continue
        row = t - seed_len
        if attend:
            offset = row % ATTENTION_BLOCK_ROWS
            if offset == 0:
                t0, block = t, template.weights(t, min(t + ATTENTION_BLOCK_ROWS, n))
                past = block[:, :t0] @ X[:t0]
            w, history, before = block[offset, t0:t], X[t0:t], past[offset]
        d, a = forward_step(model, w, history, before, H[now])
        D[row] = d
        if A is not None:
            A[row] = a
        if t <= n - 2:
            X[t] = next_input(t, d)
    if not with_grad:
        H = C = G = None
    return PieceTrace(n=n, seed_len=seed_len, X=X, H=H, C=C, G=G, A=A, D=D)


def generate(
    model: Model,
    seed: np.ndarray,
    template: Template,
    rng: np.random.Generator,
    tempo: float = 120.0,
) -> PianoRoll:
    """Continue a seed out to the template's length.

    seed is (seed_len, 128) binary, sample-major. The output roll copies the
    seed and appends one sampled step at a time until it spans n samples.
    No backward pass follows, so the trace keeps no state.
    """
    cfg = model.cfg
    trace = unroll(model, seed, template, lambda t, d: sample_notes(d, cfg, rng), with_grad=False)
    out = np.vstack([trace.X, sample_notes(trace.D[-1], cfg, rng)])
    return PianoRoll(data=out.T.astype(np.uint8, order="C"), tempo=tempo)


def save_model(model: Model, checkpoint_path: str | Path) -> None:
    nn.save_checkpoint(model.params, checkpoint_path)


def load_model(checkpoint_path: str | Path, cfg: ModelConfig) -> Model:
    """Model(cfg) with every tensor, Adam moment and the step read from a
    checkpoint, which must hold exactly the tensors that model has."""
    model = Model(cfg, rng=np.random.default_rng(0))
    nn.load_checkpoint(checkpoint_path, model.params)
    return model
