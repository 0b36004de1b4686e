"""Training loop: scheduled sampling, combined loss, Adam, model selection.

The per-piece loss sums binary cross-entropy over the generated steps and
adds the mean squared error between the template SSM and the SSM of the
continuous per-step note probabilities (seed steps contribute their target
chroma). Sampled fed-back inputs are constants: no gradient flows through
the sampling step.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sing import nn
from sing.batching import (
    BATCH_CAP,
    GRID_COUNT,
    GRID_K,
    GRID_MAX_LEN,
    MAX_EDIT_FRACTION,
    Assignment,
    BatchPlan,
    assign,
    build_grid,
    make_batches,
    segment_lengths,
)
from sing.midi_io import N_PITCHES, PianoRoll
from sing.model import (
    Model,
    ModelConfig,
    PieceTrace,
    Template,
    forward_step,  # unused here; perfbench/spans.py wraps sing.training.forward_step
    head_backward,
    sample_notes,
    unroll,
)
from sing.structure import N_CHROMA, SelfSimilarityMatrix, chroma, fold_pitch_classes, ssm, unit_columns

log = logging.getLogger(__name__)

PITCH_CLASSES = np.arange(N_PITCHES) % N_CHROMA


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    p_feedback: float = 0.8
    lr: float = 0.001
    epochs: int = 30

    def __post_init__(self):
        if not 0.0 <= self.p_feedback <= 1.0:
            raise ValueError("p_feedback must be in [0, 1]")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class EpochReport:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float


@dataclass
class PieceLoss:
    total: float
    bce: float
    structural: float


def scheduled_step(
    d: np.ndarray,
    target_sample: np.ndarray,
    cfg: ModelConfig,
    rng: np.random.Generator,
    p_feedback: float,
) -> np.ndarray:
    """Pick the next input: the model's own sample (probability p) or truth."""
    if rng.random() < p_feedback:
        return sample_notes(d, cfg, rng)
    return target_sample


def forward_piece(
    model: Model,
    target: PianoRoll,
    S: SelfSimilarityMatrix,
    p_feedback: float,
    rng: np.random.Generator,
    with_grad: bool = True,
) -> PieceTrace:
    """Run the scheduled-sampling forward pass over a whole piece; with_grad
    keeps the states a backward pass (piece_loss with_grad) reads."""
    cfg = model.cfg
    if S.n != target.n_samples:
        raise ValueError(f"SSM size {S.n} != piece length {target.n_samples}")
    target_samples = target.data.T.astype(np.float64)  # (n, 128)
    return unroll(
        model, target_samples[: cfg.seed_len], Template(S),  # thresholds once per pass
        lambda t, d: scheduled_step(d, target_samples[t], cfg, rng, p_feedback),
        with_grad=with_grad,
    )


def piece_loss(
    model: Model,
    trace: PieceTrace,
    target: PianoRoll,
    S: SelfSimilarityMatrix,
    with_grad: bool = True,
) -> PieceLoss:
    """Combined loss; when with_grad, accumulates parameter gradients.

    BCE is summed over generated steps against the target samples. The
    structural term compares the template against the SSM of the continuous
    probability columns V (target chroma for seed steps): mean((V.T V - S)^2)
    is (|V V.T|^2 - 2 <V, V S> + |S|^2) / n^2 for a symmetric S (every SSM
    is), and its gradient in V is 4 (V V.T V - V S) / n^2, so no n x n
    matrix is formed beside S.
    """
    n, seed_len = trace.n, trace.seed_len
    if target.n_samples != n or S.n != n:
        raise ValueError("trace, target, and SSM lengths disagree")
    if with_grad and trace.H is None:
        raise ValueError("trace holds no states to backprop through; "
                         "run the forward pass with with_grad=True")
    target_samples = target.data.T.astype(np.float64)
    P = nn.sigmoid(trace.D)
    bce_total, dD = nn.bce_with_logits(trace.D, target_samples[seed_len:], P)

    # Structural term on chroma of [target seed | predicted probabilities].
    cols = np.concatenate([target_samples[:seed_len].T, P.T], axis=1)
    V, norms = unit_columns(fold_pitch_classes(cols))
    VS = V @ S.values
    VVt = V @ V.T
    squares = (float(np.vdot(VVt, VVt)) - 2.0 * float(np.vdot(V, VS))
               + float(np.vdot(S.values, S.values)))
    structural = max(squares, 0.0) / (n * n)  # a sum of squares; rounding stays above 0
    total = bce_total + structural

    if with_grad:
        # normalization backward, generated columns only (seed is constant)
        vg = V[:, seed_len:]
        dvg = (VVt @ vg - VS[:, seed_len:]) * (4.0 / (n * n))
        nz_gen = norms[seed_len:] > 0.0
        du = (dvg - vg * np.sum(vg * dvg, axis=0)) / np.where(nz_gen, norms[seed_len:], 1.0)
        du[:, ~nz_gen] = 0.0
        dD += du[PITCH_CLASSES, :].T * P * (1.0 - P)  # unfold pitch classes to 128
        _backward_through_time(model, trace, dD)
    return PieceLoss(total=total, bce=bce_total, structural=structural)


def _backward_through_time(model: Model, trace: PieceTrace, dD: np.ndarray) -> None:
    """Backprop the logit gradients dD through the head and the LSTM steps.

    The gate-derivative factors of every step are formed at once; the
    recurrence then runs step by step, and each weight gradient is one
    matrix product over the stacked steps (for W_x, over the inputs'
    active columns alone).
    """
    p = model.params
    n, seed_len = trace.n, trace.seed_len
    dZ = head_backward(model, trace.A, trace.H[seed_len:], dD)
    W_x, W_h = p["lstm.W_x"], p["lstm.W_h"]
    K = nn.lstm_backward_factors(trace.H, trace.C, trace.G)
    dpre = np.empty_like(trace.G)  # row t-1: step t's gate pre-activations
    dh = np.zeros(model.cfg.hidden_size)
    dc = np.zeros(model.cfg.hidden_size)
    for t in range(n - 1, 0, -1):
        if t >= seed_len:
            dh += dZ[t - seed_len]
        dh, dc, _ = nn.lstm_cell_backward((W_x, W_h, K[:, t - 1]), dh, dc, out=dpre[t - 1])
    # (inputs.T @ dpre).T ran faster than dpre.T @ inputs: 1.7 against 2.7 ms for W_h at n = 700
    active = np.flatnonzero(trace.X.any(axis=0))
    p.accumulate("lstm.W_x", (trace.X[:, active].T @ dpre).T, columns=active)
    p.accumulate("lstm.W_h", (trace.H[:-1].T @ dpre).T)
    p.accumulate("lstm.b", dpre.sum(axis=0))


def _finite_loss(
    model: Model,
    item: PianoRoll,
    tcfg: TrainConfig,
    rng: np.random.Generator,
    epoch: int,
    with_grad: bool,
) -> float:
    """One piece's total loss; a failed forward pass or a non-finite loss
    raises TrainingError naming the piece and the epoch."""
    try:
        template = ssm(chroma(item))
        trace = forward_piece(model, item, template, tcfg.p_feedback, rng, with_grad=with_grad)
        loss = piece_loss(model, trace, item, template, with_grad=with_grad)
    except ValueError as exc:
        raise TrainingError(
            f"non-finite forward pass on piece {item.source_id} (epoch {epoch}): {exc}"
        ) from exc
    if not math.isfinite(loss.total):
        raise TrainingError(f"non-finite loss on piece {item.source_id} (epoch {epoch})")
    return loss.total


def train_epoch(
    model: Model,
    plan: BatchPlan,
    items: list[PianoRoll],
    tcfg: TrainConfig,
    rng: np.random.Generator,
    epoch: int = 0,
) -> EpochReport:
    """One pass over the plan: per batch, sum piece gradients, one Adam step."""
    if len(items) != len(plan.assignments):
        raise ValueError("items must align with plan assignments")
    started = time.perf_counter()
    losses: list[float] = []
    for batch in plan.batches:
        for idx in batch:
            losses.append(_finite_loss(model, items[idx], tcfg, rng, epoch, with_grad=True))
        nn.adam_step(model.params, tcfg.lr)
    elapsed = time.perf_counter() - started
    return EpochReport(
        epoch=epoch, train_loss=float(np.mean(losses)), val_loss=float("nan"), seconds=elapsed
    )


def validate(
    model: Model,
    items: list[PianoRoll],
    tcfg: TrainConfig,
    rng: np.random.Generator,
    epoch: int = 0,
) -> float:
    """Mean piece loss under the training regime (same p_feedback), no grads."""
    losses = [_finite_loss(model, item, tcfg, rng, epoch, with_grad=False) for item in items]
    return float(np.mean(losses))


def select_best(reports: list[EpochReport]) -> int:
    """Index of the report with the lowest validation loss (ties: earliest)."""
    return min(range(len(reports)), key=lambda i: reports[i].val_loss)


def train(
    model: Model,
    plan: BatchPlan,
    items: list[PianoRoll],
    val_items: list[PianoRoll],
    tcfg: TrainConfig,
    checkpoint_dir: str | Path,
    rng: np.random.Generator,
) -> tuple[list[EpochReport], Path]:
    """Full training run; writes per-epoch checkpoints, a CSV, and best.ckpt,
    refreshed after each epoch that beats every earlier one, so an
    interrupted run keeps the best epoch so far. Nothing is written until
    the plan, items and validation items pass."""
    seed_len = model.cfg.seed_len
    if not any(plan.batches):
        raise ValueError("plan batches no segment; nothing to train on")
    for item in (*items, *val_items):
        if item.n_samples <= seed_len:
            raise ValueError(f"piece {item.source_id} has {item.n_samples} samples, "
                             f"no more than seed length {seed_len}")
    if not val_items:
        raise ValueError(f"no validation piece has more than seed length {seed_len} samples")
    ckpt_dir = Path(checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    (ckpt_dir / "model_config.txt").write_text(model.cfg.to_text())
    csv_path = ckpt_dir / "report.csv"
    with open(csv_path, "w", newline="") as handle:
        csv.writer(handle).writerow(["epoch", "train_loss", "val_loss", "seconds"])
    reports: list[EpochReport] = []
    best_path = ckpt_dir / "best.ckpt"
    for epoch in range(tcfg.epochs):
        report = train_epoch(model, plan, items, tcfg, rng, epoch=epoch)
        report.val_loss = validate(model, val_items, tcfg, rng, epoch=epoch)
        reports.append(report)
        path = ckpt_dir / f"epoch_{epoch}.ckpt"
        nn.save_checkpoint(model.params, path)
        if select_best(reports) == epoch:  # beats every earlier epoch; ties keep the earliest
            nn.write_atomic(best_path, path.read_bytes())
        with open(csv_path, "a", newline="") as handle:
            csv.writer(handle).writerow(
                [report.epoch, repr(report.train_loss), repr(report.val_loss),
                 f"{report.seconds:.3f}"]
            )
        log.info(
            "epoch %d: train %.4f val %.4f (%.1fs)",
            epoch,
            report.train_loss,
            report.val_loss,
            report.seconds,
        )
    return reports, best_path


def prepare_corpus(
    rolls: list[PianoRoll],
    rng: np.random.Generator,
    k: int = GRID_K,
    count: int = GRID_COUNT,
    max_len: int = GRID_MAX_LEN,
    batch_cap: int = BATCH_CAP,
    max_edit_fraction: float = MAX_EDIT_FRACTION,
) -> tuple[BatchPlan, list[int], list[str]]:
    """Plan a corpus from its segment lengths: grid, assign, and batch.

    Cuts no roll; `items_from_plan` builds the edited items. Returns the
    plan, the grid, and the ids of the excluded segments.
    """
    segments = [
        (roll.source_id, seg_idx, length)
        for roll in rolls
        for seg_idx, length in enumerate(segment_lengths(roll.n_samples, max_len))
    ]
    grid = build_grid([length for _, _, length in segments], k=k, count=count, max_len=max_len)
    targets = [assign(length, grid, max_edit_fraction) for _, _, length in segments]
    assignments = [Assignment(*segment, target)
                   for segment, target in zip(segments, targets) if target is not None]
    excluded = [f"{piece_id}[{seg_idx}]"
                for (piece_id, seg_idx, _), target in zip(segments, targets) if target is None]
    return make_batches(assignments, batch_cap, rng), grid, excluded


def items_from_plan(plan: BatchPlan, rolls_by_id: dict[str, PianoRoll]) -> list[PianoRoll]:
    """The edited items of a plan, cut from its source rolls: the one way
    `train` and `evaluate` turn rolls into items. Item `piece[i]` (its
    `source_id`) is segment i of roll `piece`, padded with silent samples
    or truncated to its target length.

    Segment i of a piece is samples [i * s, (i + 1) * s) of its roll, where
    s is the segment length the plan records: the equal slicing
    `segment_lengths` gave when the plan was written.
    """
    items: list[PianoRoll] = []
    for assignment in plan.assignments:
        if assignment.piece_id not in rolls_by_id:
            raise ValueError(f"plan references unknown piece {assignment.piece_id!r}")
        roll = rolls_by_id[assignment.piece_id]
        n, s, i = roll.n_samples, assignment.source_length, assignment.segment_index
        # equal slicing into m segments makes them n // m samples long
        if (i + 1) * s > n or n // (n // s) != s:
            raise ValueError(
                f"plan segment {i} of {assignment.piece_id!r} ({s} samples) is not one "
                f"of the equal segments of its {n}-sample roll"
            )
        target = assignment.target_length
        # a view; PianoRoll copies it once unless it is all of the roll
        data = roll.data[:, i * s : i * s + min(s, target)]
        if target > s:
            data = np.concatenate([data, np.zeros((N_PITCHES, target - s), np.uint8)], axis=1)
        items.append(PianoRoll(data, roll.tempo, source_id=f"{assignment.piece_id}[{i}]"))
    return items
