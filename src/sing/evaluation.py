"""Structural evaluation: generate against test templates, score SSM match.

For each processed test piece, a generator produces three pieces seeded
with the original's first samples and steered by its SSM; each output's
SSM is compared to the template with standardized MSE, and the mean over
all generations is the headline number. Lower is better; statistically
unrelated output scores about 2.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field

import numpy as np

from sing.midi_io import N_PITCHES, PianoRoll
from sing.model import Model, ModelConfig, generate
from sing.structure import chroma, ssm, standardized_mse

log = logging.getLogger(__name__)

GENERATORS = ("sing", "ablated", "random")
GENERATIONS_PER_PIECE = 3


@dataclass
class EvalRun:
    generator: str
    piece_ids: list[str] = field(default_factory=list)
    mses: list[list[float]] = field(default_factory=list)  # per piece, per generation
    skipped: list[str] = field(default_factory=list)

    @property
    def mean(self) -> float:
        flat = [v for per_piece in self.mses for v in per_piece]
        return float(np.mean(flat)) if flat else float("nan")


def random_baseline(n: int, cfg: ModelConfig, rng: np.random.Generator) -> PianoRoll:
    """Uniform noise matching the sampler's constraints: max_notes distinct
    pitches per sample (every allowed one when the range is narrower),
    drawn from the allowed range."""
    if n < 1:
        raise ValueError("need at least one sample")
    allowed = np.arange(cfg.pitch_lo, cfg.pitch_hi + 1)
    data = np.zeros((N_PITCHES, n), dtype=np.uint8)
    for s in range(n):
        picks = rng.choice(allowed, size=min(cfg.max_notes, allowed.size), replace=False)
        data[picks, s] = 1
    return PianoRoll(data=data, tempo=120.0)


def evaluate(
    items: list[PianoRoll],
    cfg: ModelConfig,
    rng: np.random.Generator,
    model: Model | None = None,
    generations: int = GENERATIONS_PER_PIECE,
) -> EvalRun:
    """Score the model (sing or ablated, by cfg.attention_enabled), or the
    random baseline when there is none, over a processed test corpus."""
    if model is not None and model.cfg != cfg:
        raise ValueError(f"model config {model.cfg} differs from {cfg}")
    if generations < 1:
        raise ValueError(f"generations must be >= 1, got {generations}")
    label = "sing" if cfg.attention_enabled else "ablated"
    run = EvalRun(generator="random" if model is None else label)
    for item in items:
        n = item.n_samples
        if n <= cfg.seed_len:
            run.skipped.append(item.source_id)
            log.warning("skipping %s: only %d samples", item.source_id, n)
            continue
        seed = item.data.T[: cfg.seed_len]
        template = ssm(chroma(item))
        scores = []
        try:
            for _ in range(generations):
                if model is None:
                    roll = random_baseline(n, cfg, rng)
                else:
                    roll = generate(model, seed, template, rng, tempo=item.tempo)
                scores.append(standardized_mse(template, ssm(chroma(roll), role="generated")))
        except ValueError as exc:
            raise ValueError(f"piece {item.source_id}: {exc}") from exc
        run.piece_ids.append(item.source_id)
        run.mses.append(scores)
    if not run.piece_ids:
        raise ValueError(f"no piece has more than seed length {cfg.seed_len} samples")
    return run


def eval_run_to_csv(run: EvalRun) -> str:
    """One row per generation, then the mean; a piece id holding a comma or
    quote is quoted, so it reads back as one field."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["piece_id", "generation_index", "std_mse"])
    for piece_id, scores in zip(run.piece_ids, run.mses):
        writer.writerows([piece_id, gen_idx, repr(value)] for gen_idx, value in enumerate(scores))
    writer.writerow(["mean", run.generator, repr(run.mean)])
    if run.skipped:
        writer.writerow(["skipped", run.generator, len(run.skipped)])
    return out.getvalue()
