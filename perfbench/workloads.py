"""The three benchmark workloads.

Each workload writes its inputs once per set-up, then runs rounds. A round
is a fixed list of timed steps, each one in-process ``sing.cli.main`` call
(or, on ``ingest``, the write-back through ``midi_io.to_midi``), followed
by untimed correctness checks. An operation is one piece trained, one
generation or one file ingested; a failed check fails its operations.
Rates use wall times corrected for host speed (see hostspeed.py); ``named``
keeps the raw wall-clock rates.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sing.cli
import sing.evaluation
import sing.midi_io
import sing.structure
import sing.training
from sing import batching
from sing.midi_io import load_proll, parse_midi, proll_from_bytes, proll_to_bytes, to_piano_roll
from sing.model import Model, ModelConfig, save_model
from sing.structure import chroma, ssm, ssm_from_bytes, ssm_to_bytes, standardized_mse

import hostspeed
import inputs
from spans import Tracer, patched

TRAIN_EPOCHS = 2
GENERATORS = ("sing", "ablated", "random")
GENERATIONS = 3
RANDOM_MSE_BAND = (1.8, 2.2)


@dataclass
class Round:
    """What one round measured: raw wall time of its timed steps, their
    host-speed factors, operation counts, corrected rates and raw rates."""

    wall_s: float = 0.0
    factors: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rates: dict[str, float] = field(default_factory=dict)
    named: dict[str, float] = field(default_factory=dict)
    op_ms: list[float] = field(default_factory=list)  # raw latencies
    op_factor: float = 1.0  # host-speed factor of the step the operations ran in
    readouts: dict[str, float] = field(default_factory=dict)


def cli(argv: list[str], tracer: Tracer | None) -> tuple[int, float, float]:
    """Run one sing command in-process; returns (exit code, wall seconds,
    host-speed factor)."""

    def call():
        request = tracer.request() if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()), request:
            return sing.cli.main(argv)

    return hostspeed.timed(call)


def traced(tracer: Tracer | None):
    return tracer.active() if tracer else contextlib.nullcontext()


def ssm_valid(values: np.ndarray) -> bool:
    return bool(
        np.isfinite(values).all()
        and (values >= 0.0).all()
        and (values <= 1.0).all()
        and np.array_equal(values, values.T)
    )


def plan_round_trips(path: Path) -> bool:
    text = path.read_text()
    return batching.plan_to_text(batching.plan_from_text(text)) == text


class Probe:
    """Timers that stay installed in untraced rounds: per-operation latency
    and the outputs the checks need. Each costs two clock reads per call of
    a function that takes milliseconds."""

    def __init__(self):
        self.op_ms: list[float] = []
        self.opened: float | None = None
        self.busy_s = 0.0
        self.captured: list = []

    def opener(self, fn):
        def wrapped(*args, **kwargs):
            self.opened = time.perf_counter()
            return fn(*args, **kwargs)

        return wrapped

    def closer(self, fn, when=lambda args, kwargs: True):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            if when(args, kwargs):
                self.op_ms.append(1e3 * (time.perf_counter() - self.opened))
            return result

        return wrapped

    def timer(self, fn, capture=False):
        def wrapped(*args, **kwargs):
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - started
            self.busy_s += elapsed
            self.op_ms.append(1e3 * elapsed)
            if capture:
                self.captured.append((args, result))
            return result

        return wrapped


# ---------------------------------------------------------------------------


class TrainWorkload:
    """`sing batch-plan` then `sing train` (attention model, hidden 128)."""

    op_name = "train_piece_ms"

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.corpus, self.val = work / "corpus", work / "val"
        self.plan, self.out = work / "plan.txt", work / "ckpt"
        self.first_ckpt: bytes | None = None

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        for directory in (self.corpus, self.val):
            shutil.rmtree(directory, ignore_errors=True)
        inputs.write_prolls(self.corpus, inputs.TRAIN_LENGTHS, rng)
        inputs.write_prolls(self.val, inputs.VAL_LENGTHS, rng)

    def round(self, tracer: Tracer | None) -> Round:
        seed = str(self.seed)
        pieces, validate = Probe(), Probe()
        pieces_with_grad = lambda args, kwargs: kwargs.get("with_grad", True)  # noqa: E731
        probes = [
            (sing.training, "forward_piece", pieces.opener(sing.training.forward_piece)),
            (sing.training, "piece_loss",
             pieces.closer(sing.training.piece_loss, pieces_with_grad)),
            (sing.training, "validate", validate.timer(sing.training.validate)),
        ]
        with patched(probes), traced(tracer):
            plan_code, plan_s, _ = cli(
                ["batch-plan", "--in", str(self.corpus), "--out", str(self.plan),
                 "--seed", seed, "--grid-k", "2", "--batch-cap", "2"],
                tracer,
            )
            train_code, train_s, factor = cli(
                ["train", "--in", str(self.corpus), "--plan", str(self.plan),
                 "--val", str(self.val), "--out", str(self.out), "--seed", seed,
                 "--epochs", str(TRAIN_EPOCHS)],
                tracer,
            )

        plan = batching.load_plan(self.plan) if plan_code == 0 else None
        n_items = len(plan.assignments) if plan else len(inputs.TRAIN_LENGTHS)
        samples = sum(a.target_length for a in plan.assignments) if plan else 0
        result = Round(
            wall_s=plan_s + train_s, factors=[factor], attempted=n_items * TRAIN_EPOCHS
        )
        failed_epochs = TRAIN_EPOCHS
        if plan_code == 0 and train_code == 0 and plan_round_trips(self.plan):
            failed_epochs = self._failed_epochs()
        result.failed = n_items * failed_epochs

        val_samples = sum(inputs.VAL_LENGTHS) * TRAIN_EPOCHS
        result.named = {
            "train_samples_per_s": samples * TRAIN_EPOCHS / train_s,
            "validate_samples_per_s": val_samples / validate.busy_s if validate.busy_s else 0.0,
            "batch_plan_s": plan_s,
        }
        result.rates = {
            "samples_per_s": result.named["train_samples_per_s"] / factor,
            "ops_per_s": result.attempted / (train_s * factor),
            "bypass_samples_per_s": result.named["validate_samples_per_s"] / factor,
        }
        result.op_ms, result.op_factor = pieces.op_ms, factor
        return result

    def _failed_epochs(self) -> int:
        """Epochs whose losses are not finite; all of them when best.ckpt
        differs from the first round's (training is deterministic per seed)."""
        with open(self.out / "report.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != TRAIN_EPOCHS:
            return TRAIN_EPOCHS
        bad = sum(
            not (math.isfinite(float(row["train_loss"])) and math.isfinite(float(row["val_loss"])))
            for row in rows
        )
        best = (self.out / "best.ckpt").read_bytes()
        if self.first_ckpt is None:
            self.first_ckpt = best
        return TRAIN_EPOCHS if best != self.first_ckpt else bad


# ---------------------------------------------------------------------------


class GenerateWorkload:
    """`sing evaluate` for the sing, ablated and random generators."""

    op_name = "generate_ms"

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.corpus, self.csv = work / "test", work / "scores.csv"
        self.ckpt = {name: work / name / "model.ckpt" for name in ("sing", "ablated")}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        shutil.rmtree(self.corpus, ignore_errors=True)
        inputs.write_prolls(self.corpus, inputs.GENERATE_LENGTHS, rng)
        for name, path in self.ckpt.items():
            cfg = ModelConfig(attention_enabled=name == "sing")
            path.parent.mkdir(parents=True, exist_ok=True)
            save_model(Model(cfg, rng=rng), path)
            (path.parent / "model_config.txt").write_text(cfg.to_text())
        self.rolls = {
            roll.n_samples: roll for roll in map(load_proll, sorted(self.corpus.glob("*.proll")))
        }
        self.templates = {n: ssm(chroma(roll)) for n, roll in self.rolls.items()}

    def round(self, tracer: Tracer | None) -> Round:
        result = Round()
        n_pieces = len(self.rolls)
        cfg = ModelConfig()
        walls: list[float] = []
        corrected: dict[str, float] = {}  # generator -> corrected samples per second
        for generator in GENERATORS:
            probe = Probe()
            capture = generator != "random"
            probes = [
                (sing.evaluation, "generate", probe.timer(sing.evaluation.generate, capture)),
                (sing.evaluation, "random_baseline",
                 probe.timer(sing.evaluation.random_baseline, not capture)),
            ]
            argv = ["evaluate", "--in", str(self.corpus), "--out", str(self.csv),
                    "--generator", generator, "--seed", str(self.seed), "--grid-k", "1"]
            if generator != "random":
                argv += ["--checkpoint", str(self.ckpt[generator])]
            with patched(probes), traced(tracer):
                code, elapsed, factor = cli(argv, tracer)

            attempted = n_pieces * GENERATIONS
            scores = self._scores() if code == 0 else []
            failed = attempted
            if len(scores) == attempted and len(probe.captured) == attempted:
                failed = sum(
                    not self._generation_ok(generator, args, roll, score, cfg)
                    for (args, roll), score in zip(probe.captured, scores)
                )
                mean = float(np.mean(scores))
                result.readouts[f"evaluation.std_mse.{generator}"] = mean
                if generator == "random" and not RANDOM_MSE_BAND[0] <= mean <= RANDOM_MSE_BAND[1]:
                    failed = attempted
            result.attempted += attempted
            result.failed += failed
            result.wall_s += elapsed
            walls.append(elapsed)
            result.factors.append(factor)

            generated = sum(
                n - (0 if generator == "random" else cfg.seed_len) for n in self.rolls
            ) * GENERATIONS
            result.named[f"{generator}_samples_per_s"] = generated / elapsed
            corrected[generator] = generated / (elapsed * factor)
            if generator == "sing":
                result.op_ms, result.op_factor = probe.op_ms, factor

        corrected_s = sum(w * f for w, f in zip(walls, result.factors))
        result.rates = {
            "samples_per_s": corrected["sing"],
            "ops_per_s": result.attempted / corrected_s,
            "bypass_samples_per_s": corrected["ablated"],
        }
        return result

    def _scores(self) -> list[float]:
        rows = self.csv.read_text().splitlines()[1:]
        return [float(row.split(",")[2]) for row in rows if not row.startswith(("mean,", "skipped,"))]

    def _generation_ok(self, generator, args, roll, score, cfg) -> bool:
        """Seed kept, 1..max_notes notes per generated step inside the pitch
        range, a valid SSM, and the CSV score equal to a recomputation."""
        n = roll.n_samples
        if n not in self.rolls:
            return False
        samples = roll.data.T
        first = 0
        if generator != "random":
            first = cfg.seed_len
            seed = self.rolls[n].data.T[:first]
            if not (np.array_equal(args[1], seed) and np.array_equal(samples[:first], seed)):
                return False
        notes = samples[first:].sum(axis=1)
        lo, hi = cfg.pitch_lo, cfg.pitch_hi
        outside = samples[first:, :lo].any() or samples[first:, hi + 1 :].any()
        if outside or notes.min() < 1 or notes.max() > cfg.max_notes:
            return False
        generated = ssm(chroma(roll), role="generated")
        return ssm_valid(generated.values) and standardized_mse(
            self.templates[n], generated
        ) == score


# ---------------------------------------------------------------------------


class IngestWorkload:
    """`sing preprocess` then `sing batch-plan` on MIDI files, then every
    produced roll written back through `midi_io.to_midi`."""

    op_name = "ingest_file_ms"

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.midi, self.rolls, self.plan = work / "midi", work / "rolls", work / "plan.txt"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        shutil.rmtree(self.midi, ignore_errors=True)
        inputs.write_midis(self.midi, inputs.INGEST_BEATS, rng)

    def round(self, tracer: Tracer | None) -> Round:
        seed = str(self.seed)
        files = Probe()
        probes = [
            (sing.midi_io, "parse_midi", files.opener(sing.midi_io.parse_midi)),
            (sing.structure, "save_ssm", files.closer(sing.structure.save_ssm)),
        ]
        shutil.rmtree(self.rolls, ignore_errors=True)
        with patched(probes), traced(tracer):
            pre_code, pre_s, pre_f = cli(
                ["preprocess", "--in", str(self.midi), "--out", str(self.rolls), "--seed", seed],
                tracer,
            )
        with traced(tracer):
            plan_code, plan_s, plan_f = cli(
                ["batch-plan", "--in", str(self.rolls), "--out", str(self.plan), "--seed", seed],
                tracer,
            )

        stems = [path.stem for path in sorted(self.midi.glob("*.mid"))]
        rolls = {stem: self._load(stem) for stem in stems}
        written = [roll for roll in rolls.values() if roll is not None]

        def write_back():
            with tracer.request() if tracer else contextlib.nullcontext():
                return [sing.midi_io.to_midi(roll) for roll in written]

        with traced(tracer):
            midis, write_s, write_f = hostspeed.timed(write_back)
        midi_by_stem = dict(zip((s for s in stems if rolls[s] is not None), midis))

        result = Round(
            wall_s=pre_s + plan_s + write_s,
            factors=[pre_f, plan_f, write_f],
            attempted=len(stems),
        )
        if pre_code != 0 or plan_code != 0 or not plan_round_trips(self.plan):
            result.failed = len(stems)
        else:
            result.failed = sum(
                not self._file_ok(stem, rolls[stem], midi_by_stem.get(stem)) for stem in stems
            )
        samples = sum(roll.n_samples for roll in written)
        ingest_s = pre_s * pre_f + plan_s * plan_f
        result.rates = {
            "samples_per_s": samples / ingest_s,
            "ops_per_s": len(stems) / ingest_s,
            "bypass_samples_per_s": samples / (write_s * write_f),
        }
        result.named = {
            "ingest_files_per_s": len(stems) / (pre_s + plan_s),
            "midi_write_samples_per_s": samples / write_s,
        }
        result.op_ms, result.op_factor = files.op_ms, pre_f
        return result

    def _load(self, stem: str):
        path = self.rolls / f"{stem}.proll"
        return load_proll(path) if path.exists() else None

    def _file_ok(self, stem: str, roll, midi: bytes | None) -> bool:
        """Containers round-trip, the SSM is valid and matches the roll, and
        roll -> MIDI -> roll is exact."""
        ssm_path = self.rolls / f"{stem}.ssm"
        if roll is None or midi is None or not ssm_path.exists():
            return False
        proll_bytes = (self.rolls / f"{stem}.proll").read_bytes()
        ssm_bytes = ssm_path.read_bytes()
        stored = ssm_from_bytes(ssm_bytes)
        if proll_to_bytes(proll_from_bytes(proll_bytes)) != proll_bytes:
            return False
        if ssm_to_bytes(stored) != ssm_bytes or not ssm_valid(stored.values):
            return False
        expected = ssm(chroma(roll)).values.astype("<f4").astype(np.float64)
        if not np.array_equal(stored.values, expected):
            return False
        back = to_piano_roll(parse_midi(midi).events, roll.tempo)
        return np.array_equal(back.data, roll.data)


WORKLOADS = {"train": TrainWorkload, "generate": GenerateWorkload, "ingest": IngestWorkload}
