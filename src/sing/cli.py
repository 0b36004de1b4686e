"""Command-line entry point for the whole pipeline.

Verbs: preprocess, batch-plan, train, generate, evaluate, render-ssm,
synth-ssm. Every verb accepts --seed; all randomness derives from it, so
repeated invocations with identical inputs and seed produce identical
output bytes. A --config file of ``key = value`` lines overrides built-in
defaults, and explicit flags override the config.
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from sing import batching, evaluation, midi_io, structure, training
from sing import config as cfgio
from sing.model import COMBINER_MODES, Model, ModelConfig, generate, load_model
from sing.structure import chroma, ssm

log = logging.getLogger(__name__)
T = TypeVar("T")

# --config key -> (flag, dest, built-in default, help); the flag's type is the default's
_CONFIG_KEYS = {
    "grid.k": ("--grid-k", "grid_k", batching.GRID_K, "rank of the shortest standard length"),
    "grid.count": ("--grid-count", "grid_count", batching.GRID_COUNT, "number of standard lengths"),
    "grid.max_len": ("--max-len", "max_len", batching.GRID_MAX_LEN, "slice pieces longer than this"),
    "edit.max_fraction": ("--max-edit", "max_edit", batching.MAX_EDIT_FRACTION,
                          "exclude pieces needing a larger pad/truncate fraction"),
    "batch.cap": ("--batch-cap", "batch_cap", batching.BATCH_CAP, "max pieces per batch"),
    "model.hidden_size": ("--hidden", "hidden_size", ModelConfig.hidden_size, "LSTM hidden size"),
    "model.combiner_mode": ("--combiner", "combiner_mode", ModelConfig.combiner_mode,
                            "how attention and LSTM outputs merge"),
    "model.seed_len": ("--seed-len", "seed_len", ModelConfig.seed_len,
                       "samples fed before generation"),
    "model.top_k": ("--top-k", "top_k", ModelConfig.top_k, "sample from the k most probable pitches"),
    "model.max_notes": ("--max-notes", "max_notes", ModelConfig.max_notes,
                        "categorical draws per sample"),
    "model.pitch_lo": ("--pitch-lo", "pitch_lo", ModelConfig.pitch_lo, "lowest sampleable pitch"),
    "model.pitch_hi": ("--pitch-hi", "pitch_hi", ModelConfig.pitch_hi, "highest sampleable pitch"),
    "train.p_feedback": ("--p-feedback", "p_feedback", training.TrainConfig.p_feedback,
                         "probability of feeding back the model's own sample"),
    "train.lr": ("--lr", "lr", training.TrainConfig.lr, "Adam learning rate"),
    "train.epochs": ("--epochs", "epochs", training.TrainConfig.epochs, "training epochs"),
}


def _load_defaults(argv: list[str]) -> dict[str, object]:
    """Flag defaults: the built-in ones, overridden by a --config file."""
    defaults = {dest: default for _, dest, default, _ in _CONFIG_KEYS.values()}
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        defaults.update(_require(known.config, _read_config))
    return defaults


def _read_config(path: Path) -> dict[str, object]:
    """Flag dest -> value for each key of a --config file."""
    overrides = {}
    for key, value in cfgio.parse_kv(path.read_text()).items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        _, dest, builtin, _ = _CONFIG_KEYS[key]
        try:
            overrides[dest] = cfgio.cast_like(builtin, value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return overrides


def _settings(args: argparse.Namespace, group: str) -> dict[str, object]:
    """Flag dest -> parsed value for each setting of a key group ("model", "train")."""
    return {dest: getattr(args, dest) for key, (_, dest, _, _) in _CONFIG_KEYS.items()
            if key.split(".")[0] == group}


def _seed(text: str) -> int:
    """--seed's type: numpy seeds its generators from non-negative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends "(default: ...)" only to a flag that has a default: not None."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        return action.help if action.default is None else super()._get_help_string(action)


def _build_parser(defaults: dict[str, object]) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file overriding defaults")
    common.add_argument("--seed", type=_seed, default=0, help="RNG seed for all randomness")
    parser = argparse.ArgumentParser(
        prog="sing",
        description="Self-similarity-guided music generation pipeline.",
        formatter_class=_HelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], formatter_class=_HelpFormatter, help=help)

    def add_settings(p: argparse.ArgumentParser, *groups: str) -> None:
        """The settings whose key group (the part before the dot) is one of groups."""
        for key, (flag, dest, default, text) in _CONFIG_KEYS.items():
            if key.split(".")[0] in groups:
                # a value is shown by its flag's name (--hidden HIDDEN), a mode by its choices
                shown = ({"choices": COMBINER_MODES} if dest == "combiner_mode"
                         else {"metavar": flag[2:].upper().replace("-", "_")})
                p.add_argument(flag, dest=dest, type=type(default), default=defaults[dest],
                               help=text, **shown)

    p = verb("preprocess", "MIDI directory -> piano rolls and SSMs")
    p.add_argument("--in", dest="input_path", required=True, help="directory of .mid/.midi files")
    p.add_argument("--out", dest="output_path", required=True, help="output directory")

    p = verb("batch-plan", "piano rolls -> variable-length batch plan")
    p.add_argument("--in", dest="input_path", required=True, help="directory of .proll files")
    p.add_argument("--out", dest="output_path", required=True, help="plan file to write")
    add_settings(p, "grid", "edit", "batch")

    p = verb("train", "plan + corpus -> checkpoints and report CSV")
    p.add_argument("--in", dest="input_path", required=True, help="directory of .proll files")
    p.add_argument("--plan", required=True, help="batch plan from batch-plan")
    p.add_argument("--out", dest="output_path", required=True, help="checkpoint directory")
    p.add_argument("--val", help="validation .proll directory (default: training corpus)")
    p.add_argument("--ablated", action="store_true", help="attention-free baseline model")
    add_settings(p, "model", "train")

    p = verb("generate", "checkpoint + seed + template SSM -> piano roll and MIDI")
    p.add_argument("--checkpoint", required=True, help="model checkpoint file")
    p.add_argument("--in", dest="input_path", required=True, help="seed .proll (first seed-len samples used)")
    p.add_argument("--template", required=True, help="template .ssm steering the structure")
    p.add_argument("--out", dest="output_path", required=True, help="output prefix (writes .proll and .mid)")
    p.add_argument("--model-config", help="model config file (default: next to checkpoint)")

    p = verb("evaluate", "checkpoint(s) + test corpus -> standardized-MSE CSV")
    p.add_argument("--in", dest="input_path", required=True, help="directory of test .proll files")
    p.add_argument("--out", dest="output_path", required=True, help="CSV file to write")
    p.add_argument("--generator", choices=evaluation.GENERATORS, default="sing",
                   help="which generator to score")
    p.add_argument("--checkpoint", help="model checkpoint (sing/ablated generators)")
    p.add_argument("--model-config",
                   help="model config file (default: next to checkpoint, else built-in defaults)")
    p.add_argument("--generations", type=int, default=evaluation.GENERATIONS_PER_PIECE,
                   help="generations per test piece")
    add_settings(p, "grid", "edit")

    p = verb("render-ssm", "SSM container -> PGM image")
    p.add_argument("--in", dest="input_path", required=True, help=".ssm file")
    p.add_argument("--out", dest="output_path", required=True, help=".pgm file to write")

    p = verb("synth-ssm", "block spec text -> synthetic SSM container")
    p.add_argument("--in", dest="input_path", required=True, help="length=/background=/block= text file")
    p.add_argument("--out", dest="output_path", required=True, help=".ssm file to write")

    return parser


def _require(path: str | Path, loader: Callable[[Path], T]) -> T:
    """loader(path) for an input the user named; a ValueError from the loader
    becomes an error naming the path, as the OS names it in an OSError."""
    path = Path(path)
    try:
        return loader(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _files(directory: str | Path, wanted: Callable[[str], bool], what: str) -> list[Path]:
    """The sorted entries of directory whose suffix is wanted; none is an error."""
    paths = sorted(p for p in Path(directory).iterdir() if wanted(p.suffix))
    if not paths:
        raise ValueError(f"{directory}: no {what}")
    return paths


def _load_rolls(directory: str | Path) -> list[midi_io.PianoRoll]:
    return [_require(path, midi_io.load_proll)
            for path in _files(directory, lambda s: s == ".proll", ".proll files")]


def _model_config_for(checkpoint: str | None, explicit: str | None) -> ModelConfig:
    """--model-config, else the model_config.txt next to the checkpoint, else defaults."""
    if not (explicit or checkpoint):
        return ModelConfig()
    if not explicit:
        os.stat(checkpoint)  # a missing checkpoint is named before the config beside it
    cfg_path = explicit or Path(checkpoint).parent / "model_config.txt"
    return _require(cfg_path, lambda p: ModelConfig.from_text(p.read_text()))


def _require_out_dir(path: str) -> None:
    """Fail before any work, as writing would, when an output file's
    directory is missing or the output names a directory."""
    if not Path(path).parent.exists():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if Path(path).is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _prepare(args, rolls, rng, **options):
    """prepare_corpus with the grid, slicing and edit flags of batch-plan and evaluate."""
    return training.prepare_corpus(
        rolls, rng, k=args.grid_k, count=args.grid_count, max_len=args.max_len,
        max_edit_fraction=args.max_edit, **options,
    )


def _cmd_preprocess(args) -> int:
    midi_paths = _files(args.input_path, lambda s: s.lower() in (".mid", ".midi"), "MIDI files")
    first_of_stem: dict[str, Path] = {}
    for path in midi_paths:
        if first_of_stem.setdefault(path.stem, path) != path:
            raise ValueError(f"{first_of_stem[path.stem]} and {path} would both write "
                             f"{path.stem}.proll")
    out_dir = Path(args.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = skipped = 0
    for path in midi_paths:
        try:
            parsed = midi_io.parse_midi(path.read_bytes())
            tempo = midi_io.estimate_tempo(parsed.events)
            roll = midi_io.to_piano_roll(parsed.events, tempo, source_id=path.stem)
        except (midi_io.MidiParseError, ValueError) as exc:
            log.warning("excluded %s: %s", path.name, exc)
            skipped += 1
            continue
        for warning in parsed.warnings:
            log.info("%s: %s", path.name, warning)
        midi_io.save_proll(roll, out_dir / f"{path.stem}.proll")
        structure.save_ssm(ssm(chroma(roll)), out_dir / f"{path.stem}.ssm")
        written += 1
    print(f"preprocess: wrote {written} piece(s) to {out_dir}, excluded {skipped}")
    return 0


def _cmd_batch_plan(args) -> int:
    _require_out_dir(args.output_path)
    rolls = _load_rolls(args.input_path)
    rng = np.random.default_rng(args.seed)
    plan, _, excluded = _prepare(args, rolls, rng, batch_cap=args.batch_cap)
    batching.save_plan(plan, args.output_path)
    for label in excluded:
        log.warning("excluded %s: edit beyond %.0f%%", label, args.max_edit * 100)
    print(
        f"batch-plan: {len(plan.assignments)} assignment(s) in {len(plan.batches)} "
        f"batch(es), {len(excluded)} excluded -> {args.output_path}"
    )
    return 0


def _cmd_train(args) -> int:
    rolls = _load_rolls(args.input_path)
    plan = _require(args.plan, batching.load_plan)
    items = training.items_from_plan(plan, {roll.source_id: roll for roll in rolls})

    cfg = ModelConfig(**_settings(args, "model"), attention_enabled=not args.ablated)
    tcfg = training.TrainConfig(**_settings(args, "train"))
    rng = np.random.default_rng(args.seed)
    model = Model(cfg, rng=rng)

    val_items = _plain_items(_load_rolls(args.val), cfg.seed_len) if args.val else items
    reports, best_path = training.train(
        model, plan, items, val_items, tcfg, args.output_path, rng
    )
    best_epoch = training.select_best(reports)
    print(
        f"train: {len(reports)} epoch(s), best epoch {best_epoch} "
        f"(val {reports[best_epoch].val_loss:.4f}) -> {best_path}"
    )
    return 0


def _plain_items(rolls, seed_len: int) -> list[midi_io.PianoRoll]:
    items = []
    for roll in rolls:
        if roll.n_samples <= seed_len:
            log.warning("validation piece %s too short, skipped", roll.source_id)
            continue
        items.append(replace(roll, source_id=f"{roll.source_id}[0]"))
    return items


def _cmd_generate(args) -> int:
    cfg = _model_config_for(args.checkpoint, args.model_config)
    model = _require(args.checkpoint, lambda p: load_model(p, cfg))
    seed_roll = _require(args.input_path, midi_io.load_proll)
    if seed_roll.n_samples < cfg.seed_len:
        raise ValueError(f"{args.input_path}: seed piece has {seed_roll.n_samples} samples, "
                         f"need {cfg.seed_len}")
    template = _require(args.template, structure.load_ssm)
    if template.n <= cfg.seed_len:
        raise ValueError(f"{args.template}: template has {template.n} samples, "
                         f"no more than seed length {cfg.seed_len}")
    rng = np.random.default_rng(args.seed)
    seed = seed_roll.data.T[: cfg.seed_len]
    roll = generate(model, seed, template, rng, tempo=seed_roll.tempo)
    midi = _require(args.input_path, lambda _: midi_io.to_midi(roll))  # its tempo is the seed's
    # appended, not with_suffix: prefixes take.1 and take.2 write apart
    proll_path = Path(f"{args.output_path}.proll")
    midi_path = Path(f"{args.output_path}.mid")
    proll_path.parent.mkdir(parents=True, exist_ok=True)
    midi_io.save_proll(roll, proll_path)
    midi_path.write_bytes(midi)
    print(f"generate: wrote {proll_path} and {midi_path}")
    return 0


def _cmd_evaluate(args) -> int:
    _require_out_dir(args.output_path)
    rolls = _load_rolls(args.input_path)
    rng = np.random.default_rng(args.seed)
    cfg = _model_config_for(args.checkpoint, args.model_config)
    model = None
    if args.generator != "random":
        if not args.checkpoint:
            raise ValueError(f"generator {args.generator!r} needs --checkpoint")
        if cfg.attention_enabled != (args.generator == "sing"):
            raise ValueError(
                f"checkpoint is {'an attention' if cfg.attention_enabled else 'an ablated'} "
                f"model but --generator={args.generator}"
            )
        model = _require(args.checkpoint, lambda p: load_model(p, cfg))
    plan, _, excluded = _prepare(args, rolls, rng)
    for label in excluded:
        log.warning("excluded %s from evaluation", label)
    items = training.items_from_plan(plan, {roll.source_id: roll for roll in rolls})
    run = evaluation.evaluate(items, cfg, rng, model=model, generations=args.generations)
    Path(args.output_path).write_text(evaluation.eval_run_to_csv(run))
    print(
        f"evaluate[{run.generator}]: mean standardized MSE {run.mean:.4f} over "
        f"{len(run.piece_ids)} piece(s) x {args.generations} -> {args.output_path}"
    )
    return 0


def _cmd_render_ssm(args) -> int:
    matrix = _require(args.input_path, structure.load_ssm)
    Path(args.output_path).write_bytes(structure.render_pgm(matrix))
    print(f"render-ssm: wrote {args.output_path}")
    return 0


def _cmd_synth_ssm(args) -> int:
    spec = _require(args.input_path, lambda p: structure.parse_synth_spec(p.read_text()))
    structure.save_ssm(structure.synth_ssm(spec), args.output_path)
    print(f"synth-ssm: wrote {args.output_path} ({spec.length} samples)")
    return 0


_HANDLERS = {
    "preprocess": _cmd_preprocess,
    "batch-plan": _cmd_batch_plan,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "render-ssm": _cmd_render_ssm,
    "synth-ssm": _cmd_synth_ssm,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    level = getattr(logging, os.environ.get("SING_LOG", "warning").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(message)s")
    verb = "arguments"
    try:
        defaults = _load_defaults(argv)
        parser = _build_parser(defaults)
        args = parser.parse_args(argv)
        verb = args.verb
        return _HANDLERS[verb](args)
    except MemoryError:
        print(f"error: out of memory ({verb})", file=sys.stderr)
        return 1
    except (ValueError, OSError, training.TrainingError) as exc:
        # an OSError that carries a path reads like a ValueError from _require
        named = getattr(exc, "filename", None) is not None
        print(f"error: {exc.filename}: {exc.strerror}" if named else f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
