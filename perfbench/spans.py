"""Spans around sing's layer boundaries, recorded from outside the package.

Each wrapper replaces a function at the module attribute its caller looks
it up by (``sing.training.forward_step``, not ``sing.model.forward_step``,
for the calls training makes), records one span per call and returns the
result unchanged. A span holds its name, start, end, enclosing span and
request id; spans stay in flat in-memory arrays until the run writes them
out. A layer's self time is its spans' durations minus the time covered by
their child spans.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import sing.cli
import sing.evaluation
import sing.midi_io
import sing.model
import sing.nn
import sing.structure
import sing.training


def _lstm_fwd_flop(args, kwargs, result):
    four_h, n_in = args[0].shape
    return {"flop": 2 * four_h * (n_in + args[1].shape[1])}


def _lstm_bwd_flop(args, kwargs, result):
    W_x, W_h = args[0][0], args[0][1]
    # two outer products and two transposed matvecs over the stacked gates
    return {"flop": 4 * W_x.shape[0] * (W_x.shape[1] + W_h.shape[1])}


def _sparsemax_support(args, kwargs, result):
    return {"support": np.count_nonzero(result), "history": result.shape[0]}


def _ssm_bytes(args, kwargs, result):
    return {"bytes": 8 * result.n * result.n}


def _first_arg_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


def _result_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _ckpt_bytes(args, kwargs, result):
    return {"bytes": Path(args[1]).stat().st_size}


def _scheduled_draws(args, kwargs, result):
    model, target = args[0], args[1]
    return {"draws": target.n_samples - 1 - model.cfg.seed_len}


def _fed_back(args, kwargs, result):
    return {"fed_back": 1}


def _plan_counts(plan, excluded=None):
    counts = {
        "batched": sum(len(batch) for batch in plan.batches),
        "batches": len(plan.batches),
    }
    if excluded is not None:
        counts["kept"] = len(plan.assignments)
        counts["segments"] = len(plan.assignments) + len(excluded)
    return counts


def _prepare_counts(args, kwargs, result):
    plan, _, excluded = result
    return _plan_counts(plan, excluded)


def _items_counts(args, kwargs, result):
    return _plan_counts(args[0])


# (module, attribute, span name, counter). Several attributes share a span
# name when more than one caller looks the same function up.
TARGETS = (
    (sing.nn, "lstm_cell_forward", "nn.lstm_fwd", _lstm_fwd_flop),
    (sing.nn, "sigmoid", "nn.sigmoid", None),
    (sing.nn, "lstm_cell_backward", "nn.lstm_bwd", _lstm_bwd_flop),
    (sing.nn, "dense_backward", "nn.dense_bwd", None),
    (sing.nn, "bce_with_logits", "nn.bce", None),
    (sing.nn, "adam_step", "nn.adam", None),
    (sing.nn, "sparsemax", "nn.sparsemax", _sparsemax_support),
    (sing.nn, "save_checkpoint", "nn.ckpt_save", _ckpt_bytes),
    (sing.nn, "load_checkpoint", "nn.ckpt_load", None),
    (sing.model, "combine_backward", "model.combine_bwd", None),
    (sing.training, "head_backward", "model.head_bwd", None),
    (sing.model, "attention_step", "model.attention", None),
    (sing.model, "forward_step", "model.forward_step", None),
    (sing.training, "forward_step", "model.forward_step", None),
    (sing.model, "sample_notes", "model.sample_notes", None),
    (sing.training, "sample_notes", "model.sample_notes", _fed_back),
    (sing.evaluation, "generate", "model.generate", None),
    (sing.cli, "generate", "model.generate", None),
    (sing.training, "piece_loss", "training.piece_loss", None),
    (sing.training, "forward_piece", "training.forward_piece", _scheduled_draws),
    (sing.training, "train_epoch", "training.train_epoch", None),
    (sing.training, "validate", "training.validate", None),
    (sing.cli, "chroma", "structure.chroma", None),
    (sing.training, "chroma", "structure.chroma", None),
    (sing.evaluation, "chroma", "structure.chroma", None),
    (sing.cli, "ssm", "structure.ssm", _ssm_bytes),
    (sing.training, "ssm", "structure.ssm", _ssm_bytes),
    (sing.evaluation, "ssm", "structure.ssm", _ssm_bytes),
    (sing.evaluation, "standardized_mse", "structure.standardized_mse", None),
    (sing.structure, "save_ssm", "structure.ssm_io", None),
    (sing.structure, "load_ssm", "structure.ssm_io", None),
    (sing.training, "prepare_corpus", "batching.prepare", _prepare_counts),
    (sing.training, "items_from_plan", "batching.prepare", _items_counts),
    (sing.midi_io, "parse_midi", "midi_io.parse", _first_arg_bytes),
    (sing.midi_io, "estimate_tempo", "midi_io.estimate_tempo", None),
    (sing.midi_io, "to_piano_roll", "midi_io.to_roll", None),
    (sing.midi_io, "save_proll", "midi_io.proll_io", None),
    (sing.midi_io, "load_proll", "midi_io.proll_io", None),
    (sing.midi_io, "to_midi", "midi_io.to_midi", _result_bytes),
    (sing.evaluation, "evaluate", "evaluation.evaluate", None),
    (sing.evaluation, "random_baseline", "evaluation.random_baseline", None),
)
CLI_VERBS = ("preprocess", "batch-plan", "train", "evaluate")

SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name, _ in TARGETS] + [
    f"cli.{verb}" for verb in CLI_VERBS
]))


@contextmanager
def patched(replacements):
    """Set (namespace, key, value) replacements; restore the originals on exit.

    A namespace is a module (attribute) or a dict (item).
    """
    saved = []
    try:
        for space, key, value in replacements:
            if isinstance(space, dict):
                saved.append((space, key, space[key]))
                space[key] = value
            else:
                saved.append((space, key, getattr(space, key)))
                setattr(space, key, value)
        yield
    finally:
        for space, key, value in reversed(saved):
            if isinstance(space, dict):
                space[key] = value
            else:
                setattr(space, key, value)


class Tracer:
    """Flat in-memory span store plus per-span counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request_id = array("q")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._request = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, counter=None):
        nid = self._name_id(name)
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request_id.append(self._request)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                self._stack.pop()
                self.start[idx] = started
                self.end[idx] = ended
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    full = f"{name}.{key}"
                    counters[full] = counters.get(full, 0) + value
            return result

        return traced

    @contextmanager
    def request(self):
        """Give the spans of one top-level call their own request id."""
        self._request += 1
        yield

    @contextmanager
    def active(self):
        """Install a span wrapper at every target for the duration."""
        replacements = [
            (module, attr, self.wrap(name, getattr(module, attr), counter))
            for module, attr, name, counter in TARGETS
        ]
        handlers = sing.cli._HANDLERS
        replacements += [
            (handlers, verb, self.wrap(f"cli.{verb}", handlers[verb])) for verb in CLI_VERBS
        ]
        with patched(replacements):
            yield

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(calls, self seconds) per name id, over every recorded span."""
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=duration - child, minlength=len(self.names))
        return calls, self_s

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request_id, dtype=np.int64),
        )
