"""Checks that the benchmark reports what BENCHMARK.json promises.

    python3 perfbench/check_spans.py
    python3 -m pytest -q perfbench/check_spans.py     # same checks

Runs every workload once with ``--trace 1`` and a one-second budget (one
untraced and one traced round) and checks that

* BENCHMARK.json names exactly the metrics run.py reports, with the same
  units, and the traced run reports every per-layer metric;
* each span has at least one call on every workload that should exercise
  it, and zero calls on every other workload -- among them the predicted
  zeros: ``nn.lstm_bwd`` and ``nn.adam`` on ``generate``,
  ``midi_io.parse`` on ``train`` and every ``nn.*`` span on ``ingest``;
* computed FLOPs and bytes are non-zero where their span is called, and
  tracing overhead is reported;
* without the ``src/`` tree the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORK, per_layer_specs  # noqa: E402

TRAIN, GENERATE, INGEST = "train", "generate", "ingest"
# span -> the workloads whose traced rounds must call it; zero calls elsewhere
EXERCISED = {
    "nn.lstm_fwd": {TRAIN, GENERATE},
    "nn.sigmoid": {TRAIN, GENERATE},
    "nn.lstm_bwd": {TRAIN},
    "nn.dense_bwd": {TRAIN},
    "nn.bce": {TRAIN},
    "nn.adam": {TRAIN},
    "nn.sparsemax": {TRAIN, GENERATE},
    "nn.ckpt_save": {TRAIN},
    "nn.ckpt_load": {GENERATE},
    "model.combine_bwd": {TRAIN},
    "model.head_bwd": {TRAIN},
    "model.attention": {TRAIN, GENERATE},
    "model.forward_step": {TRAIN, GENERATE},
    "model.sample_notes": {TRAIN, GENERATE},
    "model.generate": {GENERATE},
    "training.piece_loss": {TRAIN},
    "training.forward_piece": {TRAIN},
    "training.train_epoch": {TRAIN},
    "training.validate": {TRAIN},
    "structure.chroma": {TRAIN, GENERATE, INGEST},
    "structure.ssm": {TRAIN, GENERATE, INGEST},
    "structure.standardized_mse": {GENERATE},
    "structure.ssm_io": {INGEST},
    "batching.prepare": {TRAIN, GENERATE, INGEST},
    "midi_io.parse": {INGEST},
    "midi_io.estimate_tempo": {INGEST},
    "midi_io.to_roll": {INGEST},
    "midi_io.proll_io": {TRAIN, GENERATE, INGEST},
    "midi_io.to_midi": {INGEST},
    "evaluation.evaluate": {GENERATE},
    "evaluation.random_baseline": {GENERATE},
    "cli.preprocess": {INGEST},
    "cli.batch-plan": {TRAIN, INGEST},
    "cli.train": {TRAIN},
    "cli.evaluate": {GENERATE},
}
COMPUTED = {  # computed count -> the span whose calls it follows
    "nn.lstm_fwd.gflop": "nn.lstm_fwd",
    "nn.lstm_bwd.gflop": "nn.lstm_bwd",
    "nn.ckpt_save.bytes": "nn.ckpt_save",
    "structure.ssm.bytes": "structure.ssm",
    "midi_io.parse.bytes": "midi_io.parse",
    "midi_io.to_midi.bytes": "midi_io.to_midi",
    "nn.sparsemax.support_frac": "nn.sparsemax",
    "training.fed_back_frac": "training.forward_piece",
}

_traced: dict[str, dict] = {}


def traced_result(workload: str) -> dict:
    """Last-line JSON of a short traced run, run once per workload."""
    if workload not in _traced:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        _traced[workload] = json.loads(out.stdout.strip().splitlines()[-1])
    return _traced[workload]


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_specs()
    assert {w["name"] for w in spec["workloads"]} == {TRAIN, GENERATE, INGEST}
    span_names = {name[: -len(".calls")] for name, _, _ in per_layer_specs() if name.endswith(".calls")}
    assert span_names == set(EXERCISED)


def test_spans_called_where_exercised_and_nowhere_else():
    for workload in (TRAIN, GENERATE, INGEST):
        result = traced_result(workload)
        assert result["correct"] and result["failed"] == 0, result
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert set(metrics) == {name for name, _, _ in per_layer_specs()}
        for span, workloads in EXERCISED.items():
            calls = metrics[f"{span}.calls"]
            if workload in workloads:
                assert calls > 0, f"{span} never called on {workload}"
                assert metrics[f"{span}.s"] > 0, f"{span} has no self time on {workload}"
            else:
                assert calls == 0, f"{span} called {calls} times on {workload}"
        for name, span in COMPUTED.items():
            assert (metrics[name] > 0) == (workload in EXERCISED[span]), (name, workload)
        assert metrics["batching.kept_frac"] > 0
        assert metrics["trace.overhead_frac"] != 0


def test_exits_nonzero_without_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", TRAIN, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert out.returncode != 0
        assert "correct" not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for check in (
        test_benchmark_json_matches_run,
        test_spans_called_where_exercised_and_nowhere_else,
        test_exits_nonzero_without_sources,
    ):
        check()
        print(f"ok {check.__name__}")
