"""The benchmark's tracer finds every function it wraps, its workloads
import and set up, and `evaluate` writes the scores its correctness check
recomputes.

perfbench/spans.py replaces functions by module attribute name, and
perfbench/workloads.py imports sing names directly; a rename in sing would
otherwise surface only when a benchmark run fails.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import sing.cli
import sing.evaluation
import sing.model
import sing.training
from sing.batching import Assignment, BatchPlan
from sing.midi_io import PianoRoll
from sing.model import Model, ModelConfig
from sing.structure import chroma, ssm, standardized_mse

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """perfbench/workloads.py, whose sibling imports need perfbench/ on the path."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_workload_sets_up(tmp_path):
    for name, workload in load_workloads().WORKLOADS.items():
        workload(tmp_path / name, 0).setup()
        assert any((tmp_path / name).iterdir()), name


def test_every_traced_target_exists_and_is_callable():
    spans = load_spans()
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in spans.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert not missing


def test_every_traced_cli_verb_has_a_handler():
    spans = load_spans()
    assert set(spans.CLI_VERBS) <= set(sing.cli._HANDLERS)
    assert all(callable(sing.cli._HANDLERS[verb]) for verb in spans.CLI_VERBS)


def test_traced_piece_evaluates_every_counter():
    """A traced forward pass, loss and generation: the spans' counters read
    the arguments and results of the current signatures."""
    spans = load_spans()
    cfg = ModelConfig(hidden_size=4, seed_len=3)
    model = Model(cfg, rng=np.random.default_rng(0))
    data = (np.random.default_rng(1).random((128, 12)) < 0.1).astype(np.uint8)
    roll = PianoRoll(data=data, tempo=120.0)
    template = ssm(chroma(roll))
    tracer = spans.Tracer()
    with tracer.active():
        trace = sing.training.forward_piece(model, roll, template, 1.0, np.random.default_rng(2))
        sing.training.piece_loss(model, trace, roll, template)
        sing.evaluation.generate(model, data.T[: cfg.seed_len], template,
                                 np.random.default_rng(3))
    calls, _ = tracer.self_times()
    called = {name for name, count in zip(tracer.names, calls) if count > 0}
    for _, _, name, counter in spans.TARGETS:
        if counter is not None and name in called:
            assert any(key.startswith(f"{name}.") for key in tracer.counters), name
    assert tracer.counters["nn.lstm_bwd.flop"] > 0
    assert tracer.counters["model.sample_notes.fed_back"] > 0


def traced_calls(run) -> tuple[dict[str, int], dict[str, float]]:
    """(calls per span name, counters) of run() under the benchmark's tracer."""
    tracer = load_spans().Tracer()
    with tracer.active():
        run()
    calls, _ = tracer.self_times()
    return dict(zip(tracer.names, calls.tolist())), tracer.counters


def test_training_and_generation_call_every_name_the_tracer_wraps():
    """The layer spans the benchmark reports stay on the paths they time: a
    rewrite that stops calling a wrapped name (say, an attention step folded
    into the combiner) reads zero calls there; only a traced benchmark run
    would show it otherwise."""
    n, seed_len, hidden = 30, 4, 6
    data = (np.random.default_rng(1).random((128, n)) < 0.1).astype(np.uint8)
    roll = PianoRoll(data=data, tempo=120.0, source_id="piece[0]")
    template = ssm(chroma(roll))
    plan = BatchPlan(assignments=[Assignment("piece", 0, n, n)], batches=[[0]])
    tcfg = sing.training.TrainConfig(p_feedback=0.5, epochs=1)
    for attention in (True, False):
        cfg = ModelConfig(hidden_size=hidden, seed_len=seed_len, attention_enabled=attention)
        model = Model(cfg, rng=np.random.default_rng(0))
        calls, counters = traced_calls(lambda: sing.training.train_epoch(
            model, plan, [roll], tcfg, np.random.default_rng(2)))
        # one backward step per LSTM step, its step tuple led by W_x and W_h
        assert calls["nn.lstm_bwd"] == n - 1
        assert counters["nn.lstm_bwd.flop"] == (n - 1) * 4 * 4 * hidden * (128 + hidden)
        assert calls["nn.dense_bwd"] == 1, attention  # the dense combiner or the plain head
        assert calls["model.attention"] == (n - seed_len if attention else 0)
        assert calls["nn.sigmoid"] > 0 and calls["nn.adam"] == 1
        assert (calls["nn.sparsemax"] > 0) == attention

        calls, _ = traced_calls(lambda: sing.model.generate(
            model, data.T[:seed_len], template, np.random.default_rng(3)))
        assert calls["model.attention"] == (n - seed_len if attention else 0)
        assert calls["nn.sigmoid"] > 0 and calls["nn.lstm_bwd"] == 0
        assert (calls["nn.sparsemax"] > 0) == attention


def test_evaluate_csv_scores_equal_the_generate_workload_recomputation(monkeypatch):
    """The generate workload fails every operation whose CSV score is not bit
    for bit standardized_mse(template, ssm(chroma(roll), role="generated"))."""
    cfg = ModelConfig(hidden_size=4, seed_len=3)
    model = Model(cfg, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    items = [
        PianoRoll(data=(rng.random((128, n)) < 0.05).astype(np.uint8), tempo=120.0,
                  source_id=f"piece{i}[0]")
        for i, n in enumerate((14, 20))
    ]
    generate, rolls = sing.evaluation.generate, []

    def recorded(*args, **kwargs):
        rolls.append(generate(*args, **kwargs))
        return rolls[-1]

    monkeypatch.setattr(sing.evaluation, "generate", recorded)
    run = sing.evaluation.evaluate(items, cfg, np.random.default_rng(2), model=model)
    rows = sing.evaluation.eval_run_to_csv(run).splitlines()[1:]
    scores = [float(row.split(",")[2]) for row in rows if not row.startswith(("mean,", "skipped,"))]
    per_piece = sing.evaluation.GENERATIONS_PER_PIECE
    assert len(scores) == len(rolls) == len(items) * per_piece
    for i, (score, roll) in enumerate(zip(scores, rolls)):
        template = ssm(chroma(items[i // per_piece]))
        assert score == standardized_mse(template, ssm(chroma(roll), role="generated")), i
