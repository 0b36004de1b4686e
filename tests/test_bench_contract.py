"""The benchmark's tracer finds every function it wraps.

perfbench/spans.py replaces functions by module attribute name; a rename in
sing would otherwise surface only when a traced benchmark run fails.
"""

import importlib.util
from pathlib import Path

import sing.cli

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
