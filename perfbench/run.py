"""Benchmark of the sing pipeline on seeded synthetic inputs.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Workloads (see workloads.py): ``train``, ``generate``, ``ingest``.
The load is closed-loop with one client: one in-process ``sing.cli.main``
call at a time, in this single process, with every BLAS/OpenMP pool pinned
to one thread.

With ``--trace 0`` the run repeats rounds for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and reports per-layer metrics (per traced round) and the tracing
overhead. The last stdout line is the JSON result; the lines before it
record the environment and the workload's metrics under their own names.
Results and spans are also written under ``.perfbench/results/``.
"""

import os

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PIN_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 9

# name -> unit. Per workload, the headline path, its operation and the path
# that bypasses the headline layer are:
#   train:    `sing train`;              one piece trained;  training.validate
#   generate: `evaluate --generator sing`; one generation;   the ablated generator
#   ingest:   preprocess + batch-plan;   one file ingested;  midi_io.to_midi
END_TO_END = {
    "samples_per_s": "samples/s",  # roll samples through the headline path
    "ops_per_s": "1/s",  # operations per second (generate: all three generators)
    "op_ms_p50": "ms",  # latency of one headline operation
    "op_ms_p75": "ms",
    "bypass_samples_per_s": "samples/s",
    "setup_s": "s",  # median of SETUP_REPEATS input set-ups
    "peak_rss_mb": "MB",
}


def named_unit(name: str) -> str:
    """Unit of a figure printed under the workload's own name."""
    if name.endswith("samples_per_s"):
        return "samples/s"
    if name.endswith("_per_s"):
        return "1/s"
    if "_ms_p" in name:
        return "ms"
    return {"batch_plan_s": "s", "op_ms_count": "count", "host_speed_factor": "ratio"}[name]


def per_layer_specs():
    """(name, unit, better) for every per-layer metric, in report order."""
    from spans import SPAN_NAMES

    specs = []
    for span in SPAN_NAMES:
        specs += [(f"{span}.calls", "count", "lower"), (f"{span}.s", "s", "lower")]
    specs += [
        ("nn.lstm_fwd.gflop", "GFLOP", "lower"),
        ("nn.lstm_bwd.gflop", "GFLOP", "lower"),
        ("nn.ckpt_save.bytes", "bytes", "lower"),
        ("structure.ssm.bytes", "bytes", "lower"),
        ("midi_io.parse.bytes", "bytes", "lower"),
        ("midi_io.to_midi.bytes", "bytes", "lower"),
        ("nn.sparsemax.support_frac", "ratio", "lower"),
        ("training.fed_back_frac", "ratio", "lower"),
        ("batching.kept_frac", "ratio", "higher"),
        ("batching.pieces_per_batch", "pieces", "higher"),
        ("evaluation.std_mse.sing", "1", "lower"),
        ("evaluation.std_mse.ablated", "1", "lower"),
        ("evaluation.std_mse.random", "1", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return specs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_values(tracer, traced_rounds, untraced_rounds) -> dict[str, float]:
    """Per traced round: calls and self seconds per span, computed FLOPs and
    bytes, ratios measured at the same boundaries, readouts."""
    rounds = len(traced_rounds)
    calls, self_s = tracer.self_times()
    values = {}
    for i, name in enumerate(tracer.names):
        values[f"{name}.calls"] = calls[i] / rounds
        values[f"{name}.s"] = self_s[i] / rounds
    c = tracer.counters.get
    values["nn.lstm_fwd.gflop"] = c("nn.lstm_fwd.flop", 0) / 1e9 / rounds
    values["nn.lstm_bwd.gflop"] = c("nn.lstm_bwd.flop", 0) / 1e9 / rounds
    for span in ("nn.ckpt_save", "structure.ssm", "midi_io.parse", "midi_io.to_midi"):
        values[f"{span}.bytes"] = c(f"{span}.bytes", 0) / rounds
    values["nn.sparsemax.support_frac"] = _ratio(
        c("nn.sparsemax.support", 0), c("nn.sparsemax.history", 0)
    )
    values["training.fed_back_frac"] = _ratio(
        c("model.sample_notes.fed_back", 0), c("training.forward_piece.draws", 0)
    )
    values["batching.kept_frac"] = _ratio(
        c("batching.prepare.kept", 0), c("batching.prepare.segments", 0)
    )
    values["batching.pieces_per_batch"] = _ratio(
        c("batching.prepare.batched", 0), c("batching.prepare.batches", 0)
    )
    for generator in ("sing", "ablated", "random"):
        key = f"evaluation.std_mse.{generator}"
        values[key] = statistics.median(
            [r.readouts[key] for r in traced_rounds if key in r.readouts] or [0.0]
        )
    traced_wall = statistics.median(r.wall_s for r in traced_rounds)
    untraced_wall = statistics.median(r.wall_s for r in untraced_rounds)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return values


def end_to_end_values(rounds, setup_times, op_name):
    """Medians over rounds of each rate; latency quantiles over every
    operation of every round. Returns (metrics, raw wall-clock figures under
    the workload's own names)."""
    import numpy as np

    values = {
        key: statistics.median(r.rates[key] for r in rounds) for key in rounds[0].rates
    }
    op_ms = [ms * r.op_factor for r in rounds for ms in r.op_ms]
    values["op_ms_p50"], values["op_ms_p75"] = np.percentile(op_ms, [50, 75]).tolist()
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    named = {key: statistics.median(r.named[key] for r in rounds) for key in rounds[0].named}
    raw_ms = [ms for r in rounds for ms in r.op_ms]
    named["op_ms_count"] = len(raw_ms)
    named[f"{op_name}_p50"], named[f"{op_name}_p75"] = np.percentile(raw_ms, [50, 75]).tolist()
    named["host_speed_factor"] = statistics.median(f for r in rounds for f in r.factors)
    return values, named


# ---------------------------------------------------------------------------
# environment record


def _blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded; None
    when numpy does not bundle OpenBLAS."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "pins": {var: os.environ.get(var) for var in PIN_VARS},
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["train", "generate", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import sing
    except ImportError as exc:
        print(f"error: cannot import sing from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(sing.__file__).resolve().is_relative_to(SRC):
        print(f"error: sing imported from {sing.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    if env["blas_threads"] not in (None, 1) or any(v != "1" for v in env["pins"].values()):
        print(f"error: BLAS is not pinned to one thread: {env}", file=sys.stderr)
        return 3

    import hostspeed
    from spans import Tracer
    from workloads import WORKLOADS

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        setup_times, setup_raw = [], []
        for _ in range(SETUP_REPEATS):
            _, wall, factor = hostspeed.timed(workload.setup)
            setup_raw.append(wall)
            setup_times.append(wall * factor)

        tracer = Tracer() if args.trace else None
        untraced, traced, durations = [], [], []
        started = time.perf_counter()
        while True:
            trace_this = args.trace and len(untraced) > len(traced)
            round_started = time.perf_counter()
            result = workload.round(tracer if trace_this else None)
            durations.append(time.perf_counter() - round_started)
            (traced if trace_this else untraced).append(result)
            elapsed = time.perf_counter() - started
            enough = len(traced) >= 1 if args.trace else True
            if enough and elapsed + statistics.median(durations) / 2 >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = untraced + traced
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    e2e, named = end_to_end_values(untraced, setup_times, workload.op_name)
    if args.trace:
        layer = per_layer_values(tracer, traced, untraced)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in per_layer_specs()}
        tracer.save(results / f"{args.workload}-seed{args.seed}-spans.npz")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": {
            "untraced": [vars(r) for r in untraced],
            "traced": [vars(r) for r in traced],
        },
        "env": env,
        "setup_s": setup_times,
        "setup_raw_s": setup_raw,
        "named": named,
        "end_to_end": e2e,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    print(f"rounds untraced={len(untraced)} traced={len(traced)}")
    for name, value in named.items():
        print(f"{args.workload}.{name} {value:.6g} {named_unit(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
