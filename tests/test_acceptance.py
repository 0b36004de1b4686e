"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The desk-scale directional experiment trains two
models for 30 epochs and is the slow part (about a minute on one core).
"""

import math
import time

import numpy as np
import pytest

from oracles import central_difference, project_simplex_bruteforce_fast, relative_error
from synthdata import make_corpus
from sing import nn
from sing.batching import (
    Assignment,
    assign,
    build_grid,
    make_batches,
    segment_lengths,
)
from sing.cli import main as cli_main
from sing.evaluation import evaluate
from sing.midi_io import (
    PianoRoll,
    parse_midi,
    proll_from_bytes,
    proll_to_bytes,
    save_proll,
    to_midi,
    to_piano_roll,
)
from sing.model import Model, ModelConfig, combine_backward, combine_forward, generate, sample_notes
from sing.structure import (
    SelfSimilarityMatrix,
    SynthSpec,
    chroma,
    ssm,
    ssm_from_bytes,
    ssm_to_bytes,
    standardized_mse,
    synth_ssm,
)
from sing.training import TrainConfig, forward_piece, piece_loss, train_epoch


def _report(name: str, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: PASS{tail}")


# ---------------------------------------------------------------------------
# criterion: sparsemax correctness


def test_sparsemax_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(1000)
    for trial in range(1000):
        size = int(rng.integers(1, 13))
        scale = float(rng.choice([0.1, 1.0, 10.0]))
        q = rng.normal(scale=scale, size=size)
        p = nn.sparsemax(q)
        oracle = project_simplex_bruteforce_fast(q)
        assert np.abs(p - oracle).max() <= 1e-9
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-9
        shift = float(rng.normal(scale=100.0))
        assert np.abs(nn.sparsemax(q + shift) - p).max() <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report("sparsemax-correctness", f"1000 vectors vs exhaustive oracle, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion: gradient integrity


def test_gradient_integrity():
    started = time.perf_counter()
    rng = np.random.default_rng(2000)

    # dense affine map
    W = rng.normal(size=(8, 8))
    b = rng.normal(size=8)
    x = rng.normal(size=8)
    upstream = rng.normal(size=8)
    dW, db, dX = nn.dense_backward(W, x[None], upstream[None])
    dx = dX[0]
    assert relative_error(central_difference(lambda w: upstream @ (w @ x + b), W), dW) < 1e-4
    assert relative_error(central_difference(lambda bb: upstream @ (W @ x + bb), b), db) < 1e-4
    assert relative_error(central_difference(lambda xx: upstream @ (W @ xx + b), x), dx) < 1e-4

    # LSTM through a length-5 sequence, loss = sum_t |h_t|^2
    H, D, T = 4, 3, 5
    W_x = rng.normal(size=(4 * H, D))
    W_h = rng.normal(size=(4 * H, H))
    b_l = rng.normal(size=4 * H)
    xs = rng.normal(size=(T, D))

    def lstm_loss(W_x, W_h, b_l):
        h = np.zeros(H)
        c = np.zeros(H)
        total = 0.0
        caches = []
        for t in range(T):
            h_prev, c_prev = h, c
            h, c, gates = nn.lstm_cell_forward(W_x, W_h, b_l, xs[t], h, c,
                                               out=(np.empty(H), np.empty(H), np.empty(4 * H)))
            k = nn.lstm_backward_factors(np.stack([h_prev, h]), np.stack([c_prev, c]),
                                         gates[None])[:, 0]
            caches.append(((W_x, W_h, k), xs[t], h_prev, h))
            total += float(h @ h)
        return total, caches

    _, caches = lstm_loss(W_x, W_h, b_l)
    grads = [np.zeros_like(W_x), np.zeros_like(W_h), np.zeros_like(b_l)]
    dh = np.zeros(H)
    dc = np.zeros(H)
    for cache, x_t, h_prev, h_t in reversed(caches):
        dh, dc, dpre = nn.lstm_cell_backward(cache, dh + 2 * h_t, dc, out=np.empty(4 * H))
        grads[0] += np.outer(dpre, x_t)
        grads[1] += np.outer(dpre, h_prev)
        grads[2] += dpre
    params = [W_x, W_h, b_l]
    for i in range(3):
        def loss_of(p, _i=i):
            trial = list(params)
            trial[_i] = p
            return lstm_loss(*trial)[0]

        assert relative_error(central_difference(loss_of, params[i].copy()), grads[i]) < 1e-4

    # combiner, both modes
    for mode in ("dense", "per_pitch"):
        pset = nn.ParamSet()
        if mode == "dense":
            pset.add("combine.W", rng.normal(size=(128, 256)) * 0.1)
            pset.add("combine.b", rng.normal(size=128) * 0.1)
        else:
            pset.add("combine.w_a", rng.normal(size=1))
            pset.add("combine.w_z", rng.normal(size=1))
            pset.add("combine.b", rng.normal(size=1))
        a = rng.random(128)
        z = rng.random(128)
        up = rng.normal(size=128)
        combine_backward(pset, mode, a[None], z[None], up[None])
        for name in pset.names():
            def loss_of(p, _name=name):
                saved = pset.values[_name]
                pset.values[_name] = p
                out = combine_forward(pset, mode, a, z)
                pset.values[_name] = saved
                return float(up @ out)

            fd = central_difference(loss_of, pset.values[name].copy())
            assert relative_error(fd, pset.grads[name]) < 1e-4, (mode, name)

    # BCE with logits
    x_l = rng.normal(scale=3.0, size=128)
    y_l = (rng.random(128) < 0.3).astype(float)
    _, grad = nn.bce_with_logits(x_l, y_l, nn.sigmoid(x_l))
    fd = central_difference(lambda xx: nn.bce_with_logits(xx, y_l, nn.sigmoid(xx))[0], x_l, h=1e-6)
    assert relative_error(fd, grad) < 1e-4

    # full piece loss, n=8, hidden 4, teacher forcing, every entry
    cfg = ModelConfig(hidden_size=4, seed_len=2)
    model = Model(cfg, rng=np.random.default_rng(2001))
    data = (np.random.default_rng(2002).random((128, 8)) < 0.08).astype(np.uint8)
    data[60, :] = 1
    target = PianoRoll(data=data, tempo=120.0)
    template = ssm(chroma(target))
    trace = forward_piece(model, target, template, 0.0, np.random.default_rng(0))
    piece_loss(model, trace, target, template, with_grad=True)
    analytic = {name: model.params.grads[name].copy() for name in model.params.names()}
    model.params.zero_grads()

    def total_loss() -> float:
        fresh = forward_piece(model, target, template, 0.0, np.random.default_rng(0))
        return piece_loss(model, fresh, target, template, with_grad=False).total

    h = 1e-5
    for name in model.params.names():
        flat = model.params.values[name].reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up_v = total_loss()
            flat[i] = original - h
            down_v = total_loss()
            flat[i] = original
            fd[i] = (up_v - down_v) / (2 * h)
        assert relative_error(fd, analytic[name].reshape(-1)) < 1e-3, name

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report("gradient-integrity", f"dense/lstm/combiner/bce/piece-loss, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion: batching bound


def test_batching_bound():
    # analytic: the worst assignment sits at a log midpoint of the
    # 255-700 grid, needing a pad of exp(h/2) - 1 with h the constant log step
    half_step = math.log(700 / 255) / (2 * 15)
    analytic_bound = math.exp(half_step) - 1.0
    assert analytic_bound <= 0.035  # the ~3.4% claim

    # default grid: sweep every in-span length and compare with the bound
    anchor_lengths = list(range(246, 256)) + [300, 400, 500, 600, 700]
    grid = build_grid(anchor_lengths, k=10, count=16, max_len=700)
    assert (grid[0], grid[-1]) == (255, 700)
    worst = 0.0
    for length in range(255, 701):
        target = assign(length, grid)
        assert target is not None
        worst = max(worst, abs(length - target) / length)
    assert worst <= analytic_bound + 1e-9

    # 10,000 right-skewed lengths spanning the reported corpus range
    rng = np.random.default_rng(3000)
    lengths = np.exp(rng.normal(math.log(420), 0.75, size=9998))
    lengths = np.clip(np.round(lengths), 103, 9156).astype(int).tolist()
    lengths += [103, 9156]
    assert min(lengths) == 103 and max(lengths) == 9156

    segments = []
    for n in lengths:
        segments.extend(segment_lengths(n, 700))
    data_grid = build_grid(segments, k=10, count=16, max_len=700)
    assignments = []
    excluded = 0
    for i, seg in enumerate(segments):
        target = assign(seg, data_grid)
        if target is None:
            excluded += 1
            continue
        assert abs(seg - target) / seg <= 0.04
        assignments.append(Assignment(f"p{i}", 0, seg, target))
    plan = make_batches(assignments, 100, rng)
    for batch in plan.batches:
        assert len(batch) <= 100
        assert len({plan.assignments[i].target_length for i in batch}) == 1
    seen = sorted(i for b in plan.batches for i in b)
    assert seen == list(range(len(assignments)))
    _report(
        "batching-bound",
        f"max in-span fraction {worst:.4f} <= {analytic_bound:.4f}; "
        f"{len(assignments)} assigned, {excluded} excluded",
    )


# ---------------------------------------------------------------------------
# criterion: structure replication (directional, desk scale)

DESK_SEED = 1234
DESK_HIDDEN = 32
DESK_LENGTH = 128
DESK_EPOCHS = 30
DESK_LR = 0.02
DESK_CAP = 5


@pytest.fixture(scope="module")
def desk_models():
    """25 synthetic pieces from 4 block archetypes; SING and ablated, 30 epochs."""
    rng = np.random.default_rng(DESK_SEED)
    train_items = make_corpus(25, DESK_LENGTH, rng, prefix="train")
    held_out = make_corpus(5, DESK_LENGTH, rng, prefix="test")
    assignments = [Assignment(f"train{i}", 0, DESK_LENGTH, DESK_LENGTH)
                   for i in range(len(train_items))]
    plan = make_batches(assignments, DESK_CAP, rng)
    models = {}
    started = time.perf_counter()
    for name, attention in (("sing", True), ("ablated", False)):
        cfg = ModelConfig(hidden_size=DESK_HIDDEN, seed_len=10, attention_enabled=attention)
        model = Model(cfg, rng=np.random.default_rng(DESK_SEED + 1))
        tcfg = TrainConfig(p_feedback=0.8, lr=DESK_LR, epochs=DESK_EPOCHS)
        run_rng = np.random.default_rng(DESK_SEED + 2)
        for epoch in range(DESK_EPOCHS):
            train_epoch(model, plan, train_items, tcfg, run_rng, epoch=epoch)
        models[name] = (cfg, model)
    return {
        "models": models,
        "held_out": held_out,
        "train_seconds": time.perf_counter() - started,
    }


def test_structure_replication(desk_models):
    started = time.perf_counter()
    held_out = desk_models["held_out"]
    means = {}
    for name in ("sing", "ablated"):
        cfg, model = desk_models["models"][name]
        run = evaluate(held_out, cfg, np.random.default_rng(DESK_SEED + 3), model=model)
        assert all(len(scores) == 3 for scores in run.mses)
        means[name] = run.mean
    random_cfg = ModelConfig(hidden_size=DESK_HIDDEN, seed_len=10)
    random_run = evaluate(held_out, random_cfg, np.random.default_rng(DESK_SEED + 4))

    total = desk_models["train_seconds"] + (time.perf_counter() - started)
    assert means["sing"] < means["ablated"], means
    assert abs(random_run.mean - 2.0) <= 0.3
    assert total < 1800.0
    _report(
        "structure-replication",
        f"sing {means['sing']:.3f} < ablated {means['ablated']:.3f}, "
        f"random {random_run.mean:.3f}, {total:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion: held-out loss (the paper's second claim, desk scale)


def held_out_bce_per_step(model, held_out, p_feedback, rng) -> float:
    """Summed BCE over every generated step of the held-out pieces, divided
    by their number, under scheduled sampling at p_feedback."""
    total, steps = 0.0, 0
    for item in held_out:
        template = ssm(chroma(item))
        trace = forward_piece(model, item, template, p_feedback, rng)
        total += piece_loss(model, trace, item, template, with_grad=False).bce
        steps += trace.n - trace.seed_len
    return total / steps


def test_held_out_loss(desk_models):
    """On pieces it never trained on, the attention model's BCE per step is
    below the ablated model's, teacher-forced and at p_feedback 0.8."""
    held_out = desk_models["held_out"]
    found = {}
    for p_feedback in (0.0, 0.8):
        for name in ("sing", "ablated"):
            _, model = desk_models["models"][name]
            rng = np.random.default_rng(DESK_SEED + 6)
            found[name, p_feedback] = held_out_bce_per_step(model, held_out, p_feedback, rng)
        assert found["sing", p_feedback] < found["ablated", p_feedback], found
    _report(
        "held-out-loss",
        ", ".join(f"p_feedback {p}: sing {found['sing', p]:.2f} < ablated {found['ablated', p]:.2f}"
                  for p in (0.0, 0.8)) + " BCE per step",
    )


# ---------------------------------------------------------------------------
# criterion: round trip and format fidelity


def test_round_trip_and_format_fidelity():
    rng = np.random.default_rng(4000)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        data = (rng.random((128, n)) < 0.06).astype(np.uint8)
        data[int(rng.integers(0, 128)), n - 1] = 1  # keep the final sample audible
        tempo = float(rng.uniform(40.0, 300.0))
        roll = PianoRoll(data=data, tempo=tempo)
        reparsed = to_piano_roll(parse_midi(to_midi(roll)).events, tempo)
        assert reparsed.n_samples == n
        assert np.array_equal(reparsed.data, roll.data)

    roll_blob = proll_to_bytes(PianoRoll(data=data, tempo=tempo))
    assert proll_to_bytes(proll_from_bytes(roll_blob)) == roll_blob

    values = rng.random((9, 9))
    ssm_blob = ssm_to_bytes(SelfSimilarityMatrix(values=(values + values.T) / 2))
    assert ssm_to_bytes(ssm_from_bytes(ssm_blob)) == ssm_blob

    model = Model(ModelConfig(hidden_size=6, seed_len=2), rng=rng)
    model.params.accumulate("lstm.b", np.ones(24))
    nn.adam_step(model.params, 0.01)
    ckpt_blob = nn.checkpoint_to_bytes(model.params)
    fresh = Model(ModelConfig(hidden_size=6, seed_len=2), rng=np.random.default_rng(1)).params
    nn.checkpoint_from_bytes(ckpt_blob, fresh)
    assert nn.checkpoint_to_bytes(fresh) == ckpt_blob

    _report("round-trip-format-fidelity", "200 MIDI round trips; 3 containers bit-stable")


# ---------------------------------------------------------------------------
# criterion: SSM invariants


def test_ssm_invariants():
    rng = np.random.default_rng(5000)
    for _ in range(100):
        n = int(rng.integers(2, 48))
        density = float(rng.uniform(0.01, 0.2))
        data = (rng.random((128, n)) < density).astype(np.uint8)
        roll = PianoRoll(data=data, tempo=120.0)
        matrix = ssm(chroma(roll))
        values = matrix.values
        assert np.abs(values - values.T).max() <= 1e-9
        assert values.min() >= 0.0 and values.max() <= 1.0
        active = data.sum(axis=0) > 0
        assert np.all(np.diag(values)[active] == 1.0)

    a_values = rng.random((20, 20))
    b_values = rng.random((20, 20))
    a = SelfSimilarityMatrix(values=(a_values + a_values.T) / 2)
    b = SelfSimilarityMatrix(values=(b_values + b_values.T) / 2)
    assert standardized_mse(a, a) == pytest.approx(0.0, abs=1e-12)
    assert standardized_mse(a, b) == pytest.approx(standardized_mse(b, a), abs=1e-12)
    _report("ssm-invariants", "100 rolls: symmetric, [0,1], unit diagonal")


# ---------------------------------------------------------------------------
# criterion: sampler constraints


def test_sampler_constraints():
    cfg = ModelConfig()
    rng = np.random.default_rng(6000)
    logit_rng = np.random.default_rng(6001)
    allowed = np.arange(cfg.pitch_lo, cfg.pitch_hi + 1)
    for _ in range(100_000):
        d = logit_rng.normal(scale=3.0, size=128)
        sample = sample_notes(d, cfg, rng)
        active = np.flatnonzero(sample)
        assert 1 <= len(active) <= 3
        assert active.min() >= 20 and active.max() <= 107
        # independent top-50 reconstruction: highest sigmoid(d), ties to
        # the lower pitch index
        probs = 1.0 / (1.0 + np.exp(-d[allowed]))
        order = sorted(range(len(allowed)), key=lambda i: (-probs[i], allowed[i]))
        top50 = {int(allowed[i]) for i in order[:50]}
        assert set(active.tolist()) <= top50
    _report("sampler-constraints", "100000 steps: 1-3 notes, in range, inside top-50")


# ---------------------------------------------------------------------------
# criterion: end-to-end determinism


def test_end_to_end_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = np.random.default_rng(7000)
    for i in range(4):
        root = int(rng.integers(40, 70))
        data = np.zeros((128, 24), dtype=np.uint8)
        for s in range(24):
            data[root, s] = 1
            data[root + 4 + (s % 2), s] = 1
        save_proll(PianoRoll(data=data, tempo=120.0), corpus / f"piece{i}.proll")
    plan = tmp_path / "plan.txt"
    assert cli_main(["batch-plan", "--in", str(corpus), "--out", str(plan),
                     "--grid-k", "2", "--grid-count", "4", "--max-len", "24",
                     "--batch-cap", "2", "--seed", "9"]) == 0
    spec = tmp_path / "spec.txt"
    spec.write_text("length=20\nbackground=0.1\nblock=0,10,0.9\n")
    template = tmp_path / "template.ssm"
    assert cli_main(["synth-ssm", "--in", str(spec), "--out", str(template)]) == 0

    outputs = {}
    for tag in ("a", "b"):
        ckpt_dir = tmp_path / f"ckpt_{tag}"
        assert cli_main(["train", "--in", str(corpus), "--plan", str(plan),
                         "--out", str(ckpt_dir), "--epochs", "2", "--hidden", "6",
                         "--seed-len", "4", "--lr", "0.01",
                         "--seed", "9"]) == 0
        gen = tmp_path / f"gen_{tag}"
        assert cli_main(["generate", "--checkpoint", str(ckpt_dir / "best.ckpt"),
                         "--in", str(corpus / "piece0.proll"),
                         "--template", str(template),
                         "--out", str(gen), "--seed", "9"]) == 0
        outputs[tag] = {
            "ckpts": [p.read_bytes() for p in sorted(ckpt_dir.glob("*.ckpt"))],
            "roll": gen.with_suffix(".proll").read_bytes(),
            "midi": gen.with_suffix(".mid").read_bytes(),
        }
    assert outputs["a"]["ckpts"] == outputs["b"]["ckpts"]
    assert outputs["a"]["roll"] == outputs["b"]["roll"]
    assert outputs["a"]["midi"] == outputs["b"]["midi"]
    _report("end-to-end-determinism", "train+generate twice: byte-identical")


# ---------------------------------------------------------------------------
# criterion: synthetic-SSM steering


def test_synthetic_ssm_steering(desk_models):
    template = synth_ssm(
        SynthSpec(length=DESK_LENGTH, blocks=[(0, 64, 0.9), (64, 128, 0.9)], background=0.05)
    )
    seed_samples = np.zeros((10, 128), dtype=np.uint8)
    for s in range(10):
        seed_samples[s, [48, 52, 55]] = 1
    means = {}
    for name in ("sing", "ablated"):
        cfg, model = desk_models["models"][name]
        gen_rng = np.random.default_rng(DESK_SEED + 5)
        scores = [
            standardized_mse(
                template,
                ssm(chroma(generate(model, seed_samples, template, gen_rng)), role="generated"),
            )
            for _ in range(10)
        ]
        means[name] = float(np.mean(scores))
    assert means["sing"] < means["ablated"], means
    _report(
        "synthetic-ssm-steering",
        f"sing {means['sing']:.3f} < ablated {means['ablated']:.3f} over 10 generations",
    )
