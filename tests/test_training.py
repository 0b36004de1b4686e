import math
import tracemalloc

import numpy as np
import pytest

import sing.evaluation
import sing.training
from oracles import piece_gradients_per_step, relative_error
from sing import nn
from sing.batching import (
    Assignment,
    BatchPlan,
    build_grid,
    make_batches,
    plan_from_text,
    plan_to_text,
    segment_lengths,
)
from sing.evaluation import GENERATIONS_PER_PIECE, evaluate
from sing.midi_io import PianoRoll
from sing.model import Model, ModelConfig, PieceTrace, generate
from sing.structure import ATTENTION_BLOCK_ROWS, SelfSimilarityMatrix, chroma, ssm
from sing.training import (
    EpochReport,
    TrainConfig,
    TrainingError,
    forward_piece,
    items_from_plan,
    piece_loss,
    prepare_corpus,
    scheduled_step,
    select_best,
    train,
    train_epoch,
    validate,
)


def chord_roll(n: int, pitches: list[int], source_id: str = "toy") -> PianoRoll:
    data = np.zeros((128, n), dtype=np.uint8)
    for s in range(n):
        data[pitches[s % len(pitches)], s] = 1
        data[pitches[(s + 1) % len(pitches)], s] = 1
    return PianoRoll(data=data, tempo=120.0, source_id=source_id)


def toy_items(n_pieces: int, n: int, rng: np.random.Generator) -> list[PianoRoll]:
    """Whole pieces as items, labelled `toy<i>[0]` as `items_from_plan` labels them."""
    items = []
    for i in range(n_pieces):
        root = int(rng.integers(40, 70))
        items.append(chord_roll(n, [root, root + 4, root + 7], source_id=f"toy{i}[0]"))
    return items


def whole_piece_assignments(items: list[PianoRoll]) -> list[Assignment]:
    return [Assignment(item.source_id.removesuffix("[0]"), 0, item.n_samples, item.n_samples)
            for item in items]


def single_batch_plan(items: list[PianoRoll]) -> BatchPlan:
    return BatchPlan(assignments=whole_piece_assignments(items),
                     batches=[[i] for i in range(len(items))])


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [0.0, -0.001, float("inf"), float("nan")])
    def test_lr_must_be_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="positive"):
            TrainConfig(lr=lr)


class TestScheduledStep:
    def _setup(self):
        cfg = ModelConfig(hidden_size=4, seed_len=2)
        d = np.zeros(128)
        target = np.zeros(128)  # a sampled row always has a note, so fed-back rows are nonzero
        return cfg, d, target

    def test_pure_teacher_forcing(self):
        cfg, d, target = self._setup()
        rng = np.random.default_rng(0)
        for _ in range(50):
            sample = scheduled_step(d, target, cfg, rng, p_feedback=0.0)
            assert np.array_equal(sample, target)

    def test_fully_autoregressive(self):
        cfg, d, target = self._setup()
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert scheduled_step(d, target, cfg, rng, p_feedback=1.0).any()

    def test_feedback_rate_within_three_sigma(self):
        cfg, d, target = self._setup()
        rng = np.random.default_rng(2)
        n = 10_000
        fed_count = sum(
            scheduled_step(d, target, cfg, rng, p_feedback=0.8).any() for _ in range(n)
        )
        sigma = math.sqrt(n * 0.8 * 0.2)
        assert abs(fed_count - n * 0.8) <= 3 * sigma


class TestPieceLoss:
    def test_zero_model_on_silent_target_bce_closed_form(self):
        cfg = ModelConfig(hidden_size=4, seed_len=2)
        model = Model(cfg, rng=np.random.default_rng(3))
        for name in model.params.values:
            model.params.values[name][...] = 0.0
        n = 10
        target = PianoRoll(data=np.zeros((128, n), dtype=np.uint8), tempo=120.0)
        template = ssm(chroma(target))
        trace = forward_piece(model, target, template, 0.0, np.random.default_rng(0))
        loss = piece_loss(model, trace, target, template, with_grad=False)
        assert loss.bce == pytest.approx((n - 2) * 128 * math.log(2), rel=1e-12)

    def test_structural_term_zero_when_probabilities_match_target(self):
        cfg = ModelConfig(hidden_size=4, seed_len=2)
        model = Model(cfg, rng=np.random.default_rng(4))
        target = chord_roll(8, [60, 64, 67])
        template = ssm(chroma(target))
        samples = target.data.T.astype(np.float64)
        D = np.where(samples[2:] > 0, 60.0, -60.0)
        trace = PieceTrace(n=8, seed_len=2, X=None, H=None, C=None, G=None, A=None, D=D)
        loss = piece_loss(model, trace, target, template, with_grad=False)
        assert loss.structural <= 1e-12
        assert loss.bce <= 1e-12

    def test_structural_term_not_below_zero_when_probabilities_match_target(self):
        """The factored sum of squares can round below zero on a perfect match."""
        cfg = ModelConfig(hidden_size=4, seed_len=2)
        model = Model(cfg, rng=np.random.default_rng(4))
        rng = np.random.default_rng(12)
        for n in range(8, 40):
            data = (rng.random((128, n)) < 0.05).astype(np.uint8)
            data[rng.integers(0, 128, n), np.arange(n)] = 1  # no silent sample
            target = PianoRoll(data=data, tempo=120.0)
            samples = target.data.T.astype(np.float64)
            D = np.where(samples[2:] > 0, 60.0, -60.0)
            trace = PieceTrace(n=n, seed_len=2, X=None, H=None, C=None, G=None, A=None, D=D)
            loss = piece_loss(model, trace, target, ssm(chroma(target)), with_grad=False)
            assert 0.0 <= loss.structural <= 1e-12, n

    def test_structural_term_invariant_to_octave_transposition(self):
        cfg = ModelConfig(hidden_size=4, seed_len=2)
        model = Model(cfg, rng=np.random.default_rng(5))
        target = chord_roll(8, [60, 64, 67])
        template = ssm(chroma(target))
        rng = np.random.default_rng(6)

        probs = rng.random((6, 128)) * 0.5 + 0.1
        shifted = probs.copy()
        shifted[:, [60, 72]] = shifted[:, [72, 60]]  # same pitch class

        def structural_of(prob_rows):
            D = np.log(prob_rows / (1 - prob_rows))
            trace = PieceTrace(n=8, seed_len=2, X=None, H=None, C=None, G=None, A=None, D=D)
            return piece_loss(model, trace, target, template, with_grad=False).structural

        assert structural_of(probs) == pytest.approx(structural_of(shifted), abs=1e-12)

    def test_length_mismatch_rejected(self):
        cfg = ModelConfig(hidden_size=4, seed_len=2)
        model = Model(cfg, rng=np.random.default_rng(7))
        target = chord_roll(8, [60])
        template = ssm(chroma(target))
        trace = forward_piece(model, target, template, 0.0, np.random.default_rng(0))
        other = chord_roll(9, [60])
        with pytest.raises(ValueError):
            piece_loss(model, trace, other, ssm(chroma(other)))


def fd_check_piece_loss(model, target, template, stride_big: int, tol: float) -> None:
    """Central-difference check of the full combined loss gradient."""
    trace = forward_piece(model, target, template, 0.0, np.random.default_rng(0))
    piece_loss(model, trace, target, template, with_grad=True)
    analytic = {name: model.params.grads[name].copy() for name in model.params.values}
    model.params.zero_grads()

    def loss_now() -> float:
        fresh = forward_piece(model, target, template, 0.0, np.random.default_rng(0))
        return piece_loss(model, fresh, target, template, with_grad=False).total

    h = 1e-5
    for name in model.params.values:
        value = model.params.values[name]
        flat = value.reshape(-1)
        stride = stride_big if flat.size > 512 else 1
        idx = np.arange(0, flat.size, stride)
        fd = np.zeros(idx.size)
        for j, i in enumerate(idx):
            original = flat[i]
            flat[i] = original + h
            up = loss_now()
            flat[i] = original - h
            down = loss_now()
            flat[i] = original
            fd[j] = (up - down) / (2 * h)
        assert relative_error(fd, analytic[name].reshape(-1)[idx]) < tol, name


class TestPieceLossGradient:
    def test_matches_central_differences_tiny_instance(self):
        # n=8, hidden 4, teacher forcing; big tensors subsampled here, the
        # acceptance suite sweeps every entry
        cfg = ModelConfig(hidden_size=4, seed_len=2)
        model = Model(cfg, rng=np.random.default_rng(8))
        rng = np.random.default_rng(9)
        data = (rng.random((128, 8)) < 0.08).astype(np.uint8)
        data[60, :] = 1
        target = PianoRoll(data=data, tempo=120.0)
        template = ssm(chroma(target))
        fd_check_piece_loss(model, target, template, stride_big=16, tol=1e-3)

    def test_matches_central_differences_ablated(self):
        cfg = ModelConfig(hidden_size=4, seed_len=2, attention_enabled=False)
        model = Model(cfg, rng=np.random.default_rng(10))
        target = chord_roll(8, [60, 64, 67])
        template = ssm(chroma(target))
        fd_check_piece_loss(model, target, template, stride_big=16, tol=1e-3)


class TestPieceGradientMatchesPerStepReference:
    """The per-piece matrix products equal a step-by-step sum of outer products."""

    @pytest.mark.parametrize("head, hidden", [("dense", 8), ("per_pitch", 128), ("ablated", 8)])
    def test_under_scheduled_sampling(self, head, hidden):
        cfg = ModelConfig(
            hidden_size=hidden,
            seed_len=4,
            combiner_mode="per_pitch" if head == "per_pitch" else "dense",
            attention_enabled=head != "ablated",
        )
        model = Model(cfg, rng=np.random.default_rng(20))
        data = (np.random.default_rng(21).random((128, 40)) < 0.05).astype(np.uint8)
        data[60, ::2] = 1
        target = PianoRoll(data=data, tempo=120.0)
        template = ssm(chroma(target))
        samples = target.data.T.astype(np.float64)

        trace = forward_piece(model, target, template, 0.8, np.random.default_rng(22))
        assert not np.array_equal(trace.X[cfg.seed_len :], samples[cfg.seed_len : -1])
        piece_loss(model, trace, target, template, with_grad=True)
        logits, expected = piece_gradients_per_step(
            model.params.values, head, cfg.seed_len, trace.X, trace.A, samples, template.values
        )
        assert relative_error(logits, trace.D) <= 1e-12
        assert sorted(expected) == sorted(model.params.values)
        for name, grad in expected.items():
            assert relative_error(model.params.grads[name], grad) <= 1e-12, name


class TestUnrecordedPass:
    """A pass that no backward pass follows keeps no states: the same inputs,
    logits, loss and generator state as a recording pass, bit for bit."""

    @pytest.mark.parametrize("generated", [63, 64, 65, 129])  # around the 64-row blocks
    @pytest.mark.parametrize("head, hidden", [("dense", 8), ("per_pitch", 128), ("ablated", 8)])
    def test_validation_loss_equals_the_recording_pass(self, head, hidden, generated):
        cfg = ModelConfig(hidden_size=hidden, seed_len=4,
                          combiner_mode="per_pitch" if head == "per_pitch" else "dense",
                          attention_enabled=head != "ablated")
        model = Model(cfg, rng=np.random.default_rng(23))
        n = cfg.seed_len + generated
        data = (np.random.default_rng(24).random((128, n)) < 0.05).astype(np.uint8)
        data[60, ::3] = 1
        target = PianoRoll(data=data, tempo=120.0)
        template = ssm(chroma(target))
        runs = []
        for with_grad in (True, False):
            rng = np.random.default_rng(25)
            trace = forward_piece(model, target, template, 0.5, rng, with_grad=with_grad)
            loss = piece_loss(model, trace, target, template, with_grad=False)
            runs.append((trace, loss, rng.bit_generator.state))
        (recorded, loss, state), (unrecorded, unrecorded_loss, unrecorded_state) = runs
        assert recorded.H.shape == (n, hidden) and (recorded.A is None) == (head == "ablated")
        assert unrecorded.H is unrecorded.C is unrecorded.G is unrecorded.A is None
        assert np.array_equal(unrecorded.X, recorded.X)
        assert np.array_equal(unrecorded.D, recorded.D)
        assert unrecorded_loss == loss
        assert unrecorded_state == state

    def test_backward_pass_over_an_unrecorded_trace_raises(self):
        model = Model(ModelConfig(hidden_size=4, seed_len=2), rng=np.random.default_rng(26))
        target = chord_roll(12, [60, 64, 67])
        template = ssm(chroma(target))
        trace = forward_piece(model, target, template, 0.8, np.random.default_rng(27),
                              with_grad=False)
        with pytest.raises(ValueError, match="no states"):
            piece_loss(model, trace, target, template, with_grad=True)
        assert all(not grad.any() for grad in model.params.grads.values())


def test_generation_memory_stays_below_the_state_record():
    """generate keeps no per-step states, gates or attention vectors: its peak
    stays below the (6 hidden + 2 * 128) doubles a step would record."""
    n, hidden = 3000, 128
    cfg = ModelConfig(hidden_size=hidden)
    model = Model(cfg, rng=np.random.default_rng(47))
    seed = (np.random.default_rng(48).random((cfg.seed_len, 128)) < 0.03).astype(np.uint8)
    template = SelfSimilarityMatrix(values=np.full((n, n), 0.5))
    tracemalloc.start()
    try:
        generate(model, seed, template, np.random.default_rng(49))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (6 * hidden + 2 * 128) * n * 8


@pytest.mark.parametrize("run", ["forward_piece", "generate"])
def test_forward_pass_memory_stays_below_half_the_weights_matrix(run):
    """Attention weights are projected a block at a time, never as one matrix."""
    n = 3000
    cfg = ModelConfig(hidden_size=8)
    model = Model(cfg, rng=np.random.default_rng(40))
    data = (np.random.default_rng(41).random((128, n)) < 0.03).astype(np.uint8)
    target = PianoRoll(data=data, tempo=120.0)
    template = SelfSimilarityMatrix(values=np.full((n, n), 0.5))
    full_weights = (n - cfg.seed_len) * (n - 1) * 8  # bytes of the whole float64 matrix
    rng = np.random.default_rng(42)
    tracemalloc.start()
    try:
        if run == "forward_piece":
            forward_piece(model, target, template, 0.8, rng)
        else:
            generate(model, data.T[: cfg.seed_len], template, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_weights / 2


@pytest.mark.parametrize("n", [1000, 3000])
def test_template_thresholds_memory_stays_at_a_few_blocks(n):
    """Reading every weights block sorts each block's thresholds one 64-row
    block at a time: the peak is a few 64 x n temporaries, not an n x n matrix."""
    template = SelfSimilarityMatrix(values=np.random.default_rng(46).random((n, n)))
    tracemalloc.start()
    try:
        for start in range(1, n, ATTENTION_BLOCK_ROWS):
            template.weights(start, min(start + ATTENTION_BLOCK_ROWS, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * ATTENTION_BLOCK_ROWS * n * 8


def test_a_pass_sorts_once_per_weights_block(monkeypatch):
    """Each training or validation pass builds its piece's SSM anew, and
    reads every weights block once: each generated row is sorted once."""
    cfg = ModelConfig(hidden_size=4, seed_len=4)
    model = Model(cfg, rng=np.random.default_rng(105))
    items = [chord_roll(n, [50, 53, 57], source_id=f"p{n}[0]") for n in (12, 70, 140)]
    rows, threshold = [], nn.sparsemax_threshold

    def counted(q):
        rows.append(len(q))
        return threshold(q)

    monkeypatch.setattr(nn, "sparsemax_threshold", counted)
    train_epoch(model, single_batch_plan(items), items, TrainConfig(), np.random.default_rng(106))
    generated = [item.n_samples - cfg.seed_len for item in items]
    assert len(rows) == sum(-(-g // ATTENTION_BLOCK_ROWS) for g in generated)  # 1 + 2 + 3
    assert sum(rows) == sum(generated)
    validate(model, items, TrainConfig(), np.random.default_rng(107))
    assert sum(rows) == 2 * sum(generated)


@pytest.mark.parametrize("with_grad", [True, False])
def test_piece_loss_memory_stays_below_one_ssm_matrix(with_grad):
    """The structural term reads the template and forms no n x n matrix beside it."""
    n = 3000
    cfg = ModelConfig(hidden_size=8)
    model = Model(cfg, rng=np.random.default_rng(43))
    data = (np.random.default_rng(44).random((128, n)) < 0.03).astype(np.uint8)
    target = PianoRoll(data=data, tempo=120.0)
    template = ssm(chroma(target))
    trace = forward_piece(model, target, template, 0.8, np.random.default_rng(45))
    tracemalloc.start()
    try:
        piece_loss(model, trace, target, template, with_grad=with_grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


class TestTrainEpoch:
    def test_single_piece_single_optimizer_step(self):
        cfg = ModelConfig(hidden_size=4, seed_len=2)
        model = Model(cfg, rng=np.random.default_rng(12))
        items = toy_items(1, 12, np.random.default_rng(13))
        plan = single_batch_plan(items)
        train_epoch(model, plan, items, TrainConfig(), np.random.default_rng(0))
        assert model.params.step == 1

    def test_one_adam_step_per_batch(self):
        cfg = ModelConfig(hidden_size=4, seed_len=2)
        model = Model(cfg, rng=np.random.default_rng(14))
        items = toy_items(6, 12, np.random.default_rng(15))
        plan = make_batches(whole_piece_assignments(items), batch_cap=2,
                            rng=np.random.default_rng(16))
        train_epoch(model, plan, items, TrainConfig(), np.random.default_rng(0))
        assert model.params.step == len(plan.batches) == 3

    def test_loss_decreases_on_toy_corpus(self):
        cfg = ModelConfig(hidden_size=8, seed_len=4)
        model = Model(cfg, rng=np.random.default_rng(17))
        items = toy_items(5, 24, np.random.default_rng(18))
        plan = single_batch_plan(items)
        tcfg = TrainConfig(lr=0.01, epochs=3)
        rng = np.random.default_rng(19)
        losses = [train_epoch(model, plan, items, tcfg, rng, epoch=e).train_loss
                  for e in range(3)]
        assert losses[1] < losses[0]
        assert losses[2] < losses[1]

    def test_nonfinite_loss_names_piece(self):
        cfg = ModelConfig(hidden_size=4, seed_len=2)
        model = Model(cfg, rng=np.random.default_rng(20))
        model.params.values["lstm.W_x"][...] = np.inf
        items = toy_items(1, 10, np.random.default_rng(21))
        plan = single_batch_plan(items)
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingError, match="toy0"):
                train_epoch(model, plan, items, TrainConfig(), np.random.default_rng(0))


class TestSelectBest:
    def _report(self, epoch, val):
        return EpochReport(epoch=epoch, train_loss=1.0, val_loss=val, seconds=0.0)

    def test_monotone_decrease_picks_last(self):
        reports = [self._report(i, 10.0 - i) for i in range(5)]
        assert select_best(reports) == 4

    def test_tie_picks_earlier(self):
        reports = [self._report(0, 3.0), self._report(1, 1.0), self._report(2, 2.0),
                   self._report(3, 1.0)]
        assert select_best(reports) == 1


class TestTrainDeterminism:
    def _run(self, tmp_path, tag):
        cfg = ModelConfig(hidden_size=4, seed_len=2)
        model = Model(cfg, rng=np.random.default_rng(100))
        items = toy_items(3, 12, np.random.default_rng(101))
        plan = single_batch_plan(items)
        tcfg = TrainConfig(lr=0.005, epochs=2)
        out = tmp_path / tag
        train(model, plan, items, items, tcfg, out, np.random.default_rng(100))
        return [(p.name, p.read_bytes()) for p in sorted(out.glob("*.ckpt"))]

    def test_two_runs_byte_identical_checkpoints(self, tmp_path):
        assert self._run(tmp_path, "a") == self._run(tmp_path, "b")


class TestBestCheckpoint:
    """best.ckpt follows the best epoch so far, so an interrupted run keeps it."""

    def _train(self, out, monkeypatch, val_losses, stop_at=None):
        """train whose validation losses are val_losses, interrupted in epoch stop_at."""
        losses = iter(val_losses)

        def scripted_validate(model, items, tcfg, rng, epoch=0):
            if epoch == stop_at:
                raise KeyboardInterrupt
            return next(losses)

        monkeypatch.setattr(sing.training, "validate", scripted_validate)
        cfg = ModelConfig(hidden_size=4, seed_len=2)
        items = toy_items(2, 12, np.random.default_rng(105))
        train(Model(cfg, rng=np.random.default_rng(106)), single_batch_plan(items), items,
              items, TrainConfig(epochs=len(val_losses)), out, np.random.default_rng(107))

    def test_ties_keep_the_earliest_epoch(self, tmp_path, monkeypatch):
        self._train(tmp_path, monkeypatch, [3.0, 1.0, 2.0, 1.0])
        assert (tmp_path / "best.ckpt").read_bytes() == (tmp_path / "epoch_1.ckpt").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "best.ckpt", "epoch_0.ckpt", "epoch_1.ckpt", "epoch_2.ckpt", "epoch_3.ckpt",
            "model_config.txt", "report.csv"]

    def test_interrupted_run_keeps_the_best_epoch_so_far(self, tmp_path, monkeypatch):
        with pytest.raises(KeyboardInterrupt):
            self._train(tmp_path, monkeypatch, [3.0, 1.0, 2.0, 0.5], stop_at=3)
        assert (tmp_path / "best.ckpt").read_bytes() == (tmp_path / "epoch_1.ckpt").read_bytes()
        assert not (tmp_path / "epoch_3.ckpt").exists()


class TestTrainRejectsBeforeWriting:
    def test_short_validation_piece_beside_a_long_one(self, tmp_path):
        cfg = ModelConfig(hidden_size=4, seed_len=5)
        model = Model(cfg, rng=np.random.default_rng(102))
        items = toy_items(2, 20, np.random.default_rng(103))
        short = chord_roll(3, [60, 64, 67], source_id="short[0]")
        out = tmp_path / "ckpt"
        with pytest.raises(ValueError, match=r"piece short\[0\] has 3 samples, "
                                             r"no more than seed length 5"):
            train(model, single_batch_plan(items), items, [items[0], short],
                  TrainConfig(epochs=1), out, np.random.default_rng(104))
        assert not out.exists()


class TestTemplatePerPiece:
    """Every pass runs its piece against the chroma SSM of the item's roll,
    built once per pass and shared by the forward pass and the loss."""

    @staticmethod
    def record(monkeypatch, module, name, seen):
        original = getattr(module, name)

        def recorded(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    def test_train_epoch_and_validate(self, monkeypatch):
        cfg = ModelConfig(hidden_size=4, seed_len=2)
        model = Model(cfg, rng=np.random.default_rng(108))
        items = toy_items(3, 12, np.random.default_rng(109))
        items.append(chord_roll(15, [50, 53, 57, 62], source_id="other[0]"))
        forwards, losses = [], []
        self.record(monkeypatch, sing.training, "forward_piece", forwards)
        self.record(monkeypatch, sing.training, "piece_loss", losses)
        train_epoch(model, single_batch_plan(items), items, TrainConfig(),
                    np.random.default_rng(110))
        validate(model, items, TrainConfig(), np.random.default_rng(111))
        assert len(forwards) == len(losses) == 2 * len(items)
        for k, (forward, loss) in enumerate(zip(forwards, losses)):
            item = items[k % len(items)]
            _, target, S, _, _ = forward
            assert target is item and loss[2] is item
            assert loss[3] is S  # built once for the pass
            assert np.array_equal(S.values, ssm(chroma(item)).values)

    def test_evaluate(self, monkeypatch):
        cfg = ModelConfig(hidden_size=4, seed_len=3)
        model = Model(cfg, rng=np.random.default_rng(112))
        items = toy_items(2, 12, np.random.default_rng(113))
        items.append(chord_roll(9, [50, 53, 57, 62], source_id="other[0]"))
        generations = []
        self.record(monkeypatch, sing.evaluation, "generate", generations)
        evaluate(items, cfg, np.random.default_rng(114), model=model)
        assert len(generations) == GENERATIONS_PER_PIECE * len(items)
        for k, (_, seed, template, _) in enumerate(generations):
            item = items[k // GENERATIONS_PER_PIECE]
            assert np.array_equal(seed, item.data.T[: cfg.seed_len])
            assert template is generations[k - k % GENERATIONS_PER_PIECE][2]  # once per piece
            assert template == ssm(chroma(item))


class TestValidate:
    def test_mean_over_items(self):
        cfg = ModelConfig(hidden_size=4, seed_len=2)
        model = Model(cfg, rng=np.random.default_rng(22))
        items = toy_items(3, 10, np.random.default_rng(23))
        value = validate(model, items, TrainConfig(), np.random.default_rng(0))
        assert math.isfinite(value) and value > 0

    def test_non_finite_loss_names_piece_and_epoch(self):
        cfg = ModelConfig(hidden_size=4, seed_len=2)
        model = Model(cfg, rng=np.random.default_rng(28))
        model.params["lstm.b"][0] = np.nan
        items = toy_items(2, 10, np.random.default_rng(29))
        with pytest.raises(TrainingError, match=r"toy0\[0\] \(epoch 3\)"):
            validate(model, items, TrainConfig(p_feedback=0.0), np.random.default_rng(0), epoch=3)


class TestPrepareCorpus:
    def test_plan_and_items_align(self):
        rng = np.random.default_rng(25)
        rolls = []
        for i, n in enumerate([120, 128, 128, 130, 260]):
            roll = chord_roll(n, [50 + i, 54 + i, 57 + i], source_id=f"p{i}")
            rolls.append(roll)
        plan, grid, excluded = prepare_corpus(
            rolls, rng, k=3, count=4, max_len=128, batch_cap=2, max_edit_fraction=0.1
        )
        items = items_from_plan(plan, {r.source_id: r for r in rolls})
        assert len(plan.assignments) == len(items)
        for assignment, item in zip(plan.assignments, items):
            assert item.source_id == f"{assignment.piece_id}[{assignment.segment_index}]"
            assert assignment.target_length in grid
            assert item.n_samples == assignment.target_length

    @pytest.mark.parametrize("max_len", [40, 64, 100, 150, 700])
    def test_saved_plan_rebuilds_items_at_its_own_slicing(self, max_len):
        rng = np.random.default_rng(27)
        rolls = [PianoRoll(data=rng.integers(0, 2, (128, n), dtype=np.uint8), tempo=120.0,
                           source_id=f"p{i}")
                 for i, n in enumerate([38, 40, 41, 63, 64, 97, 100, 150, 151, 299, 300, 1000])]
        rolls_by_id = {r.source_id: r for r in rolls}
        plan, _, _ = prepare_corpus(
            rolls, rng, k=3, count=4, max_len=max_len, batch_cap=4, max_edit_fraction=0.2
        )
        assert len(plan.assignments) >= 5
        rebuilt = items_from_plan(plan_from_text(plan_to_text(plan)), rolls_by_id)
        assert len(rebuilt) == len(plan.assignments)
        for a, item in zip(plan.assignments, rebuilt):
            i, s, t = a.segment_index, a.source_length, a.target_length
            assert item.source_id == f"{a.piece_id}[{i}]"
            cut = rolls_by_id[a.piece_id].data[:, i * s : (i + 1) * s]
            expected = np.zeros((128, t), dtype=np.uint8)  # silence pads a short segment
            expected[:, : min(s, t)] = cut[:, :t]
            assert np.array_equal(item.data, expected)
            whole = (s, t) == (rolls_by_id[a.piece_id].n_samples, s)
            assert np.shares_memory(item.data, rolls_by_id[a.piece_id].data) == whole

    def test_items_hold_no_template(self):
        """Ten 300-sample segments cost less than one 300 x 300 float64 matrix:
        an item holds its roll, and its template is built where it runs."""
        n, s = 3000, 300
        rolls = {"p0": chord_roll(n, [60, 64, 67, 71], source_id="p0")}
        assignments = [Assignment("p0", i, s, s) for i in range(n // s)]
        plan = BatchPlan(assignments=assignments, batches=[list(range(len(assignments)))])
        tracemalloc.start()
        try:
            items = items_from_plan(plan, rolls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(items) == 10 and all(item.n_samples == s for item in items)
        assert peak < s * s * 8

    def test_plans_from_lengths_without_cutting_a_roll(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("planning built a roll")

        rolls = [chord_roll(n, [60, 64, 67], source_id=f"p{i}")
                 for i, n in enumerate([90, 96, 100, 98, 250])]
        monkeypatch.setattr(PianoRoll, "__post_init__", refuse)
        plan, grid, excluded = prepare_corpus(
            rolls, np.random.default_rng(30), k=2, count=4, max_len=100, batch_cap=3,
            max_edit_fraction=0.05,
        )
        lengths = [s for r in rolls for s in segment_lengths(r.n_samples, 100)]
        assert lengths == [90, 96, 100, 98, 83, 83, 83]
        assert grid == build_grid(lengths, k=2, count=4, max_len=100)
        assert [(a.piece_id, a.segment_index) for a in plan.assignments][-3:] == [
            ("p4", 0), ("p4", 1), ("p4", 2)
        ]
        assert len(plan.assignments) + len(excluded) == len(lengths)

    @pytest.mark.parametrize(
        "line",
        [
            "p0,0,30,20",  # a 30-sample segment of a 24-sample roll
            "p0,0,10,10",  # 24 samples do not split into equal segments of 10
            "p0,2,12,12",  # the third 12-sample segment starts past the end
        ],
    )
    def test_segment_that_does_not_fit_names_the_piece(self, line):
        rolls = {"p0": chord_roll(24, [60, 64, 67], source_id="p0")}
        with pytest.raises(ValueError, match="'p0'"):
            items_from_plan(plan_from_text(line + "\n"), rolls)
