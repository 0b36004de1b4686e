import errno
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    adam_step_expressions,
    central_difference,
    project_simplex_bruteforce,
    project_simplex_bruteforce_fast,
    relative_error,
)
from sing.nn import (
    ParamSet,
    adam_step,
    bce_with_logits,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    dense_backward,
    init_uniform,
    lstm_backward_factors,
    lstm_cell_backward,
    lstm_cell_forward,
    save_checkpoint,
    sigmoid,
    sparsemax,
)


class TestDense:
    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(8, 8))
        b = rng.normal(size=8)
        x = rng.normal(size=8)
        upstream = rng.normal(size=8)

        dW, db, dX = dense_backward(W, x[None], upstream[None])
        dx = dX[0]
        assert relative_error(central_difference(lambda w: upstream @ (w @ x + b), W), dW) < 1e-6
        assert relative_error(central_difference(lambda bb: upstream @ (W @ x + bb), b), db) < 1e-6
        assert relative_error(central_difference(lambda xx: upstream @ (W @ xx + b), x), dx) < 1e-6

    def test_stacked_rows_equal_sum_of_per_row_outer_products(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(6, 5))
        X = rng.normal(size=(9, 5))
        upstream = rng.normal(size=(9, 6))

        dW, db, dX = dense_backward(W, X, upstream)
        assert relative_error(dW, sum(np.outer(u, x) for u, x in zip(upstream, X))) <= 1e-12
        assert relative_error(db, sum(upstream)) <= 1e-12
        assert dX.shape == X.shape
        for u, dx in zip(upstream, dX):
            assert relative_error(dx, W.T @ u) <= 1e-12


def cell_out(H: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fresh (h, c, gates) arrays for one lstm_cell_forward step."""
    return np.empty(H), np.empty(H), np.empty(4 * H)


class TestLstmCell:
    def test_all_zero(self):
        H = 4
        h, c, _ = lstm_cell_forward(
            np.zeros((4 * H, 6)), np.zeros((4 * H, H)), np.zeros(4 * H),
            np.zeros(6), np.zeros(H), np.zeros(H), out=cell_out(H),
        )
        assert np.array_equal(h, np.zeros(H))
        assert np.array_equal(c, np.zeros(H))

    def test_cell_state_bounded(self):
        rng = np.random.default_rng(1)
        H, D = 5, 7
        for _ in range(30):
            W_x = rng.normal(scale=2.0, size=(4 * H, D))
            W_h = rng.normal(scale=2.0, size=(4 * H, H))
            b = rng.normal(scale=2.0, size=4 * H)
            h = np.zeros(H)
            c = np.zeros(H)
            for _ in range(10):
                c_prev = c
                h, c, _ = lstm_cell_forward(W_x, W_h, b, rng.normal(size=D), h, c, out=cell_out(H))
                assert np.all(np.abs(c) <= np.abs(c_prev) + 1.0 + 1e-12)

    def test_sequence_gradient_matches_central_differences(self):
        # loss = sum_t |h_t|^2 through a length-5 chain, H=4
        rng = np.random.default_rng(2)
        H, D, T = 4, 3, 5
        W_x = rng.normal(size=(4 * H, D))
        W_h = rng.normal(size=(4 * H, H))
        b = rng.normal(size=4 * H)
        xs = rng.normal(size=(T, D))

        def forward_all(W_x, W_h, b):
            h = np.zeros(H)
            c = np.zeros(H)
            caches = []
            loss = 0.0
            for t in range(T):
                h_prev, c_prev = h, c
                h, c, gates = lstm_cell_forward(W_x, W_h, b, xs[t], h, c, out=cell_out(H))
                k = lstm_backward_factors(np.stack([h_prev, h]), np.stack([c_prev, c]),
                                          gates[None])[:, 0]
                caches.append(((W_x, W_h, k), xs[t], h_prev, h))
                loss += float(h @ h)
            return loss, caches

        _, caches = forward_all(W_x, W_h, b)
        dW_x = np.zeros_like(W_x)
        dW_h = np.zeros_like(W_h)
        db = np.zeros_like(b)
        dh = np.zeros(H)
        dc = np.zeros(H)
        for cache, x_t, h_prev, h_t in reversed(caches):
            dh, dc, dpre = lstm_cell_backward(cache, dh + 2 * h_t, dc, out=np.empty(4 * H))
            dW_x += np.outer(dpre, x_t)
            dW_h += np.outer(dpre, h_prev)
            db += dpre

        for name, param, grad in (("W_x", W_x, dW_x), ("W_h", W_h, dW_h), ("b", b, db)):
            def loss_of(p, _name=name):
                alt = {"W_x": W_x, "W_h": W_h, "b": b} | {_name: p}
                return forward_all(alt["W_x"], alt["W_h"], alt["b"])[0]

            assert relative_error(central_difference(loss_of, param.copy()), grad) < 1e-4


    def test_strided_out_views_get_the_same_results(self):
        rng = np.random.default_rng(3)
        H, D = 6, 5
        W_x, W_h, b = rng.normal(size=(4 * H, D)), rng.normal(size=(4 * H, H)), rng.normal(size=4 * H)
        x, h_prev, c_prev = rng.normal(size=D), rng.normal(size=H), rng.normal(size=H)
        h, c, gates = lstm_cell_forward(W_x, W_h, b, x, h_prev, c_prev, out=cell_out(H))
        rows = np.zeros((4 * H, 3))
        strided = lstm_cell_forward(W_x, W_h, b, x, h_prev, c_prev,
                                    out=(rows[:H, 0], rows[:H, 1], rows[:, 2]))
        for got, want in zip(strided, (h, c, gates)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

        k = lstm_backward_factors(np.stack([h_prev, h]), np.stack([c_prev, c]), gates[None])
        step = (W_x, W_h, k[:, 0])
        dh, dc = rng.normal(size=H), rng.normal(size=H)
        expected = lstm_cell_backward(step, dh, dc, out=np.empty(4 * H))
        got = lstm_cell_backward(step, dh, dc, out=rows[:, 0])
        assert np.shares_memory(got[2], rows[:, 0])
        for a, e in zip(got, expected):
            assert np.array_equal(a.view(np.uint64), e.view(np.uint64))

    def test_factors_hold_no_array_of_all_four_gates_beside_the_result(self):
        """Each factor is formed from its own gate blocks: the peak stays below
        the (6, T, H) result plus three T x H temporaries, where a T x 4H
        array (such as 1 - G) alone would take four."""
        T, H = 700, 128
        rng = np.random.default_rng(5)
        states, cells, gates = rng.random((T + 1, H)), rng.random((T + 1, H)), rng.random((T, 4 * H))
        tracemalloc.start()
        try:
            lstm_backward_factors(states, cells, gates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (6 + 3) * T * H * 8


class TestSparsemax:
    def test_simplex_point_is_fixed(self):
        assert np.array_equal(sparsemax(np.array([1.0, 0.0])), [1.0, 0.0])
        assert np.allclose(sparsemax(np.array([0.9, 0.1])), [0.9, 0.1])

    def test_symmetric_input_uniform(self):
        assert np.allclose(sparsemax(np.array([0.3, 0.3, 0.3])), 1 / 3)

    def test_dominant_entry_saturates(self):
        assert np.allclose(sparsemax(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sparsemax(np.array([]))

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            size = int(rng.integers(1, 9))
            q = rng.normal(scale=2.0, size=size)
            expected = project_simplex_bruteforce(q)
            assert np.abs(sparsemax(q) - expected).max() <= 1e-9

    def test_fast_and_slow_oracles_agree(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            q = rng.normal(size=int(rng.integers(1, 8)))
            a = project_simplex_bruteforce(q)
            b = project_simplex_bruteforce_fast(q)
            assert np.abs(a - b).max() <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=12),
           st.floats(-100, 100, allow_nan=False))
    def test_properties(self, values, shift):
        q = np.array(values)
        p = sparsemax(q)
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.abs(sparsemax(q + shift) - p).max() <= 1e-9

    @pytest.mark.parametrize("q", [[np.nan], [1.0, np.nan], [np.inf, 0.0], [-np.inf]])
    def test_non_finite_input_rejected(self, q):
        with pytest.raises(ValueError, match="finite"):
            sparsemax(np.array(q))

    @pytest.mark.parametrize("q", [[1e20, 0.0], [1e300, -1e300, 0.0], [-1e300, -1e300]])
    def test_finite_input_too_wide_for_float64_named_as_such(self, q):
        with pytest.raises(ValueError, match="too wide a range for float64") as caught:
            sparsemax(np.array(q))
        assert "must be finite" not in str(caught.value)


class TestBce:
    def test_zero_logits_closed_form(self):
        y = np.zeros(128)
        y[::3] = 1.0
        x = np.zeros(128)
        loss, grad = bce_with_logits(x, y, sigmoid(x))
        assert loss == pytest.approx(128 * math.log(2), abs=1e-9)
        assert np.allclose(grad, 0.5 - y)

    def test_confident_correct_loss_vanishes(self):
        x = np.full(128, 40.0)
        loss, _ = bce_with_logits(x, np.ones(128), sigmoid(x))
        assert loss < 1e-12

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(6)
        x = rng.normal(scale=3.0, size=32)
        y = (rng.random(32) < 0.4).astype(float)
        _, grad = bce_with_logits(x, y, sigmoid(x))
        fd = central_difference(lambda xx: bce_with_logits(xx, y, sigmoid(xx))[0], x, h=1e-6)
        assert relative_error(fd, grad) < 1e-6


class TestAdam:
    def _scalar_params(self, value=0.0):
        params = ParamSet()
        params.add("p", np.array([value]))
        return params

    def test_zero_gradient_no_change(self):
        params = self._scalar_params(1.5)
        adam_step(params, lr=0.1)
        assert params["p"][0] == 1.5

    def test_first_step_bias_corrected(self):
        params = self._scalar_params(0.0)
        params.accumulate("p", np.array([1.0]))
        adam_step(params, lr=0.001)
        assert params["p"][0] == pytest.approx(-0.001, rel=1e-6)

    def test_quadratic_converges(self):
        # standard Adam (checked bit-for-bit against a reference
        # implementation) first dips below 0.01 at step 2203 on this problem
        params = self._scalar_params(1.0)
        history = []
        for _ in range(2500):
            params.accumulate("p", 2.0 * params["p"])
            adam_step(params, lr=0.001)
            history.append(abs(params["p"][0]))
        assert history[1999] < 0.05
        assert min(history) < 0.01

    def test_gradients_cleared_after_step(self):
        params = self._scalar_params()
        params.accumulate("p", np.array([3.0]))
        adam_step(params, lr=0.001)
        assert params.grads["p"][0] == 0.0

    def test_step_counter(self):
        params = self._scalar_params()
        for _ in range(5):
            adam_step(params, lr=0.001)
        assert params.step == 5

    def test_in_place_update_matches_the_plain_expressions_bit_for_bit(self):
        rng = np.random.default_rng(11)
        fast, ref = ParamSet(), ParamSet()
        for params in (fast, ref):
            params.add("W", np.arange(12.0).reshape(3, 4) / 7)
            params.add("b", np.zeros(3))
        for _ in range(4):
            for name, shape in (("W", (3, 4)), ("b", (3,))):
                grad = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                fast.accumulate(name, grad)
                ref.accumulate(name, grad.copy())
            adam_step(fast, lr=0.003)
            adam_step_expressions(ref, lr=0.003)
            for table in ("values", "m", "v", "grads"):
                for name in ("W", "b"):
                    got, want = getattr(fast, table)[name], getattr(ref, table)[name]
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (table, name)


class TestParamSet:
    def test_duplicate_name_rejected(self):
        params = ParamSet()
        params.add("a", np.zeros(2))
        with pytest.raises(ValueError):
            params.add("a", np.zeros(2))

    def test_gradient_shape_checked(self):
        params = ParamSet()
        params.add("a", np.zeros((2, 3)))
        with pytest.raises(ValueError):
            params.accumulate("a", np.zeros((3, 2)))

    def test_gradient_columns_add_to_those_columns_alone(self):
        params = ParamSet()
        params.add("a", np.zeros((2, 5)))
        params.accumulate("a", np.ones((2, 2)), columns=np.array([1, 3]))
        params.accumulate("a", np.full((2, 2), 2.0), columns=slice(3, None))
        assert params.grads["a"].tolist() == [[0.0, 1.0, 0.0, 3.0, 2.0]] * 2
        with pytest.raises(ValueError):
            params.accumulate("a", np.ones((2, 3)), columns=np.array([0, 1]))

    def test_values_start_on_a_64_byte_boundary(self):
        """Each value is a copy placed for the BLAS kernels, whatever the
        alignment of the array it was given."""
        params = ParamSet()
        given = np.zeros(512 * 128 + 3)[1 : 512 * 128 + 1].reshape(512, 128)
        given[...] = np.random.default_rng(9).normal(size=(512, 128))
        shapes = {"W": (512, 128), "b": (7,), "s": (1,), "C": (3, 5)}
        for name, shape in shapes.items():
            value = given if name == "W" else np.arange(math.prod(shape), dtype=float).reshape(shape)
            stored = params.add(name, value)
            assert stored is params[name] and stored.ctypes.data % 64 == 0, name
            assert stored.flags.c_contiguous and np.array_equal(stored, value), name
        assert not np.shares_memory(params["W"], given)

    def test_init_uniform_bounds(self):
        rng = np.random.default_rng(7)
        w = init_uniform(rng, (50, 50), fan_in=25)
        assert np.abs(w).max() <= 0.2


class TestCheckpoint:
    def _params(self):
        rng = np.random.default_rng(8)
        params = ParamSet()
        params.add("layer.W", rng.normal(size=(3, 4)))
        params.add("layer.b", rng.normal(size=3))
        params.accumulate("layer.b", np.ones(3))
        adam_step(params, lr=0.01)
        adam_step(params, lr=0.01)
        return params

    def _fresh(self):
        """A ParamSet of the same layout as _params, never trained."""
        params = ParamSet()
        params.add("layer.W", np.zeros((3, 4)))
        params.add("layer.b", np.zeros(3))
        return params

    def test_bit_identical_round_trip(self):
        blob = checkpoint_to_bytes(self._params())
        again = self._fresh()
        checkpoint_from_bytes(blob, again)
        assert checkpoint_to_bytes(again) == blob

    def test_restores_values_moments_and_step(self):
        params = self._params()
        again = self._fresh()
        checkpoint_from_bytes(checkpoint_to_bytes(params), again)
        assert again.step == 2
        for name in params.names():
            assert np.array_equal(again[name], params[name])
            assert np.array_equal(again.m[name], params.m[name])
            assert np.array_equal(again.v[name], params.v[name])

    def test_magic_and_version(self):
        blob = checkpoint_to_bytes(self._params())
        assert blob[:8] == b"SINGCKPT"
        assert int.from_bytes(blob[8:12], "little") == 1

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            checkpoint_from_bytes(b"BADMAGIC" + bytes(20), self._fresh())

    def test_write_failing_midway_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "epoch_0.ckpt"
        save_checkpoint(self._fresh(), path)
        earlier = path.read_bytes()
        open_path = Path.open

        class FullAfterTheHeader:
            """A file whose disk fills up once the checkpoint header is written."""

            def __init__(self, handle):
                self.handle, self.written = handle, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, data):
                if self.written:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.written = self.handle.write(data)
                return self.written

        monkeypatch.setattr(Path, "open", lambda self_path, *args, **kwargs:
                            FullAfterTheHeader(open_path(self_path, *args, **kwargs)))
        with pytest.raises(OSError):
            save_checkpoint(self._params(), path)
        monkeypatch.undo()
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["epoch_0.ckpt"]
        save_checkpoint(self._params(), path)
        assert path.read_bytes() == checkpoint_to_bytes(self._params())
        assert [p.name for p in tmp_path.iterdir()] == ["epoch_0.ckpt"]

    def test_saved_file_is_checkpoint_to_bytes_for_any_memory_order(self, tmp_path):
        """The file is written part by part from views of the tensors: a
        column-major or strided tensor is saved as its values, row by row."""
        params = self._params()
        params.values["layer.W"] = np.asfortranarray(params["layer.W"])
        params.m["layer.b"] = np.repeat(params.m["layer.b"], 2)[::2]
        blob = checkpoint_to_bytes(params)
        assert blob == checkpoint_to_bytes(self._params())
        save_checkpoint(params, tmp_path / "m.ckpt")
        assert (tmp_path / "m.ckpt").read_bytes() == blob


def test_sigmoid_stable_at_extremes():
    x = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
    out = sigmoid(x)
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[-1] == 1.0 and out[2] == 0.5
