import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sing.batching import (
    MAX_EDIT_FRACTION,
    Assignment,
    BatchPlan,
    assign,
    build_grid,
    load_plan,
    make_batches,
    plan_from_text,
    plan_to_text,
    save_plan,
    segment_lengths,
)
from sing.midi_io import MAX_SAMPLES, PianoRoll
from sing.training import items_from_plan


def grid_255_700():
    # ten pieces of 255 or fewer make 255 the 10th shortest
    lengths = list(range(246, 256)) + [400, 500, 600, 700]
    return build_grid(lengths, k=10, count=16, max_len=700)


def make_roll(n: int) -> PianoRoll:
    data = np.zeros((128, n), dtype=np.uint8)
    data[60] = 1
    return PianoRoll(data=data, tempo=120.0, source_id="piece")


def items_of(roll: PianoRoll, *rows: tuple[int, int, int]) -> list[PianoRoll]:
    """The items `items_from_plan` cuts from one roll for (segment, source, target) rows."""
    plan = BatchPlan([Assignment(roll.source_id, *row) for row in rows])
    return items_from_plan(plan, {roll.source_id: roll})


class TestSliceLong:
    def test_boundary_stays_whole(self):
        assert segment_lengths(700, 700) == [700]
        roll = make_roll(700)
        (item,) = items_of(roll, (0, 700, 700))
        assert item.source_id == "piece[0]"
        assert np.shares_memory(item.data, roll.data)  # an unedited whole roll is not copied
        assert np.array_equal(item.data, roll.data) and item.tempo == roll.tempo

    def test_1500_splits_into_three_of_500(self):
        assert segment_lengths(1500, 700) == [500, 500, 500]

    def test_fourteen_way_slice(self):
        assert segment_lengths(9156, 700) == [654] * 14

    def test_segments_are_consecutive_from_zero(self):
        roll = make_roll(10)
        roll.data[61, 3] = 1
        parts = segment_lengths(roll.n_samples, 4)
        assert parts == [3, 3, 3]
        (item,) = items_of(roll, (1, parts[1], parts[1]))
        assert item.data[61, 0] == 1  # sample 3 lands in segment 1
        assert item.source_id == "piece[1]"

    def test_segment_count_and_size_rule(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 5000))
            max_len = int(rng.integers(1, 900))
            parts = segment_lengths(n, max_len)
            if n <= max_len:
                assert parts == [n]
            else:
                m = math.ceil(n / max_len)
                assert len(parts) == m
                assert parts == [n // m] * m


class TestBuildGrid:
    def test_default_configuration_endpoints(self):
        grid = grid_255_700()
        assert grid[0] == 255
        assert grid[15] == 700

    def test_closed_form_midpoint(self):
        grid = grid_255_700()
        assert grid[8] == 437  # round(255 * (700/255)^(8/15))

    def test_degenerate_grid_all_equal(self):
        grid = build_grid([700] * 10, k=10, count=16, max_len=700)
        assert grid == [700] * 16

    def test_log_spacing_constant_within_rounding(self):
        grid = grid_255_700()
        steps = np.diff(np.log(grid))
        expected = math.log(700 / 255) / 15
        for i, step in enumerate(steps):
            lo = math.log(grid[i + 1] - 0.5) - math.log(grid[i] + 0.5)
            hi = math.log(grid[i + 1] + 0.5) - math.log(grid[i] - 0.5)
            assert lo <= expected <= hi or abs(step - expected) < 0.01

    def test_too_few_pieces_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            build_grid([100, 200], k=10)

    @pytest.mark.parametrize("option", ["count", "max_len"])
    def test_past_the_sample_cap_rejected(self, option):
        """A plan cannot name a target above MAX_SAMPLES, so no grid builds one."""
        message = rf"grid {option} {MAX_SAMPLES + 1} exceeds MAX_SAMPLES \({MAX_SAMPLES}\)"
        with pytest.raises(ValueError, match=message):
            build_grid([100] * 10, **{option: MAX_SAMPLES + 1})

    def test_max_len_at_the_sample_cap_accepted(self):
        assert build_grid([100] * 10, count=2, max_len=MAX_SAMPLES) == [100, MAX_SAMPLES]


class TestAssign:
    def test_430_pads_to_437(self):
        assert assign(430, grid_255_700()) == 437

    def test_exact_grid_point_untouched(self):
        assert assign(255, grid_255_700()) == 255

    def test_far_below_grid_excluded(self):
        assert assign(103, grid_255_700()) is None

    def test_ties_take_smaller_target(self):
        grid = build_grid([100] * 10, k=10, count=2, max_len=100)
        # both grid entries equal: the first (smaller index) wins
        assert assign(100, grid, 1.0) == 100

    def test_truncate_direction(self):
        assert assign(440, grid_255_700()) == 437

    @pytest.mark.parametrize("bound", [float("nan"), -0.01, -1.0])
    def test_bound_below_zero_or_nan_rejected(self, bound):
        with pytest.raises(ValueError, match="max edit fraction"):
            assign(255, grid_255_700(), bound)

    def test_infinite_bound_keeps_every_length(self):
        assert assign(103, grid_255_700(), float("inf")) == 255

    def test_bound_is_respected_everywhere(self):
        grid = grid_255_700()
        for length in range(103, 9157, 7):
            target = assign(length, grid)
            if target is not None:
                assert abs(length - target) / length <= 0.04


class TestApplyEdit:
    """A plan item whose target differs from its segment is padded or truncated."""

    def test_pad_appends_silence(self):
        roll = make_roll(3)
        (edited,) = items_of(roll, (0, 3, 5))
        assert edited.n_samples == 5
        assert edited.data[:, 3:].sum() == 0
        assert (edited.data[:, :3] == roll.data).all()
        assert not np.shares_memory(edited.data, roll.data)

    def test_truncate_drops_trailing(self):
        roll = make_roll(5)
        roll.data[61, 2:] = 1
        (edited,) = items_of(roll, (0, 5, 3))
        assert edited.n_samples == 3
        assert np.array_equal(edited.data, roll.data[:, :3])
        assert not np.shares_memory(edited.data, roll.data)


class TestMakeBatches:
    def _assignments(self, lengths):
        return [Assignment(f"p{i}", 0, n, n) for i, n in enumerate(lengths)]

    def test_cap_splits_150_into_100_and_50(self):
        plan = make_batches(self._assignments([300] * 150), 100, np.random.default_rng(0))
        assert sorted(len(b) for b in plan.batches) == [50, 100]

    def test_single_piece(self):
        plan = make_batches(self._assignments([300]), 100, np.random.default_rng(0))
        assert plan.batches == [[0]]

    def test_batches_length_homogeneous(self):
        rng = np.random.default_rng(1)
        lengths = [int(rng.choice([255, 437, 700])) for _ in range(200)]
        plan = make_batches(self._assignments(lengths), 16, rng)
        for batch in plan.batches:
            targets = {plan.assignments[i].target_length for i in batch}
            assert len(targets) == 1
            assert len(batch) <= 16

    def test_every_assignment_batched_once(self):
        plan = make_batches(self._assignments([255] * 37 + [700] * 13), 10,
                            np.random.default_rng(2))
        seen = sorted(i for b in plan.batches for i in b)
        assert seen == list(range(50))

    def test_deterministic_for_fixed_seed(self):
        asg = self._assignments([255] * 30 + [437] * 30)
        plan_a = make_batches(asg, 7, np.random.default_rng(42))
        plan_b = make_batches(asg, 7, np.random.default_rng(42))
        assert plan_a.batches == plan_b.batches


class TestPlanText:
    def test_round_trip(self):
        asg = [
            Assignment("alpha", 0, 430, 437),
            Assignment("alpha", 1, 440, 437),
            Assignment("beta", 0, 255, 255),
        ]
        plan = make_batches(asg, 2, np.random.default_rng(3))
        text = plan_to_text(plan)
        assert text.splitlines()[:4] == ["edit: 0.04", "alpha,0,430,437", "alpha,1,440,437",
                                         "beta,0,255,255"]
        assert plan_from_text(text) == plan

    @pytest.mark.parametrize("bound", [0.0, 0.1, 1 / 3, 2.5, float("inf")])
    def test_edit_line_round_trips(self, bound):
        plan = BatchPlan([Assignment("a", 0, 30, 30)], [[0]], max_edit_fraction=bound)
        text = plan_to_text(plan)
        assert text.splitlines()[0] == f"edit: {bound!r}"
        assert plan_from_text(text) == plan
        assert plan_to_text(plan_from_text(text)) == text

    def test_plan_without_an_edit_line_reads_with_the_default_bound(self):
        assert plan_from_text("a,0,100,104\nbatch: 0\n").max_edit_fraction == MAX_EDIT_FRACTION
        with pytest.raises(ValueError, match="line 1: 'a' segment 0: target 105 edits more than 0.04 of source 100"):
            plan_from_text("a,0,100,105\nbatch: 0\n")

    @pytest.mark.parametrize("source, target", [(24, 3000), (100, 90), (700, 437), (255, 1)])
    def test_target_beyond_the_edit_bound_is_rejected_by_its_line(self, source, target):
        text = f"edit: 0.05\na,0,10,10\nb,0,{source},{target}\nbatch: 0 1\n"
        with pytest.raises(ValueError, match=f"line 3: 'b' segment 0: target {target} edits more than 0.05"):
            plan_from_text(text)

    def test_reader_bound_is_the_one_assign_keeps(self):
        """Every target `assign` keeps under a bound reads back under it, and
        every target it drops is refused."""
        grid = grid_255_700()
        for bound in (0.0, 0.01, 0.04, 0.2):
            for length in range(103, 2000, 3):
                nearest = assign(length, grid, float("inf"))
                line = f"edit: {bound!r}\np,0,{length},{nearest}\n"
                if assign(length, grid, bound) is None:
                    with pytest.raises(ValueError, match="line 2: 'p' segment 0: target"):
                        plan_from_text(line)
                else:
                    assert plan_from_text(line).assignments[0].target_length == nearest

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("a,0,10,10\nedit: 0.04\n", "line 2: an edit line must be the plan's first line"),
            ("edit: 0.04\nedit: 0.04\n", "line 2: an edit line must be the plan's first line"),
            ("\nedit: 0.04\n", "line 2: an edit line must be the plan's first line"),
            ("edit: nan\n", "line 1: max edit fraction must be >= 0, got nan"),
            ("edit: -0.01\n", "line 1: max edit fraction must be >= 0, got -0.01"),
            ("edit: 4%\n", "line 1: could not convert"),
            ("edit:\n", "line 1: could not convert"),
        ],
    )
    def test_bad_edit_line_rejected(self, text, problem):
        with pytest.raises(ValueError, match=re.escape(problem)):
            plan_from_text(text)

    def test_an_id_that_starts_like_the_edit_line_is_an_id(self):
        plan = plan_from_text("edit: 0.5\nedit: 1,0,10,10\nbatch: 0\n")
        assert plan.assignments == [Assignment("edit: 1", 0, 10, 10)]

    def test_save_load(self, tmp_path):
        plan = make_batches([Assignment("x", 0, 10, 10)], 1,
                            np.random.default_rng(0))
        save_plan(plan, tmp_path / "plan.txt")
        assert load_plan(tmp_path / "plan.txt").batches == plan.batches

    @pytest.mark.parametrize(
        "line",
        [
            "x,-1,100,none,0.0",
            "x,0,0,none,0.0",
            "x,0,100,none,0.5",
            "x,0,100,pad,-0.01",
            "x,0,100,pad,1000.0",
            "x,0,100,pad,nan",
            "x,0,100,truncate,1.0",
            "x,0,100,truncate,1.5",
            "x,0,100,truncate,inf",
            f"x,0,{MAX_SAMPLES + 1},none,0.0",
        ],
    )
    def test_values_the_reader_trusts_are_checked(self, line):
        """A line of the old piece_id,segment,target,edit,fraction form is
        rejected by its line number, whatever its values: re-planning rebuilds it."""
        with pytest.raises(ValueError, match="line 1"):
            plan_from_text(line + "\n")

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("x,-1,100,100", "out of range"),  # negative segment index
            ("x,0,0,100", "out of range"),  # source below 1
            ("x,0,100,0", "out of range"),  # target below 1
            (f"x,0,{MAX_SAMPLES + 1},100", "out of range"),  # source past the length cap
            (f"x,0,100,{MAX_SAMPLES + 1}", "out of range"),  # target past the length cap
            ("x,0,100.0,100", "invalid literal"),
            ("x,0,10,1e3", "invalid literal"),
            ("x,100,100", "expected piece_id,segment,source,target"),
        ],
    )
    def test_out_of_range_or_malformed_assignment_rejected(self, line, problem):
        with pytest.raises(ValueError, match=f"line 2: .*{problem}"):
            plan_from_text(f"a,0,10,10\n{line}\nbatch: 0\n")

    @pytest.mark.parametrize(
        "batches, lineno, problem",
        [
            (["batch: "], 3, "empty batch"),
            (["batch:"], 3, "empty batch"),
            (["batch: 0", "batch: "], 4, "empty batch"),
            (["batch: 0 0"], 3, "assignment 0 is batched twice"),
            (["batch: 1", "batch: 0 1"], 4, "assignment 1 is batched twice"),
            (["batch: 2"], 3, "assignment 2 out of range"),
            (["batch: -1"], 3, "assignment -1 out of range"),
            (["batch: x"], 3, "invalid literal"),
        ],
    )
    def test_bad_batch_line_rejected(self, batches, lineno, problem):
        text = "\n".join(["a,0,10,10", "b,0,10,10", *batches]) + "\n"
        with pytest.raises(ValueError, match=f"line {lineno}: .*{problem}"):
            plan_from_text(text)

    def test_batch_line_lists_only_assignments_above_it(self):
        with pytest.raises(ValueError, match="line 1: batch references assignment 0"):
            plan_from_text("batch: 0\na,0,10,10\n")

    def test_only_blank_lines_are_skipped(self):
        plan = plan_from_text("\na,0,10,10\n\nbatch: 0\n\n")
        assert plan == BatchPlan([Assignment("a", 0, 10, 10)], [[0]])
        for line in ["# a comment", " ", "\t"]:
            with pytest.raises(ValueError, match="line 2"):
                plan_from_text(f"a,0,10,10\n{line}\nbatch: 0\n")

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1e",
                                     "\x85", "\u2028", "\u2029"])
    @pytest.mark.parametrize("where", ["{}take", "ta{}ke", "take{}"])
    def test_id_with_a_line_break_is_not_written(self, brk, where):
        piece_id = where.format(brk)
        plan = BatchPlan([Assignment("a", 0, 5, 5), Assignment(piece_id, 0, 5, 5)], [[0, 1]])
        with pytest.raises(ValueError, match=re.escape(f"piece id {piece_id!r}")):
            plan_to_text(plan)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.text(alphabet=st.characters(blacklist_categories=("Cs",)))
                    .filter(lambda s: len(f"{s}.".splitlines()) == 1),  # no line break
                    st.sampled_from(["take,0", "#0 etude", " take0", "take0 ", "batch: 0",
                                     "batch:", ",,,", "étude"]),
                ),
                st.integers(0, 10**6),
                st.integers(1, MAX_SAMPLES),
                st.integers(1, MAX_SAMPLES),
            ),
            max_size=8,
        ),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, rows, batch_cap, seed):
        plan = make_batches([Assignment(*row) for row in rows], batch_cap,
                            np.random.default_rng(seed))
        # the largest edit of the rows: the reader keeps a target at its bound
        plan.max_edit_fraction = max((abs(s - t) / s for _, _, s, t in rows), default=0.0)
        again = plan_from_text(plan_to_text(plan))
        assert again.assignments == plan.assignments
        assert again.batches == plan.batches
        assert again.max_edit_fraction == plan.max_edit_fraction


class TestCutSegment:
    @pytest.mark.parametrize("n, max_len", [(700, 700), (701, 700), (1000, 300), (97, 10)])
    def test_matches_slice_long(self, n, max_len):
        """Each segment of the slicing is its own column range of the roll."""
        roll = make_roll(n)
        roll.data[:, :] = np.random.default_rng(n).integers(0, 2, roll.data.shape)
        parts = segment_lengths(n, max_len)
        items = items_of(roll, *[(i, s, s) for i, s in enumerate(parts)])
        for i, (s, cut) in enumerate(zip(parts, items)):
            assert np.array_equal(cut.data, roll.data[:, i * s : (i + 1) * s])
            assert cut.source_id == f"piece[{i}]"
