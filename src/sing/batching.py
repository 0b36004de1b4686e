"""Variable-length batching.

Long pieces are sliced into equal segments, a 16-point log-spaced grid of
standard lengths is fit between the k-th shortest segment and the maximum
length, and every segment is padded or truncated to its nearest grid length
in log distance. Segments needing an edit larger than the configured
fraction (default 4%) of their length are excluded. Batches are
length-homogeneous and capped in size.

A plan is an `edit:` line holding its edit bound, one
`piece_id,segment,source,target` line per kept segment (the id is
everything before the last three commas), then one `batch:` line of
assignment indices per batch. `plan_from_text` reads back exactly what
`plan_to_text` writes, and refuses a target beyond the plan's edit bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sing.midi_io import MAX_SAMPLES

GRID_K = 10
GRID_COUNT = 16
GRID_MAX_LEN = 700
BATCH_CAP = 100
MAX_EDIT_FRACTION = 0.04


@dataclass
class Assignment:
    piece_id: str
    segment_index: int
    source_length: int
    target_length: int


@dataclass
class BatchPlan:
    assignments: list[Assignment]
    batches: list[list[int]] = field(default_factory=list)  # indices into assignments
    max_edit_fraction: float = MAX_EDIT_FRACTION  # no target edits more of its source


def segment_lengths(n: int, max_len: int) -> list[int]:
    """Lengths of the equal segments a piece of n samples is sliced into.

    Pieces at or under max_len stay whole; longer ones split into
    ceil(n / max_len) segments of floor(n / m) samples, trailing remainder
    dropped.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if n <= max_len:
        return [n]
    m = math.ceil(n / max_len)
    return [n // m] * m


def build_grid(
    piece_lengths: list[int],
    k: int = GRID_K,
    count: int = GRID_COUNT,
    max_len: int = GRID_MAX_LEN,
) -> list[int]:
    """Log-spaced standard lengths, increasing, from the k-th shortest piece
    up to max_len."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if count < 2:
        raise ValueError("grid needs at least 2 points")
    for name, value in (("count", count), ("max_len", max_len)):
        if value > MAX_SAMPLES:  # no plan target exceeds it, so no more grid points differ
            raise ValueError(f"grid {name} {value} exceeds MAX_SAMPLES ({MAX_SAMPLES})")
    if len(piece_lengths) < k:
        raise ValueError(f"need at least {k} pieces, got {len(piece_lengths)}")
    min_len = sorted(piece_lengths)[k - 1]
    if min_len < 1:
        raise ValueError("piece lengths must be positive")
    if min_len > max_len:
        raise ValueError(f"k-th shortest length {min_len} exceeds max_len {max_len}")
    ratio = max_len / min_len
    return [int(math.floor(min_len * ratio ** (i / (count - 1)) + 0.5)) for i in range(count)]


def assign(
    roll_length: int, grid: list[int], max_edit_fraction: float = MAX_EDIT_FRACTION
) -> int | None:
    """Nearest grid length in log distance, or None when reaching it edits
    more than max_edit_fraction of roll_length. Ties in log distance go to
    the smaller target.
    """
    if roll_length < 1:
        raise ValueError("roll_length must be >= 1")
    if not max_edit_fraction >= 0:  # NaN would silently turn the bound off
        raise ValueError(f"max edit fraction must be >= 0, got {max_edit_fraction}")
    log_len = math.log(roll_length)
    # min keeps the first of equal distances: the smaller target
    target = min(grid, key=lambda length: abs(log_len - math.log(length)))
    return None if _beyond_edit(roll_length, target, max_edit_fraction) else target


def _beyond_edit(source: int, target: int, max_edit_fraction: float) -> bool:
    return abs(source - target) / source > max_edit_fraction


def make_batches(
    assignments: list[Assignment], batch_cap: int, rng: np.random.Generator
) -> BatchPlan:
    """Group assignments by target length into shuffled batches of <= cap."""
    if batch_cap < 1:
        raise ValueError("batch_cap must be >= 1")
    groups: dict[int, list[int]] = {}
    for idx, item in enumerate(assignments):
        groups.setdefault(item.target_length, []).append(idx)
    batches: list[list[int]] = []
    for target in sorted(groups):
        members = np.array(groups[target], dtype=np.int64)
        rng.shuffle(members)
        for start in range(0, len(members), batch_cap):
            batches.append([int(i) for i in members[start : start + batch_cap]])
    order = rng.permutation(len(batches))
    batches = [batches[int(i)] for i in order]
    return BatchPlan(assignments=list(assignments), batches=batches)


def plan_to_text(plan: BatchPlan) -> str:
    """Raises ValueError for a piece id holding a line break, which no line can carry."""
    lines = [f"edit: {float(plan.max_edit_fraction)!r}"]
    for a in plan.assignments:
        line = f"{a.piece_id},{a.segment_index},{a.source_length},{a.target_length}"
        if line.splitlines() != [line]:
            raise ValueError(f"piece id {a.piece_id!r} holds a line break")
        lines.append(line)
    lines += ["batch: " + " ".join(str(i) for i in batch) for batch in plan.batches]
    return "\n".join(lines) + "\n"


def plan_from_text(text: str) -> BatchPlan:
    """The plan `plan_to_text` wrote; any other line raises ValueError naming it.
    The edit line comes first, or is left out for MAX_EDIT_FRACTION. A batch
    line lists assignments above it, each once per plan."""
    plan = BatchPlan(assignments=[])
    batched: set[int] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            if line.startswith("edit:") and "," not in line:
                if lineno > 1:
                    raise ValueError("an edit line must be the plan's first line")
                plan.max_edit_fraction = float(line[len("edit:") :])
                if not plan.max_edit_fraction >= 0:  # as in assign: NaN turns the bound off
                    raise ValueError(f"max edit fraction must be >= 0, got {line[5:].strip()}")
            elif line.startswith("batch:") and "," not in line:
                batch = [int(tok) for tok in line[len("batch:") :].split()]
                if not batch:
                    raise ValueError("empty batch")
                for idx in batch:
                    if not 0 <= idx < len(plan.assignments):
                        raise ValueError(f"batch references assignment {idx} out of range")
                    if idx in batched:
                        raise ValueError(f"assignment {idx} is batched twice")
                    batched.add(idx)
                plan.batches.append(batch)
            elif line:
                plan.assignments.append(_parse_assignment(line, plan.max_edit_fraction))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return plan


def _parse_assignment(line: str, max_edit_fraction: float) -> Assignment:
    fields = line.rsplit(",", 3)
    if len(fields) != 4:
        raise ValueError(f"expected piece_id,segment,source,target, got {line!r}")
    piece_id, segment, source, target = fields[0], *map(int, fields[1:])
    if segment < 0 or not (1 <= source <= MAX_SAMPLES and 1 <= target <= MAX_SAMPLES):
        raise ValueError(f"segment {segment}, source {source} or target {target} out of range")
    if _beyond_edit(source, target, max_edit_fraction):
        raise ValueError(f"{piece_id!r} segment {segment}: target {target} edits more than "
                         f"{max_edit_fraction!r} of source {source}")
    return Assignment(piece_id, segment, source, target)


def save_plan(plan: BatchPlan, path: str | Path) -> None:
    Path(path).write_text(plan_to_text(plan), encoding="utf-8")


def load_plan(path: str | Path) -> BatchPlan:
    return plan_from_text(Path(path).read_text(encoding="utf-8"))
