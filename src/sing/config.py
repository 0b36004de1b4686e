"""Line-oriented ``key = value`` config files.

Used for model/training configs saved next to checkpoints, for the
``--config`` CLI flag and for synthetic SSM specs. Blank lines and ``#``
comments are ignored.
"""

from __future__ import annotations

from collections.abc import Iterator


def kv_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) for each ``key = value`` line, both stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        yield lineno, key, value


def parse_kv(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a dict (later keys win)."""
    return {key: value for _, key, value in kv_lines(text)}


def format_kv(items: dict[str, object]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in items.items())


def parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def cast_like(default: object, value: str) -> object:
    """Parse value as the type of default (booleans via parse_bool)."""
    return parse_bool(value) if isinstance(default, bool) else type(default)(value)
