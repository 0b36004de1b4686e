"""Line-oriented ``key = value`` config files.

Used for model/training configs saved next to checkpoints and for the
``--config`` CLI flag. Blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations


def parse_kv(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a dict (later keys win)."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


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
