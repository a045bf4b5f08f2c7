"""Small deterministic helpers shared across modules."""
from __future__ import annotations

import math

MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """Stateless 64-bit mix; used to derive per-(seed, key) integers."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def mix(*parts: int) -> int:
    """Combine integers into one well-mixed 64-bit value."""
    h = 0x243F6A8885A308D3
    for p in parts:
        h = splitmix64(h ^ (p & MASK64))
    return h


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


def fits(kind: str, value) -> bool:
    """Whether value has the type that a dataclass field annotation names:
    str, int, float (finite; a bool is neither number), tuple[float,
    float], or an optional or a list of those. Any other kind names a
    dataclass, whose fields are checked on their own, and fits.
    """
    if kind.endswith(" | None"):
        return value is None or fits(kind[: -len(" | None")], value)
    if kind.startswith("list["):
        return isinstance(value, (list, tuple)) and all(fits(kind[5:-1], v) for v in value)
    if kind == "tuple[float, float]":
        return isinstance(value, (list, tuple)) and len(value) == 2 and all(
            fits("float", v) for v in value
        )
    if kind == "str":
        return isinstance(value, str)
    if kind in ("int", "float") and isinstance(value, bool):
        return False
    if kind == "int":
        return isinstance(value, int)
    if kind == "float":
        return isinstance(value, (int, float)) and math.isfinite(value)
    return True


def clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x
