"""Small shared plumbing: wall-clock budgets and reproducible RNG streams."""

from __future__ import annotations

import hashlib
import random
import time

__all__ = ["Budget", "seeded_rng"]


class Budget:
    """A soft wall-clock limit; ``None`` seconds means unlimited.  The
    budget is spent once the clock reaches its deadline, so a zero budget
    is spent at once."""

    __slots__ = ("deadline",)

    def __init__(self, seconds: float = None):
        self.deadline = None if seconds is None else time.monotonic() + seconds

    def exceeded(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline


def seeded_rng(seed: int, *labels: str) -> random.Random:
    """An independent RNG stream derived from (seed, labels) via SHA-256.

    Streams with different labels are statistically independent and stable
    across runs and platforms, which keeps sampled-order experiments
    reproducible.
    """
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for lab in labels:
        h.update(b"\x00")
        h.update(str(lab).encode())
    return random.Random(int.from_bytes(h.digest()[:8], "big"))
