"""Small shared plumbing: wall-clock budgets."""

from __future__ import annotations

import time

__all__ = ["Budget"]


class Budget:
    """A soft wall-clock limit; ``None`` seconds means unlimited.  The
    budget is spent once the clock reaches its deadline, so a zero budget
    is spent at once."""

    __slots__ = ("deadline",)

    def __init__(self, seconds: float = None):
        self.deadline = None if seconds is None else time.monotonic() + seconds

    def exceeded(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline
