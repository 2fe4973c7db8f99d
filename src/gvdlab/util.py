"""Small shared plumbing: wall-clock budgets."""

from __future__ import annotations

import time

__all__ = ["Budget"]


class Budget:
    """A soft wall-clock limit; ``None`` seconds means unlimited.  The
    budget is spent once the clock reaches its deadline, so a zero budget
    is spent at once.  ``spent`` records whether a poll (``exceeded``) has
    read "spent"; once one has, every later poll reads "spent" too."""

    __slots__ = ("deadline", "spent")

    def __init__(self, seconds: float = None):
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.spent = False

    def exceeded(self) -> bool:
        self.spent = self.spent or (self.deadline is not None
                                    and time.monotonic() >= self.deadline)
        return self.spent
