"""What every workload hands the runner: a fixed list of operations and their checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Op:
    """One timed call into ``aapt`` and the check of its result.

    ``call(pass_index)`` is the timed part.  ``check(result, pass_index)``
    runs untimed and raises ``reference.CheckFailure`` on a wrong result.
    """

    label: str
    call: Callable[[int], Any]
    check: Callable[[Any, int], None]


@dataclass
class Workload:
    ops: list[Op]
    # Nearest-rank percentile reported as op_tail_ms; a run attempts at least
    # min_ops operations, so ten or more samples lie beyond it.
    tail_percent: int
    # How many operations from the head of the list each set-up runs untimed.
    warmup_ops: int
    # Runs untimed after every pass, warm-up included.
    after_pass: Callable[[], None] = field(default=lambda: None)
    cleanup: Callable[[], None] = field(default=lambda: None)

    @property
    def min_ops(self) -> int:
        return 1000 // (100 - self.tail_percent)
