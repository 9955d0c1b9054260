"""Per-run record of what a selection engine did and how long each phase took."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

Pair = tuple[int, int]


@dataclass
class SelectionTrace:
    """Output of one engine run.

    Phase timings follow the complexity breakdown of the engines:
    preprocessing (state setup, initial gains), per-iteration find-max, and
    per-iteration update. Lazy engines additionally record in `touch_counts`
    how many stale entries they refreshed per iteration, over all refresh
    blocks, and the memoized modes in `memo_counts` how many scratch entries
    they actually computed.
    """

    variant: str
    selected: list[Pair]
    gains: list[float]
    preprocessing_seconds: float
    find_max_seconds: list[float]
    update_seconds: list[float]
    touch_counts: list[int] | None = None
    memo_counts: list[int] | None = None
    gain_arrays: list[np.ndarray] | None = field(default=None, repr=False)

    @property
    def objective_deltas(self) -> list[float]:
        return [math.log1p(g) for g in self.gains]

    @property
    def total_seconds(self) -> float:
        return self.preprocessing_seconds + sum(self.find_max_seconds) + sum(self.update_seconds)
