"""Per-run record of what a selection engine did and how long each phase took."""

from __future__ import annotations

from dataclasses import dataclass, field

from .design import Pair


@dataclass
class SelectionTrace:
    """Output of one engine or baseline run, and the fields of its report row.

    `gains` holds each pick's d_e; the pick raises the objective by
    log(1 + d_e). Phase timings follow the complexity breakdown of the engines:
    preprocessing (state setup, initial gains), per-iteration find-max, and
    per-iteration update. Lazy engines additionally record in `touch_counts`
    how many stale entries they refreshed per iteration, over all refresh
    blocks, and the memoized modes in `memo_counts` how many scratch entries
    they actually computed; both are None, and left out of the row, elsewhere.
    """

    algorithm: str
    selected: list[Pair] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)
    preprocessing_seconds: float = 0.0
    find_max_seconds: list[float] = field(default_factory=list)
    update_seconds: list[float] = field(default_factory=list)
    touch_counts: list[int] | None = None
    memo_counts: list[int] | None = None

    @property
    def total_seconds(self) -> float:
        return self.preprocessing_seconds + sum(self.find_max_seconds) + sum(self.update_seconds)
