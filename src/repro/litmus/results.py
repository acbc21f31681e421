"""Result records for litmus campaigns."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LitmusResult:
    """Outcome of ``executions`` runs of one litmus test instance.

    ``backend`` records which execution path produced the result: the
    ``"direct"`` memory-system fast path or the compiled SIMT
    ``"engine"`` path (see :mod:`repro.litmus.compile`).
    """

    test: str
    distance: int
    weak: int
    executions: int
    location: tuple[int, ...] = ()
    backend: str = "direct"

    @property
    def rate(self) -> float:
        """Fraction of executions exhibiting the weak behaviour."""
        return self.weak / self.executions if self.executions else 0.0
