"""Shared error types."""
from __future__ import annotations


class BudgetExceededError(RuntimeError):
    """A computation refused to continue past its configured budget.

    Refusal is explicit, never a silent approximation. `best_lower` and
    `best_upper` carry whatever bounds were proven before the refusal.
    """

    def __init__(
        self,
        message: str,
        *,
        best_lower: int | None = None,
        best_upper: int | None = None,
        nodes: int | None = None,
    ):
        self.reason = message
        self.best_lower = best_lower
        self.best_upper = best_upper
        self.nodes = nodes
        detail = message
        if best_lower is not None or best_upper is not None:
            detail += f" (bounds proven so far: [{best_lower}, {best_upper}])"
        super().__init__(detail)
