"""Shared exception types."""

from __future__ import annotations


class BudgetExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the caller's budget.

    Callers may catch this and fall back to designed-distance bounds.
    """


class CertificationError(RuntimeError):
    """A constructed object failed one of its own exact certificates."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
