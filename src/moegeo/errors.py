"""Error taxonomy shared by all modules.

Every failure mode the library promises to detect has its own class so callers
(and the CLI's exit-code mapping) can dispatch on type rather than message.
"""

from __future__ import annotations


class MoegeoError(Exception):
    """Base class for all library-raised failures."""


class InvalidShapeError(MoegeoError, ValueError):
    """An array argument has the wrong shape or dtype for the operation."""


class InvalidConfigError(MoegeoError, ValueError):
    """A configuration value violates its documented constraints."""


class ZeroColumnError(MoegeoError, ValueError):
    """A column that must be normalized has (near-)zero norm."""

    def __init__(self, index: int):
        self.index = int(index)
        super().__init__(f"column {index} has zero norm and cannot be normalized")


class SingularGramError(MoegeoError, ValueError):
    """The Gram matrix of a support set is numerically singular."""

    def __init__(self, support):
        self.support = tuple(int(i) for i in support)
        super().__init__(f"gram matrix singular on support {self.support}")


class TooLargeError(MoegeoError, ValueError):
    """An enumeration would exceed the hard work bound."""


class UnreachableError(MoegeoError, ValueError):
    """The requested target value cannot be attained by the construction."""


class InvalidKError(MoegeoError, ValueError):
    """A sparsity / selection size k is out of range."""


class ZeroProbabilityError(MoegeoError, ValueError):
    """A probability vector contains entries too small to be treated as positive."""


class NotPSDError(MoegeoError, ValueError):
    """A matrix required to be positive semidefinite is not."""


class NonFiniteError(MoegeoError, FloatingPointError):
    """A NaN or infinity appeared in a computation that must stay finite."""


class DegenerateProbeError(MoegeoError, ValueError):
    """A probe produced an all-zero response, so the statistic is undefined."""


class IdentityViolationError(MoegeoError, ArithmeticError):
    """A quantity broke an identity or bound that holds by construction."""
