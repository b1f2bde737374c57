"""Exception types shared across the package."""


class PseudodetError(Exception):
    """Base class for all package-specific errors."""


class MismatchError(PseudodetError, TypeError):
    """Operands live in different backends, rings, moduli or sizes."""


class NotInvertibleError(PseudodetError, ArithmeticError):
    """A required inverse (typically of d!) does not exist in the ring."""


class UnknownLetterError(PseudodetError, KeyError):
    """A word contains a letter outside a homomorphism's assignment map."""


class UnitlessError(PseudodetError, TypeError):
    """The operation needs a multiplicative unit, but the backend has none."""


class CapExceededError(PseudodetError, ValueError):
    """An argument count exceeds the configured evaluation cap."""


class BudgetExceededError(PseudodetError, RuntimeError):
    """A product would create more intermediate multisets than the budget."""


class GroupTableError(PseudodetError, ValueError):
    """A group multiplication table is malformed or inconsistent."""


class ConfigError(PseudodetError, ValueError):
    """A suite or CLI configuration is invalid."""
