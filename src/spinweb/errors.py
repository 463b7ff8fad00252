"""Exception hierarchy for spinweb."""


class SpinwebError(Exception):
    """Base class for all spinweb errors."""


class DomainError(SpinwebError):
    """An argument violates a documented precondition."""


class ResourceLimitError(SpinwebError):
    """A requested computation exceeds the size guard."""
