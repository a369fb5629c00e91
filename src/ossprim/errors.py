"""Shared exception types."""


class DimensionError(ValueError):
    """Operand shapes or bit widths do not line up."""


class RangeError(ValueError):
    """An index or domain element is outside its declared range."""


class PunctureError(RuntimeError):
    """A punctured key was consulted at a punctured point."""


class InvariantViolation(RuntimeError):
    """A structural invariant that must hold by construction was violated."""


class ContractError(ValueError):
    """A caller-supplied object fails a precondition it promised to satisfy."""


class UnsupportedBackend(RuntimeError):
    """The requested operation is not available for this key's PRF backend."""
