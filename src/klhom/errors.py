"""The error raised when an exact re-check that guards a verdict fails."""


class ConsistencyError(RuntimeError):
    """A structural verdict contradicted an independently proved fact."""
