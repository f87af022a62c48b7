"""The package's one exception type."""


class EcgdxError(ValueError):
    """Malformed input or an impossible request; ``dispatch`` prints its
    message as one ``error:`` line and exits 1."""
