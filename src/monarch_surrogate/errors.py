"""Exception types shared across the package.

No exception marks a NaN: a diverging run ends `failed` at its training loss check.
"""


class DimensionError(ValueError):
    """Shapes or sizes are incompatible with the requested operation."""


class ConfigurationError(ValueError):
    """A configuration value is outside the supported set."""


class ContractError(RuntimeError):
    """An API contract was violated by the caller."""
