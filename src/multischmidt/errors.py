"""Exception types shared across the package."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed (e.g. a factor reduction is not pure)."""


class UnsupportedStructureError(NotImplementedError):
    """The requested quantity has no defined construction for this state class.

    Raised for Schmidt coefficients of genuinely entangled states on five or
    more parties, where no construction is defined, and so by
    mixed_generalized_eof where an eigen element is one (W_5's projector).
    """


class SearchError(RuntimeError):
    """A constrained search exhausted its budget without a qualifying result."""
