"""Exception types shared across the library.

Anything raised here signals a data or contract problem the caller can act
on; plain ``ValueError`` is reserved for argument-range and configuration
mistakes (bad ``k``, a rank tolerance outside [0, 1), ...).
"""


class EmbeddingError(Exception):
    """Base class for data and contract failures."""


class LoadError(EmbeddingError):
    """Input file could not be parsed into a numeric matrix.

    ``line`` is the 1-based line number of the offending row, or None for
    whole-file problems (empty input, unreadable file).
    """

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DegenerateVectorError(EmbeddingError):
    """A row that should define a direction has zero length.

    ``row`` is 1-based.
    """

    def __init__(self, row):
        super().__init__(f"row {row} has zero norm and defines no direction")
        self.row = row


class CoincidentPairError(EmbeddingError):
    """Two input points coincide, so their difference has no direction:
    its square is below the smallest normal float (points closer than about
    1.5e-154). ``pair`` holds the 1-based point indices. Under
    ``dedup_policy="drop"`` it is raised, for pair (1, 2), only when every
    point coincides with the first.
    """

    def __init__(self, pair):
        super().__init__(f"points {pair[0]} and {pair[1]} coincide")
        self.pair = tuple(pair)


class ShapeError(EmbeddingError):
    """Matrix/vector dimensions do not line up."""


class ContractError(EmbeddingError):
    """A documented invariant was violated (non-orthonormal basis,
    non-finite or asymmetric matrix given to ``top_k_eigenpairs``,
    weak-duality breach, ...)."""
