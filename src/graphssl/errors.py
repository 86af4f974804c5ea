"""Exception types shared across the package."""


class ComputationError(RuntimeError):
    """A numerical routine failed to satisfy its contract."""


class ConvergenceError(ComputationError):
    """An iterative solver exhausted its budget before reaching tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class IsolatedVertexError(ComputationError):
    """A graph vertex has zero degree, so degree normalization is undefined."""

    def __init__(self, vertex):
        super().__init__(
            "vertex %d is isolated (zero degree); the normalized Laplacian "
            "is undefined for unreachable points" % vertex
        )
        self.vertex = int(vertex)

    def __reduce__(self):
        # The message is built from the vertex, so rebuild from the vertex:
        # a forked worker's error reaches the parent pickled.
        return type(self), (self.vertex,)
