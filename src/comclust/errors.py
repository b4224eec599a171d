"""Exception types shared across the package."""


class ComclustError(Exception):
    """Base class for all library errors."""


class ZeroVectorError(ComclustError):
    """A vector with (near-)zero norm reached a cosine-distance computation.

    Usually means the embedding space collapsed during training.
    """


class NotScalarError(ComclustError):
    """backward() was called on a non-scalar node."""


class ShapeMismatchError(ComclustError):
    """Arrays that must agree in shape, length or feature count do not."""


class EmptyBatchError(ComclustError):
    """A batch or input that needs at least one sample has none."""


class SingleClassError(ComclustError):
    """A metric that needs both classes saw only one."""


class MissingClassError(ComclustError):
    """A batch or dataset lacks samples of a required class."""


class TooFewSamplesError(ComclustError):
    pass


class DegenerateComponentError(ComclustError):
    """A mixture component captured less than one effective sample."""


class SingularCovarianceError(ComclustError):
    pass


class DegenerateDistancesError(ComclustError):
    """Both prototype distances are (near-)zero; no score can be formed."""


class NonFiniteLossError(ComclustError):
    """A training loss, a gradient, an inference score or the embeddings
    handed to the pseudo-labelling GMM became NaN or infinite."""


class InvalidSpecError(ComclustError, ValueError):
    """A configuration value or command-line spec is malformed or out of
    range. Also a ValueError, so callers that catch bad arguments as
    ValueError keep working."""


class ParseError(ComclustError):
    pass


class MissingColumnError(ComclustError):
    pass
