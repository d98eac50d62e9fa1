"""Exception types shared across the toolkit.

Every domain failure raises a subclass of :class:`UmmError`, so callers
(and the CLI) can catch one base type and still branch on specifics.
"""

import contextlib


class UmmError(Exception):
    """Base class for all toolkit errors."""


# --- checkpoint container -------------------------------------------------

class MalformedHeader(UmmError):
    """Container header is unparsable or internally inconsistent."""


class OffsetOverlap(UmmError):
    """Tensor byte ranges overlap, leave gaps, or fall outside the file."""


class NonFiniteValue(UmmError):
    """A tensor contains NaN or Inf scalars."""


class UnsupportedDtype(UmmError):
    """Tensor dtype is not one of F32/F16/BF16."""


class IoFailure(UmmError):
    """Underlying file I/O failed."""


class MalformedInput(UmmError, ValueError):
    """A field of a JSON input is missing or has the wrong type."""


# --- merging --------------------------------------------------------------

class IncompatibleCheckpoints(UmmError):
    """Checkpoints disagree on tensor names or shapes."""


class RecipeMethodMismatch(UmmError):
    """Recipe names a merge method that is not one of ``merge_core.METHODS``."""


class RecipeModelMismatch(UmmError):
    """Recipe model list and supplied task vectors do not correspond."""


class InvalidDensity(UmmError):
    """Density outside (0, 1]."""


class InvalidWeight(UmmError):
    """Merging weight outside [0, 1]."""


class MissingLayerMetadata(UmmError):
    """Checkpoint metadata lacks layer_pattern/num_layers."""


class GroupCountMismatch(UmmError):
    """Recipe group count disagrees with the checkpoint's layer layout."""


# --- evolutionary search --------------------------------------------------

class InvalidDimension(UmmError):
    """Search dimension must be a positive integer."""


class CovarianceNotPD(UmmError):
    """Covariance matrix lost positive definiteness."""


class StepSizeOutOfRange(UmmError):
    """Step size left its admissible range."""


class LengthMismatch(UmmError):
    """Vector/list lengths disagree."""


class NonFiniteFitness(UmmError):
    """A fitness value is NaN or Inf."""


class EvaluatorFailed(UmmError):
    """External evaluator could not start, exited nonzero or timed out."""


class EvaluatorProtocol(UmmError):
    """Evaluator output could not be parsed."""


# --- token alignment / fusion ----------------------------------------------

class EmptySequence(UmmError):
    """Token sequence is empty."""


class ShapeMismatch(UmmError):
    """Matrix/sequence shapes are inconsistent."""


class InvalidDistribution(UmmError):
    """Rows are negative or do not sum to one."""


class OutOfVocab(UmmError):
    """Token id outside the vocabulary."""


class InvalidLambda(UmmError):
    """Mixing coefficient outside [0, 1]."""


@contextlib.contextmanager
def located(where: str):
    """Re-raise a UmmError from the block, same type, prefixed with ``where``."""
    try:
        yield
    except UmmError as exc:
        raise type(exc)(f"{where}: {exc}") from exc
