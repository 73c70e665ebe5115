"""Exception hierarchy shared across the package.

Three branches matter for the CLI exit code: ConfigError (bad run
configuration), DataError (malformed or insufficient input data) and
NumericalError (singular or degenerate computations).
"""


class MacrodmlError(Exception):
    """Base class for all package errors."""


class ConfigError(MacrodmlError):
    """Invalid run configuration."""


class DataError(MacrodmlError):
    """Malformed, inconsistent, or insufficient input data."""


class NumericalError(MacrodmlError):
    """A computation is singular or otherwise degenerate."""


# --- ingestion / reshaping -------------------------------------------------

class MalformedRow(DataError):
    """An input file is not UTF-8 text, does not parse, or has a row with the
    wrong number of cells or a cell that is not a number."""


class UnparseableTime(DataError):
    """A time cell does not parse as YYYY-MM."""


class DuplicateColumn(DataError):
    """Two columns share a name."""


class NonMonotoneTime(DataError):
    """Time index is not strictly increasing by exactly one month."""


class IndexMismatch(DataError):
    """Inputs do not share the same monthly time index."""


# --- preprocessing ---------------------------------------------------------

class TooShort(DataError):
    """Series is shorter than the operation requires."""


class InsufficientData(DataError):
    """Not enough observations to fit the requested model."""


class SingularCovariance(NumericalError):
    """Residual covariance matrix is singular."""


class ConstantColumn(NumericalError):
    """A column has zero variance where variation is required."""


class NotSymmetric(DataError):
    """Matrix expected to be symmetric is not."""


# --- learners --------------------------------------------------------------

class RankDeficient(NumericalError):
    """Design matrix columns are exactly collinear."""


class TooFewRows(DataError):
    """Fewer rows than the learner requires."""


class DimensionMismatch(DataError):
    """Feature count differs from the one seen at training time."""


class BadK(ConfigError):
    """Fold count outside [2, n]."""


class LengthMismatch(DataError):
    """Paired vectors have different lengths."""


class ConstantTarget(NumericalError):
    """Target has zero variance, so R-squared is undefined."""


# --- dml -------------------------------------------------------------------

class DegenerateTreatment(NumericalError):
    """Treatment residuals carry no variation; the score is unsolvable."""


# --- synthetic generators --------------------------------------------------

class BadKind(ConfigError):
    """Generator kind not valid for this operation."""


class ExplosiveCoefficients(ConfigError):
    """VAR companion matrix has spectral radius >= 1."""


class TooFewReps(ConfigError):
    """Too few Monte Carlo replications for a critical-value table."""


# --- cli -------------------------------------------------------------------

class MissingInput(DataError):
    """An expected input file does not exist or cannot be read."""
