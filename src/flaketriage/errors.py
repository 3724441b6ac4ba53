"""Exception types shared across the package."""


class FlakeTriageError(Exception):
    """Base class for every error this package raises on purpose."""


class MalformedLog(FlakeTriageError):
    """No exception header could be identified in a raw failure log."""


class MalformedFrame(FlakeTriageError):
    """A stack-frame line does not fit the frame grammar (non-fatal in parsing)."""


class SchemaError(FlakeTriageError):
    """A corpus XML document violates the corpus schema."""


class DuplicateProjectMismatch(SchemaError):
    """A failure's project attribute conflicts with its enclosing project group."""


class UnlabeledRecord(FlakeTriageError):
    """A record without a flaky/true label was used where a label is required."""


class EmptyDataset(FlakeTriageError):
    """A classifier was trained on an empty sample list."""


class EmptyDocument(FlakeTriageError):
    """A term statistic was requested for a document with no tokens."""


class UnknownTerm(FlakeTriageError):
    """A term occurs in no document of the reference corpus."""


class EmptyHistory(FlakeTriageError):
    """Nearest-neighbour classification was asked to run without any history."""


class InvalidLogBase(FlakeTriageError, ValueError):
    """A TF-IDF logarithm base is not positive, finite and other than 1."""


class InsufficientFlaky(FlakeTriageError):
    """A project has fewer flaky failures than cross-validation folds."""


class InsufficientTrue(FlakeTriageError):
    """A project has fewer true failures than cross-validation folds."""


class InvalidConfig(FlakeTriageError):
    """A generator configuration violates one of its bounds."""
