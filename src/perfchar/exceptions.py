"""Exception hierarchy shared by all perfchar modules."""


class PerfcharError(Exception):
    """Base class for every error raised by this package."""


class InvalidSpecError(PerfcharError):
    """A platform description violates its constraints (e.g. zero memory channels)."""


class MissingVectorUnitError(InvalidSpecError):
    """A vector-mode quantity was requested from a spec that declares no vector unit."""


class ParameterError(PerfcharError, ValueError):
    """A numeric argument is outside its valid domain."""


class SizingError(PerfcharError):
    """A benchmark working set is smaller than the minimum the sizing rule allows."""


class ResourceError(PerfcharError):
    """A benchmark could not obtain the resources (memory) it needs."""


class KernelCorruptionError(PerfcharError):
    """Post-run verification of a benchmark kernel found wrong array contents."""


class CapabilityError(PerfcharError):
    """The requested benchmark variant is not available; carries the supported set."""

    def __init__(self, message: str, supported: tuple = ()):
        super().__init__(message)
        self.supported = tuple(supported)


class BenchmarkBusyError(PerfcharError):
    """Another benchmark is already running in this process."""


class SchemaError(PerfcharError):
    """An input file does not match its documented schema."""


class RowError(SchemaError):
    """One or more data rows failed validation; carries (line, reason) pairs."""

    def __init__(self, failures):
        self.failures = tuple(failures)
        lines = "; ".join(f"line {ln}: {why}" for ln, why in self.failures)
        super().__init__(f"{len(self.failures)} invalid row(s): {lines}")


class IncompleteMatrixError(PerfcharError):
    """A pairwise bandwidth file is missing at least one node pair."""

    def __init__(self, message: str, missing_pairs=()):
        super().__init__(message)
        self.missing_pairs = tuple(missing_pairs)


class UnderdeterminedError(PerfcharError):
    """Too few (distinct) data points to fit the requested model."""


class InvalidDataError(PerfcharError):
    """Input data is structurally fine but semantically impossible."""


class EmptyComparisonError(PerfcharError):
    """A comparison was requested but no two groups share an application."""
