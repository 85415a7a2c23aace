"""Exception hierarchy shared by all strandcheck modules."""


class StrandcheckError(Exception):
    """Base class for all errors raised by this package."""


class NonComposable(StrandcheckError):
    """Two paths (or 1-cell strings) do not meet end to end."""


class NotParallel(StrandcheckError):
    """Two paths do not share source and target objects."""


class ValueEqualityNotProven(StrandcheckError):
    """A polygon type's two sides could not be proven value-equal."""


class BoundaryMismatch(StrandcheckError):
    """A pasting operation was attempted on diagrams with incompatible boundaries."""


class InvalidGenerator(StrandcheckError):
    """A two-cell generator is malformed or not licensed by the signature."""


class InvalidBinding(StrandcheckError):
    """A rule was instantiated with an ill-typed binding."""


class SideConditionFailed(InvalidBinding):
    """A rule binding violates one of the schema's side conditions."""


class NotFibFragment(StrandcheckError):
    """An operation restricted to coherence-only diagrams met another generator."""


class PatternNotFound(StrandcheckError):
    """A proof step's pattern does not occur at the stated position."""


class RegionNotPureChi(StrandcheckError):
    """A coherence-replacement region contains a non-coherence generator."""


class BoundaryChanged(StrandcheckError):
    """A proof step altered the boundary of the diagram it rewrote."""


class ResultMismatch(StrandcheckError):
    """A proof step's stated result differs from the computed one."""


class UnprovenDependency(StrandcheckError):
    """A proof step cites an equality that has not been verified yet."""


class ParseError(StrandcheckError):
    """A proof-script file does not conform to the grammar."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RelationViolated(StrandcheckError):
    """A finite-set instance fails one of the presentation's declared relations."""


class TypeMismatch(StrandcheckError):
    """A family or family map was used at the wrong fiber."""


class EnvMissing(StrandcheckError):
    """Interpretation met an object generator with no assigned family."""
