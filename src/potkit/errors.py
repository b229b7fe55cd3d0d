"""Exception types shared across the toolkit.

Plain ``ValueError`` is raised for malformed arguments (wrong shapes,
out-of-range exponents, empty paths).  The classes below cover failure
modes that callers may want to catch and handle separately.
"""


class PotkitError(Exception):
    """Base class for toolkit-specific failures."""


class RepresentationError(PotkitError, ValueError):
    """An operation is not representable for this measure or set.

    Raised, for example, when a continuous measure is passed to a
    solver that only accepts atomic or grid data.
    """


class ResolutionError(PotkitError, RuntimeError):
    """A discrete solve failed to converge at the requested resolution.

    The remedy is almost always a smaller pitch ``h`` or a larger
    iteration budget; the message says which solve gave up.
    """


class HypothesisViolation(PotkitError, ValueError):
    """Input data visibly fails the hypothesis of the check being run.

    Example: a decay check assuming ``mu(B(x0,t)) <= C t^m`` applied to
    a measure with an atom at ``x0``.
    """


class DegenerateConeError(PotkitError, ValueError):
    """A cone parameter search was given a cone with empty interior
    along its diagnostic ray."""


class SceneError(PotkitError, ValueError):
    """A scene file failed schema validation or internal consistency
    checks.  The message carries a JSON-pointer style path."""
