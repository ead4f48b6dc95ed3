"""Exception taxonomy shared by the whole package.

The CLI maps these onto exit codes: format/parse problems are exit 2,
validation and guard failures are exit 1, internal invariant breaches
are exit 3.
"""


class FsmacError(Exception):
    """Base class for all package errors."""


class SpecFormatError(FsmacError):
    """Input file could not be parsed at all (bad JSON, not an object)."""


class ValidationError(FsmacError):
    """A model or policy invariant is violated; message names the first one."""


class GuardError(FsmacError):
    """A resource guard tripped (channel cell cap, trial cap, ...)."""


class InternalInvariantError(FsmacError):
    """A mathematical identity the code relies on failed. Always a bug."""
