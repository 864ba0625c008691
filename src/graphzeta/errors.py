"""Exception taxonomy shared by every module.

InputError, UnsupportedError and DomainError signal problems with what the
caller asked for; NumericError and ResourceError signal that a computation
could not be completed reliably. Each class carries the exit code the
command line returns for it:

    GraphZetaError    2
    InputError        1
    UnsupportedError  1
    DomainError       1
    NumericError      2
    ResourceError     2
"""


class GraphZetaError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class InputError(GraphZetaError, ValueError):
    """Malformed or inconsistent input data or arguments."""

    exit_code = 1


class UnsupportedError(GraphZetaError, ValueError):
    """The operation is not defined for the given object (e.g. irregular graph)."""

    exit_code = 1


class DomainError(GraphZetaError, ValueError):
    """The evaluation point lies outside the operation's domain."""

    exit_code = 1


class NumericError(GraphZetaError, RuntimeError):
    """A numeric procedure failed to converge or lost too much accuracy."""


class ResourceError(GraphZetaError, RuntimeError):
    """A configured size or resource cap would be exceeded."""
