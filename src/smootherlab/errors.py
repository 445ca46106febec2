"""Exception types shared across the package.

Validation-style problems (bad configs, malformed files, bad arguments)
exit the CLI with code 1; numerical failures exit with code 2; a sweep
worker process that dies (a signal, the OOM killer) exits it with code 3.
"""


class ValidationError(ValueError):
    """Bad user input: config keys, argument ranges, inconsistent shapes."""


class FormatError(ValidationError):
    """Malformed binary/CSV dataset file."""


class ScheduleError(ValidationError):
    """Invalid sweep schedule; carries the failing point index."""

    def __init__(self, message: str, point_index: int | None = None):
        self.point_index = point_index
        self.detail = message  # the message without its point prefix
        if point_index is not None:
            message = f"schedule point {point_index}: {message}"
        super().__init__(message)


class PreconditionError(ValidationError):
    """An operation's stated precondition does not hold for the given inputs."""


class SingularDesignError(RuntimeError):
    """A solve required full rank but the design is numerically rank deficient."""


class WorkerDiedError(RuntimeError):
    """A sweep worker process died before returning its results."""
