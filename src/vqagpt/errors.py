"""Exception types shared across the package.

Each maps to a CLI exit code so the command-line harness can fail
predictably: config problems exit 2, data problems exit 3, checkpoint
problems exit 4, and a non-finite loss or gradient in training exits 5.
"""


class VqagptError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(VqagptError):
    """Malformed, unknown, or out-of-range configuration input."""

    exit_code = 2


class DataError(VqagptError):
    """Malformed dataset manifest, scene, or image payload."""

    exit_code = 3


class CheckpointError(VqagptError):
    """Corrupt, truncated, or incompatible checkpoint file."""

    exit_code = 4


class NonFiniteError(VqagptError):
    """A train step met a non-finite loss or gradient; its update was not applied."""

    exit_code = 5
