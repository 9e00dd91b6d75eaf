"""Failure kinds that decide the command line's exit code; any other exception is a bug (exit 1)."""


class CertificateError(RuntimeError):
    """A certified property failed to verify (descent, genericity, ...): exit 3."""


class TruncationError(RuntimeError):
    """An iteration hit its configured cap before reaching its base case: exit 4."""


class ConfigError(ValueError):
    """Malformed or inconsistent configuration, or an argument the library refuses: exit 2."""
