"""Failure kinds that the command line maps to distinct exit codes."""


class CertificateError(RuntimeError):
    """A certified property failed to verify (descent, genericity, ...)."""


class TruncationError(RuntimeError):
    """An iteration hit its configured cap before reaching its base case."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""
