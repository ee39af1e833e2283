"""Exception types shared across the package."""


class HypstabError(Exception):
    """Base class for all errors raised by hypstab."""


class NonFinite(HypstabError):
    """A value that must be finite is NaN or infinite."""


class NotSymmetric(HypstabError):
    """A matrix required to be symmetric is asymmetric beyond tolerance."""


class SizeMismatch(HypstabError):
    """Operands have incompatible dimensions."""


class NonUnitDirection(HypstabError):
    """A direction vector does not have unit Euclidean length."""


class NoConvergence(HypstabError):
    """An eigendecomposition fails its diagonalization residual check."""


class InvalidScenario(HypstabError):
    """Physical scenario parameters are out of range."""


class MissingControl(HypstabError):
    """A boundary face with an incoming characteristic lacks a control value."""


class NoInflow(HypstabError):
    """No boundary face has an incoming characteristic, so the scalar
    feedback law is undefined."""


class DegenerateSeries(HypstabError):
    """A time series is unusable for rate fitting (too short or nonpositive)."""


class ConfigError(HypstabError):
    """A scenario configuration file is malformed or inconsistent."""
