"""Exception types shared across the package."""


class XLabError(Exception):
    """Base class for all package errors."""


class DimensionError(XLabError):
    """Matrix or subsystem dimensions are inconsistent with the operation."""


class DomainError(XLabError):
    """An input value lies outside the operation's mathematical domain."""


class RankError(XLabError):
    """A state's numerical rank is incompatible with the requested operation."""


class SpectralMismatchError(XLabError):
    """Two states that must be unitarily equivalent have different spectra."""


class ConfigError(XLabError):
    """Invalid experiment configuration."""
