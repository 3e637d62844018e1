"""Shared exception types."""


class LnegermError(Exception):
    """Base class for all package errors."""


class DomainError(LnegermError):
    """Argument outside the valid parameter or radius range."""


class InputError(LnegermError):
    """Malformed or inconsistent input data."""


class ReparametrizationError(LnegermError):
    """The norm along a curve is not monotone on the probed range."""


class ResolutionError(LnegermError):
    """Sampling too coarse relative to the requested tolerance."""


class DisconnectedError(LnegermError):
    """Required points are in different graph components.

    ``scale`` records the scale at which connectivity failed, when known.
    """

    def __init__(self, message, scale=None):
        super().__init__(message)
        self.scale = scale


class TraceError(LnegermError):
    """A bisector solve failed at some radius: no bracket, no convergence, a
    residual too large, feet too close together, or a nearer branch or
    piece."""


class RegistryError(LnegermError):
    """Unknown builtin scenario or sampler name."""
