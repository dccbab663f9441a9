"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to distinguish configuration problems from modelling
problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError):
    """An invalid machine configuration, design-space definition or run
    setting (a malformed ``REPRO_*`` variable, flag or override)."""


class WorkloadError(ReproError):
    """An unknown benchmark name or an invalid workload profile."""


class TransformError(ReproError):
    """Invalid input to a wavelet transform (e.g. non power-of-two length)."""


class ModelError(ReproError):
    """A predictive model was mis-configured or used before being fitted."""


class NotFittedError(ModelError):
    """A model's ``predict`` was called before ``fit``."""


class SamplingError(ReproError):
    """Design-space sampling could not satisfy the request."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state."""


class EngineError(ReproError):
    """The execution engine was mis-configured or fed malformed jobs."""


class ExperimentError(ReproError):
    """An experiment driver was asked for an unknown experiment or option."""
