"""Structure-preserving simulation and control laboratory for piezoelectric
beams with fully dynamic magnetic effects.

Core entry points:

* :func:`piezolab.model.validate_parameters`, :func:`piezolab.model.build_grid`
* :func:`piezolab.operators.build_operators`
* :class:`piezolab.generator.GeneratorAssembly`, the linear system every
  actuation model builds, with its energy parts, lift and gauge residuals;
  :func:`piezolab.variants.build_system` picks one
* :func:`piezolab.dynamics.run`, :func:`piezolab.dynamics.simulate`
* :func:`piezolab.spectral.compute_spectrum`
* ``piezolab`` console script for the experiment suite
"""

from .config import ExperimentConfig, config_from_dict, load_config, toy_config_dict
from .dynamics import TimeSeries, admissibility_estimate, run, simulate
from .generator import GeneratorAssembly, assemble_generator, b_star
from .model import (BeamParameters, StaggeredGrid, StateVector, build_grid,
                    toy_parameters, validate_parameters)
from .operators import ActuationMode, build_operators
from .spectral import (SpectrumReport, closed_loop_spectrum, compute_spectrum,
                       decay_rate_fit, kernel_basis)
from .variants import build_system

__all__ = [
    "ActuationMode",
    "BeamParameters",
    "ExperimentConfig",
    "GeneratorAssembly",
    "SpectrumReport",
    "StaggeredGrid",
    "StateVector",
    "TimeSeries",
    "admissibility_estimate",
    "assemble_generator",
    "b_star",
    "build_grid",
    "build_operators",
    "build_system",
    "closed_loop_spectrum",
    "compute_spectrum",
    "config_from_dict",
    "decay_rate_fit",
    "kernel_basis",
    "load_config",
    "run",
    "simulate",
    "toy_config_dict",
    "toy_parameters",
    "validate_parameters",
]

__version__ = "0.1.0"
