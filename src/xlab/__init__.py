"""Entanglement-purity toolkit for X-state structure of bipartite states.

Modules:
  states   - density-matrix container and parametric state families
  measures - entanglement/purity measures and MEMS boundary curves
  convert  - unitary conversion of general states to X form
  tgx      - true-generalized-X masks and maximally entangled bases
  linalg   - shared Hermitian linear algebra helpers
  cli      - seeded experiment harness and command-line interface

`cli` is not imported here, so that `python -m xlab.cli` runs it fresh.
"""

from . import convert, errors, linalg, measures, states, tgx
from .convert import (
    ConversionResult,
    closed_form_conversion,
    conversion_unitary,
    find_x_equivalent,
)
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    RankError,
    SpectralMismatchError,
    XLabError,
)
from .measures import (
    anti_x_measure,
    concurrence,
    concurrence_x,
    mems_boundary_2x2,
    mems_boundary_2x3,
    negativity_e,
    purity,
)
from .states import DensityMatrix, XParams, closed_form_x
from .tgx import ElementMask, anti_x_mask, project_tgx, tgx_mask

__all__ = [
    "cli", "convert", "errors", "linalg", "measures", "states", "tgx",
    "ConversionResult", "closed_form_conversion", "closed_form_x",
    "conversion_unitary", "find_x_equivalent",
    "ConfigError", "DimensionError", "DomainError", "RankError",
    "SpectralMismatchError", "XLabError",
    "anti_x_measure", "concurrence", "concurrence_x", "mems_boundary_2x2",
    "mems_boundary_2x3", "negativity_e", "purity",
    "DensityMatrix", "XParams",
    "ElementMask", "anti_x_mask", "project_tgx", "tgx_mask",
]

__version__ = "0.1.0"
