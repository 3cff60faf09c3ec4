"""Exact ramification invariants for wildly ramified covers of curve germs.

Modules:
  errors   -- exception types and the one reader of malformed documents
  gf       -- small finite fields F_{p^a}, deterministic moduli, Frobenius roots
  laurent  -- exact Laurent polynomials, p-power decomposition, prime-to-p degree
  ascover  -- degree-q cover data: standard form, conductor, isomorphism, s_iota
  ramfilt  -- ramification filtrations, Herbrand transition, reduction
  moduli   -- dimension counts, bounds and the exact rules for equiramified
              deformation spaces
  series   -- truncated Laurent series with exact precision tracking
  tower    -- degree-p towers, the valuation oracle, genus/p-rank, the
              quaternion family
  cli      -- the `ramify` command-line front end
"""

from .errors import DomainError, PrecisionError, SchemaError
from .gf import Field, FieldElement, degree_over_prime, field_create, root_of_unity
from .laurent import LaurentPoly, p_power_decompose, prime_to_p_degree
from .ascover import (ASCover, check_equivariance, conductor, is_connected,
                      is_isomorphic, modify_cover, s_iota, standard_form)
from .ramfilt import (RamFiltration, ReducedFiltration, herbrand_phi,
                      herbrand_psi, jumps_with_multiplicity, last_piece_s_iota,
                      lower_to_upper, reduce, upper_to_lower, validate)
from .moduli import DimensionReport, dim_bounds, dim_ordinary, dimension, n_count
from .series import TruncatedSeries
from .tower import (FiberReport, GeneratorAction, OracleRun, TowerSpec,
                    TowerStep, evaluate_quaternion_fiber, genus_rh,
                    oracle_run, p_rank_ds, quaternion_tower)

__version__ = "0.1.0"

__all__ = [
    "ASCover", "DimensionReport", "DomainError", "Field", "FieldElement",
    "FiberReport", "GeneratorAction", "LaurentPoly", "OracleRun",
    "PrecisionError", "RamFiltration", "ReducedFiltration", "SchemaError",
    "TowerSpec", "TowerStep", "TruncatedSeries", "check_equivariance",
    "conductor", "degree_over_prime", "dim_bounds", "dim_ordinary",
    "dimension", "evaluate_quaternion_fiber",
    "field_create", "genus_rh", "herbrand_phi", "herbrand_psi",
    "is_connected", "is_isomorphic", "jumps_with_multiplicity",
    "last_piece_s_iota", "lower_to_upper", "modify_cover", "n_count",
    "oracle_run", "p_power_decompose", "p_rank_ds",
    "prime_to_p_degree", "quaternion_tower", "reduce",
    "root_of_unity", "s_iota", "standard_form", "upper_to_lower", "validate",
]
