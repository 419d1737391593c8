"""gvkernel: chart-level exterior calculus for Jacobi structures.

Verifies Jacobi axioms, classifies regular structures (LCS / contact type),
builds Godbillon-Vey defining pairs and representatives, Poissonizes, and
property-checks the identities relating all of the above.

Everything is immutable after construction and safe to share across
threads; multi-point numeric evaluation may run in parallel.
"""

from .alg import (AlgebraError, DiffForm, GradedElement, MultiVector,
                  contract_form_into_mv, contract_mv_into_form, power, sharp,
                  wedge)
from .calculus import (exterior_derivative, lie_derivative, schouten,
                       schouten_bruteforce)
from .dsl import DslError, ProblemFile, parse_form, parse_multivector, \
    parse_problem, parse_scalar
from .duality import (NoCompanion, StarCompanion, VolumeContext, VolumeError,
                      phi, phi_inv, psi, star, volume_context)
from .expr import (Chart, CheckFailure, CheckResult, DomainError, ExprError,
                   InsufficientSamples, KernelError, Point, Sampler, ScalarExpr, cos_,
                   diff, evaluate, exp_, first_row, is_zero, ln_, sin_,
                   vanishing_point)
from .fixtures import FIXTURE_NAMES, Fixture, get_fixture
from .jacobi import (AxiomViolation, CodimOutOfRange,
                     DefiningPair, InvariantFailure, JacobiError,
                     JacobiStructure, NotCodimOne, NotContact, NotLCS,
                     NotRegular, ParityObstruction, Poissonization,
                     RescaleVanishes, check_poissonization_bridge,
                     conformal_rescale, contact_to_jacobi, defining_pair,
                     gv_codim1, gv_representative, lcs_to_jacobi, poissonize,
                     require_codim, unimodularity, verify_jacobi)

__all__ = [
    # expr
    "Chart", "CheckFailure", "CheckResult", "DomainError", "ExprError",
    "InsufficientSamples", "KernelError", "Point", "Sampler", "ScalarExpr", "cos_", "diff",
    "evaluate", "exp_", "first_row", "is_zero", "ln_", "sin_",
    "vanishing_point",
    # alg
    "AlgebraError", "DiffForm", "GradedElement", "MultiVector",
    "contract_form_into_mv", "contract_mv_into_form", "power", "sharp",
    "wedge",
    # calculus
    "exterior_derivative", "lie_derivative", "schouten",
    "schouten_bruteforce",
    # duality
    "NoCompanion", "StarCompanion", "VolumeContext", "VolumeError", "phi",
    "phi_inv", "psi", "star", "volume_context",
    # jacobi
    "AxiomViolation", "CodimOutOfRange", "DefiningPair",
    "InvariantFailure", "JacobiError", "JacobiStructure", "NotCodimOne",
    "NotContact", "NotLCS", "NotRegular", "ParityObstruction",
    "Poissonization", "RescaleVanishes", "check_poissonization_bridge",
    "conformal_rescale", "contact_to_jacobi", "defining_pair", "gv_codim1",
    "gv_representative", "lcs_to_jacobi", "poissonize", "require_codim",
    "unimodularity", "verify_jacobi",
    # fixtures / dsl
    "FIXTURE_NAMES", "Fixture", "get_fixture", "DslError", "ProblemFile",
    "parse_form", "parse_multivector", "parse_problem", "parse_scalar",
]

__version__ = "0.1.0"
