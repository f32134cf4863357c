"""Noncommutative L^p toolkit on finite traced matrix algebras.

Core objects: weighted-trace block algebras and their Schatten norms
(``algebra``), finite *-algebras in structure-constant form (``star``),
positive sesquilinear maps (``sesquilinear``), Cauchy-Schwarz and uncertainty
checkers (``inequalities``), numerical-radius-type norms and operator-valued
checks (``radius``), GNS-type representations (``gns``), kernel-driven map
families (``kernels``), serialization (``matrixio``) and the batch driver
(``cli``).  Every status they report, the rules that decide it and the
positivity certificate come from ``verdict``.
"""

from .algebra import (AlgebraElement, PExponent, TracedAlgebra, dual_norm_achiever,
                      functional_calculus, holder_check, jordan_split,
                      polar_decomposition, real_imag_parts, schatten_norm,
                      spectral_tail_projection, trace, trace_pairing_checks)
from .errors import (ConditioningError, DomainError, InconsistencyError,
                     PreconditionError, StructureError)
from .gns import GnsRepresentation, gns_construct, null_space, verify_representation
from .inequalities import (UncertaintyReport, check_cs_lp, check_cs_normal, check_re_im,
                           ratio_sampler, uncertainty_check)
from .kernels import KernelMap, bound_checks
from .radius import (OperatorValuedMap, SearchBudget, SuperOperator, TripleNormResult,
                     check_cs_operator_valued, numerical_radius, superop_norm,
                     triple_norm)
from .sesquilinear import (SesquilinearMap, check_left_invariance, check_positivity,
                           evaluate, from_linear_map, random_map)
from .star import (AlgebraVector, StarAlgebra, cyclic_group_algebra, matrix_algebra,
                   matrix_units_algebra)
from .verdict import InequalityReport, PositivityCertificate

__version__ = "0.1.0"
