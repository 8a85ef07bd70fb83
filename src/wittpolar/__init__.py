"""Exact arithmetic for p-polar rings, p-typical Witt and co-Witt vectors,
idempotent splitting of reduced algebras, and p-typical formal group laws."""

from .exact import IntegralityViolation, MultiPoly, Rational, TruncSeries
from .gfq import (FqField, additive_poly_roots, combine, embed, gf_build,
                  linear_kernel, mat_vec, semilinear_kernel)
from .ppolar import (LengthNotAdmissible, PolarIdeal, PPolarAlgebra,
                     check_assoc, extend_scalars, free_polar_basis,
                     ideal_generated, ideal_power_nilpotent,
                     nilpotence_index, nilradical, polarize, quotient)
from .wittuniv import (DworkCongruenceFailed, UnivWittPoly, dwork_lift,
                       ghost_polys, polar_degree_check, reduce_mod_p,
                       universal_polys)
from .wittmod import (CwuClass, WittVector, cwu_add, cwu_class, cwu_F, cwu_V,
                      frobenius_charp, scalar_mul, teichmuller, verschiebung,
                      w_add, w_neg, w_product, witt)
from .cowitt import CoWittElement, cw_add, cw_F, cw_V, cw_validate
from .etale import (Decomposition, ExtensionCapExceeded, NotAMorphism,
                    NotReduced, decompose, find_idempotent, geometric_points,
                    hom_check, phi_matrix, split_once)
from .fgl import (BivariateLaw, LawNotIntegral, LawNotPolar,
                  NonNilpotentElement, PTypicalLog, exp_from_log, group_law,
                  mu_pinfty_group, support_check, typicalize_log)

__version__ = "0.1.0"
