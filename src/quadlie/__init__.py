"""quadlie: exact-arithmetic toolkit for quadratic Lie algebras.

Construction of the classical families (oscillators, Heisenberg and free
nilpotent algebras, truncated current algebras), the T*-extension and double
extension machines, solvers for invariant bilinear forms and derivation
algebras, metrizability certificates, perp duality on ideals, and locality
analysis. All arithmetic is exact over the rationals.
"""

from .linalg import Matrix, Poly, Q, Subspace, det, det_pencil, kernel, rref, solve
from .lie import LieAlgebra, SeriesReport, TypePair, direct_sum
from .forms import (BilinearForm, PatternReport, QuadraticAlgebra,
                    QuadraticSearch, duality_report, find_nondegenerate_proper_ideal,
                    find_quadratic_structure, invariant_forms, is_invariant,
                    omega_dual, orthogonal_complement, pattern_report,
                    quadratic_direct_sum, validate_quadratic)
from .hall import free_nilpotent, mobius, witt_dim
from .build import (Cocycle2, Representation, a_sl2, abelian, abelian_quadratic,
                    double_extension, double_extension_by_derivation,
                    generalized_oscillator, heisenberg, n23_quadratic, n23s,
                    n32_quadratic, n32s, oscillator_d4, sl2, sl2_killing_quadratic,
                    sl2_module, sl2_module_form, split_h3_extension,
                    tensor_truncated, tstar_extension)
from .derivations import (DerivationSpace, bracket_closed, derivations,
                          inner_derivations, is_derivation, is_skew,
                          skew_derivations)
from .analysis import (AnalysisReport, analyze, chain_dot, chain_nodes,
                       classify_local_quadratic, is_chain, is_local)
from .fileio import ParseError, parse, serialize

__version__ = "0.1.0"
