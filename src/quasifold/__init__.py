"""Exact affine atlases of complex toric quasifolds.

Given a fundamental triple (simplicial fan, quasilattice, ray generators)
over the rationals, a real number field, or a rational-function parameter
field, this package compiles the canonical affine atlas exactly: per-chart
discrete groups, fixed points, relations among the rays, and transition
maps written as generalized Laurent monomials with exact exponents.  A
polytope front-end derives triples from facet presentations via the normal
fan, and a numeric harness spot-checks the algebra at sampled points.
"""

from .scalars import (DomainMismatchError, IndeterminateSignError,
                      NumberFieldDomain, RationalDomain,
                      RationalFunctionDomain, Scalar, ScalarDomain,
                      ScalarSyntaxError, parse_scalar)
from .linalg import (DimensionMismatchError, Matrix, SingularMatrixError,
                     dot, integer_solve, solve_general)
from .triples import (Fan, FundamentalTriple, Quasilattice, ValidationReport,
                      WitnessRecoveryError, ray_membership, validate,
                      with_recovered_witnesses)
from .atlas import (Atlas, Chart, CocycleReport, OrbitRow, build_chart,
                    cocycle_check, fixed_point, orbit_report, relations,
                    render_terms, term_texts, transition_map)
from .polytopes import (Facet, GenericityError, NormalFanResult, Polytope,
                        SimplicityError, Vertex, enumerate_vertices,
                        normal_fan, to_triple)
from .verify import (GroupMembership, NumericAtlas, TrialConfig, TrialFailure,
                     TrialReport, VerificationSummary,
                     check_branch_invariance, check_connecting_element,
                     check_factorization, check_transition_equivariance,
                     verify_triple)
from .documents import (InputDocument, InputError, build_report,
                        document_to_triple, load_document, load_input_schema,
                        load_report_schema, render_json_report,
                        render_text_report,
                        specialize_document, TOOL_VERSION)
from .gallery import GALLERY_NAMES, load_gallery

__version__ = TOOL_VERSION

__all__ = [name for name in dir() if not name.startswith("_")]
