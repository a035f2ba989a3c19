"""Exact-arithmetic Lie algebroid calculus over explicit coordinate rings.

The library computes with Lie algebroids presented by anchor and bracket
data on free modules over polynomial or Laurent polynomial charts:
differential forms and windowed cohomology, connections and curvature
obstructions, matched pairs and their double complex, twisted enveloping
algebras as confluent rewriting systems, and two-chart global models
with cocycle pairs, Atiyah classes, and bunches of local connections.
All coefficients are rationals; every verdict is exact or explicitly
labeled window-relative.
"""

from .rings import (ChartRing, RingElement, RingMap, RingError, poly_ring,
                    laurent_ring, ring_arith, apply_derivation, apply_ring_map)
from .linalg import SparseSystem
from .core import (Algebroid, AlgebroidMorphism, Section, StructureError,
                   InputError, InternalError, make_tangent,
                   make_trivial_bundle, make_lie_algebra_bundle,
                   make_foliation, make_poisson, make_log, verify_axioms)
from .forms import (LForm, TruncationWindow, CohomologyReport, d_L, wedge,
                    contract, function_form, basis_covector, covariant_d,
                    truncated_cohomology, exactness_solve, residue_certificate)
from .connections import (Connection, CurvatureTensor, EValuedForm, curvature,
                          is_flat, extend_connection, chern_trace_form,
                          obstruction_trace_check, pull_connection)
from .matched import (MatchedPair, DoubleComplexSlice, verify_matched,
                      twilled_sum, total_cohomology_compare)
from .pbw import (RelationSystem, PbwElement, SymElement, AmbiguityReport,
                  GeneratorMap, build_relations, normal_form, confluence_check,
                  gr_symbol, extension_from_cocycle, cocycle_from_extension,
                  pushforward_algebra_map)
from .cech import (Cover, Overlap, CechPair, LocalConnectionBunch,
                   make_p1_cover, push_algebroid, verify_cocycle,
                   coboundary_test, atiyah_cocycle, glue_sridharan,
                   verify_lambda_module, line_bundle_cech_dims, zero_pair)
from .parser import parse, parse_word, render, Diagnostic

__all__ = [name for name in dir() if not name.startswith("_")]
