"""Finite-dimensional toolkit for commutative spectral triples.

Validate the axioms of a triple, compute the spectral distance on states by
convex optimization, build discrete geometries with incidence Dirac
operators, and check the morphism calculus (metric morphisms, intertwiner
pairs, pullback functor, distance contraction).
"""

from .algebra import (AlgebraElement, AlgebraHom, FiniteCommutativeAlgebra,
                      State, check_epimorphism, compose_homs, function_algebra,
                      gelfand_spectrum, identity_hom, pullback_state)
from .category import (ContractionReport, MetricMorphism, MorphismReport,
                       SfMorphism, check_metric_morphism,
                       check_pullback_contraction, check_sf_morphism,
                       check_unitary_equivalence, compose, crv_pullback,
                       restriction_morphism)
from .geometry import (ComparisonReport, DiscreteGeometry, GeometryMap,
                       compare_metrics, disjoint_union, geodesic_matrix,
                       graph_triple, lattice_circle, lattice_interval,
                       two_point_geometry)
from .metric import (DistanceMatrix, DistanceValue, brute_force_distance,
                     connes_distance, detect_infinite, distance_matrix)
from .numerics import (hermitian_eig, is_hermitian, is_projection, is_unitary,
                       operator_norm, simultaneous_diagonalize)
from .triple import (AntiunitaryOperator, HochschildChain, OrientabilityReport,
                     RealReport, SpectralTriple, ValidationReport,
                     check_orientability, check_real_structure,
                     conjugate_triple, decompose, decompose_detailed,
                     direct_sum, hochschild_boundary, ko_dimension,
                     omega_basis, represent_chain, standard_ko_triple,
                     validate_triple)

__version__ = "0.1.0"
