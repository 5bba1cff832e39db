"""Exact d-fold matrix factorizations over computable base rings.

Construct and verify cyclic d-tuples of matrices factoring
multiplication by a central element, decide homotopy with certified
witnesses, form suspensions, cones, and standard triangles, evaluate
the graded hom complex, and reduce modulo a regular element to
windowed periodic complexes with certified (total) acyclicity.
"""

from .context import Context, FreeObj, MatrixMap, compose, eta_map, naturality_check
from .dg import GradedHom, dg_check, dg_differential, graded_hom, h0_dimension, zero_graded
from .errors import (
    CompositionMismatch,
    DeadlineExceeded,
    DFactorError,
    HypothesesUnmet,
    ParseError,
    ShapeMismatch,
    UnsupportedOperation,
)
from .factorization import (
    Cone,
    FactorizationD,
    NotHomotopic,
    Triangle,
    cone,
    cone_comparison,
    direct_sum,
    homotopy_decide,
    identity_morphism,
    is_morphism,
    make_factorization,
    morphism,
    scalar_morphism,
    standard_triangle,
    suspend,
    trivial_factorization,
    unsuspend,
    verify_factorization,
    zero_object,
)
from .fdalg import (
    AlgebraMap,
    CentralElement,
    FDAlgebra,
    check_twist_compatibility,
    is_left_regular,
    monomial_algebra,
    quotient_by_central,
)
from .fields import GF, QQ
from .functors import (
    ComplexWindow,
    EndRingPresentation,
    dual_quotient_check,
    dual_window,
    end_ring_cyclic,
    faithful_check,
    full_lift,
    is_totally_acyclic,
    reduce_mod_f,
    to_sequence,
    window_exact,
)
from .modgb import colon_ideal, is_regular, solve_linear
from .rings import GREVLEX, LEX, Ambient, MonomialOrder, Poly, QuotientRing, groebner

__version__ = "0.1.0"
