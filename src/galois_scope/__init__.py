"""galois_scope: exact certification of Galois points on smooth hypersurfaces.

A point p is a Galois point of a smooth hypersurface X of degree d >= 4 when
projection from p induces a Galois extension of function fields; p is inner
if it lies on X and outer otherwise.  This package decides and certifies
Galois points from two independent directions, entirely in exact cyclotomic
arithmetic:

* from an automorphism, by testing its representation matrix for conjugacy
  to diag(a, b*I) with a primitive eigenvalue ratio, in the matrix's own
  field;
* from a candidate point, by reading the polars D_p^j F of F at the point
  and checking that the first one is a constant times L^(d-1) (p off X) or
  T*L^(d-2) (p a smooth point of X, T the tangent form).

Fixed-locus criteria, the plane-curve classification of cyclic actions,
quotient-genus bookkeeping and a corpus of worked instances tie the two
directions together.
"""

from .exactnum import (
    CycloField,
    CycloNum,
    Rat,
    cyclo_field,
    embed_lift,
    recognize_root_of_unity,
    root_of_unity,
)
from .fixlocus import (
    FixedLocusReport,
    codim_criterion,
    curve_criterion,
    fixed_locus,
    power_criterion,
)
from .galois import (
    GaloisCertificate,
    certificate_from_automorphism,
    count_certified_points,
    galois_at_point,
    galois_count_bounds,
)
from .hypersurface import AutWitness, Hypersurface, is_smooth, multiplicity_at_point, verify_automorphism
from .parsing import parse_polynomial, parse_scalar, render_poly, render_scalar
from .planecurves import (
    GroupClosure,
    abelian_constraint_check,
    classify_cyclic,
    coord_point_count,
    group_closure,
    plane_curve_genus,
    quotient_genus,
)
from .polyring import HomogPoly, distinct_root_count
from .projlin import EigenStructure, ProjMatrix, eigen_structure, homology_form, projective_order

__all__ = [
    "AutWitness",
    "CycloField",
    "CycloNum",
    "EigenStructure",
    "FixedLocusReport",
    "GaloisCertificate",
    "GroupClosure",
    "HomogPoly",
    "Hypersurface",
    "ProjMatrix",
    "Rat",
    "abelian_constraint_check",
    "certificate_from_automorphism",
    "classify_cyclic",
    "codim_criterion",
    "coord_point_count",
    "count_certified_points",
    "curve_criterion",
    "cyclo_field",
    "distinct_root_count",
    "eigen_structure",
    "embed_lift",
    "fixed_locus",
    "galois_at_point",
    "galois_count_bounds",
    "group_closure",
    "homology_form",
    "is_smooth",
    "multiplicity_at_point",
    "parse_polynomial",
    "parse_scalar",
    "plane_curve_genus",
    "power_criterion",
    "projective_order",
    "quotient_genus",
    "recognize_root_of_unity",
    "render_poly",
    "render_scalar",
    "root_of_unity",
    "verify_automorphism",
]
