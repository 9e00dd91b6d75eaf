"""Exact polynomial maps into nilpotent Lie groups, PET induction with
certified descent, Zariski genericity sampling, and numerical averaging
experiments on nilmanifolds."""

from .averaging import (
    AverageReport,
    JoiningSpec,
    MeanErgodicReport,
    flow_correlation_trajectory,
    mean_ergodic_base,
    scan_with_invariance,
    vdc_check,
)
from .dynamics import (
    NilSystem,
    TestFunction,
    heisenberg3,
    torus,
)
from .errors import CertificateError, ConfigError, TruncationError
from .lie_core import (
    GroupElement,
    LieAlgebraSpec,
    bch_product,
    group_inverse,
    identity,
    make_builtin,
    verify_algebra,
)
from .multipoly import MultiPoly
from .pet import (
    PETTrace,
    PolyFamily,
    Weight,
    derived_family,
    family_precedes,
    pet_trace,
    pivot,
)
from .poly_maps import (
    LeadingTerm,
    PolyMap,
    difference,
    leading_term,
    lt_equivalent,
    polynomial_degree,
)
from .zariski import (
    MeagreSet,
    Variety,
    generic_sample,
    membership,
    nonvanishing_certificate,
    vanishing_variety,
)

__version__ = "0.1.0"

__all__ = [
    "AverageReport",
    "CertificateError",
    "ConfigError",
    "GroupElement",
    "JoiningSpec",
    "LeadingTerm",
    "LieAlgebraSpec",
    "MeagreSet",
    "MeanErgodicReport",
    "MultiPoly",
    "NilSystem",
    "PETTrace",
    "PolyFamily",
    "PolyMap",
    "TestFunction",
    "TruncationError",
    "Variety",
    "Weight",
    "bch_product",
    "derived_family",
    "difference",
    "family_precedes",
    "flow_correlation_trajectory",
    "generic_sample",
    "group_inverse",
    "heisenberg3",
    "identity",
    "leading_term",
    "lt_equivalent",
    "make_builtin",
    "mean_ergodic_base",
    "membership",
    "nonvanishing_certificate",
    "pet_trace",
    "pivot",
    "polynomial_degree",
    "scan_with_invariance",
    "torus",
    "vanishing_variety",
    "vdc_check",
    "verify_algebra",
]
