"""Exact graded (q-analogue) Ehrhart theory of unimodular zonotopes."""

from .errors import GuardExceeded, NotUnimodular
from .exact import BiPolyXY, LaurentQ, PolyTQ, RatSeries, expand
from .gehrhart import (
    QIVP,
    GradedCount,
    bar_eval,
    ehr_poly,
    ehr_tpower,
    graded_count,
    interior_series,
    qivp_bar_series,
    qivp_series,
    reciprocity_check,
    series,
)
from .harmonic import (
    GorensteinVerdict,
    SegreGenerators,
    degree1_dim,
    gorenstein_classify,
    graded_hilbert,
    palindrome_check,
    segre_generators,
)
from .matroid import (
    CircuitRep,
    CocircuitVector,
    Realization,
    RealizedMatroid,
    from_matrix,
    tutte_thickened,
)
from .zonalg import (
    GradedIdealSpec,
    external_spec,
    hilbert,
    internal_spec,
)
from .zonotope import HRep, h_rep, lattice_count, tutte_count

__version__ = "0.1.0"

__all__ = [
    "BiPolyXY", "CircuitRep", "CocircuitVector", "GorensteinVerdict",
    "GradedCount", "GradedIdealSpec", "GuardExceeded", "HRep",
    "LaurentQ", "NotUnimodular",
    "PolyTQ", "QIVP", "RatSeries", "Realization", "RealizedMatroid",
    "SegreGenerators", "bar_eval", "degree1_dim", "ehr_poly",
    "ehr_tpower", "expand", "external_spec",
    "from_matrix", "gorenstein_classify", "graded_count", "graded_hilbert",
    "h_rep", "hilbert", "interior_series", "internal_spec", "lattice_count",
    "palindrome_check", "qivp_bar_series",
    "qivp_series", "reciprocity_check", "segre_generators", "series",
    "tutte_count", "tutte_thickened",
]
