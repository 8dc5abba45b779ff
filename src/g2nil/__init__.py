"""Exterior algebra, Chevalley-Eilenberg calculus and (purely) coclosed
G2-structures on 7-dimensional 2-step nilpotent Lie algebras.

The package is organized bottom-up:

* :mod:`g2nil.exterior` -- multilinear algebra: k-forms, wedge, interior
  product, metric inner products, Hodge star.
* :mod:`g2nil.liealg` -- Lie algebras from structure constants, the
  Chevalley-Eilenberg differential, the Ricci operator in the basis e and
  nilsolitons.
* :mod:`g2nil.g2su3` -- G2-structures from coframes, torsion reports and
  calibration checks.
* :mod:`g2nil.structure` -- existence criteria for (purely) coclosed
  G2-structures on 2-step nilpotent algebras with dim n' in {1, 2, 3}.
* :mod:`g2nil.construct` -- constructive witnesses: adapted coframes
  realizing the structures the criteria predict.
* :mod:`g2nil.catalog` -- the built-in catalog of the sixteen algebras,
  their metric families, pinned fixtures and the regression table.
* :mod:`g2nil.cli` -- the ``g2nil`` command-line tool.
"""

from .exterior import (
    DegenerateError,
    ExactnessError,
    G2nilError,
    KForm,
    Mode,
    ModeMismatchError,
    ToleranceError,
    close,
    form_inner,
    hodge,
    resolve_tolerance,
    top_wedge_coeff,
    volume_form,
)
from .liealg import (
    LieAlgebra,
    Metric,
    NilsolitonReport,
    UnsupportedAlgebraError,
    is_nilsoliton,
    jz_matrix,
    ricci_operator,
)
from .g2su3 import (
    G2Structure,
    TorsionReport,
    calibrates,
    induced_metric,
    phi_from_coframe,
    phi_standard,
    starphi_standard,
    torsion_class,
)
from .structure import (
    CriterionReport,
    MetricDecomposition,
    coclosed_always,
    coclosed_exists,
    decompose,
    m_matrix,
    purely_coclosed_exists,
    sd_basis_forms,
    sd_gram,
    symmetrize_M,
)
from .construct import (
    Construction,
    construct,
    construct_case1,
    construct_selfdual,
)
from . import catalog
from .catalog import UnknownAlgebraError

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exterior
    "DegenerateError", "ExactnessError", "G2nilError", "KForm", "Mode",
    "ModeMismatchError", "ToleranceError", "close", "form_inner", "hodge",
    "resolve_tolerance", "top_wedge_coeff", "volume_form",
    # liealg
    "LieAlgebra", "Metric", "NilsolitonReport", "UnsupportedAlgebraError", "is_nilsoliton",
    "jz_matrix", "ricci_operator",
    # g2su3
    "G2Structure", "TorsionReport", "calibrates", "induced_metric",
    "phi_from_coframe", "phi_standard", "starphi_standard", "torsion_class",
    # structure
    "CriterionReport", "MetricDecomposition",
    "coclosed_always", "coclosed_exists", "decompose", "m_matrix",
    "purely_coclosed_exists", "sd_basis_forms", "sd_gram", "symmetrize_M",
    # construct
    "Construction", "construct", "construct_case1", "construct_selfdual",
    # catalog
    "catalog", "UnknownAlgebraError",
]
