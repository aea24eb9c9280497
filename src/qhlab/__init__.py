"""qhlab: exact models and classification of submaximally symmetric almost
quaternion-Hermitian homogeneous spaces."""

from .forms import (ClassReport, FirstOrderReport, GenuineLoci, IsotypicPair,
                    first_order_tests, fundamental_forms, genuine_loci,
                    isotypic_split, table4_row)
from .geometry import GroupData, RiemannClass, classify, curvature, nomizu
from .lie import (BilinearMap, LieAlgebra, Representation, equivariant_hom,
                  semidirect)
from .models import (HomogeneousModel, ModelSpec, NormalForm, build_model,
                     dims, in_families, jacobi_equations, normalize,
                     symbolic_model)
from .poly import Poly, proportionality
from .quaternion import Quaternion, rat, sp_basis

__all__ = [
    "BilinearMap", "ClassReport", "FirstOrderReport", "GenuineLoci",
    "GroupData", "HomogeneousModel", "IsotypicPair", "LieAlgebra",
    "ModelSpec", "NormalForm", "Poly", "Quaternion",
    "Representation", "RiemannClass", "build_model", "classify", "curvature",
    "dims", "equivariant_hom", "first_order_tests",
    "fundamental_forms", "genuine_loci", "in_families", "isotypic_split",
    "jacobi_equations", "nomizu", "normalize", "proportionality", "rat",
    "semidirect", "sp_basis", "symbolic_model", "table4_row",
]

__version__ = "0.1.0"
