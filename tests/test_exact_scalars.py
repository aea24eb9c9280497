"""No float reaches an exact result.

Poly coefficients and the solvers' working sets are int-coded, and every
division goes through Fraction.  The guard walks every scalar of the outputs
below, every Poly coefficient included, and requires an int or a Fraction:
== cannot tell 2.0 from 2, so the type is pinned.
"""

from collections.abc import Mapping
from fractions import Fraction

from qhlab.forms import _calibration_scales, genuine_loci, table4_row
from qhlab.geometry import GroupData, curvature
from qhlab.lie import equivariant_hom
from qhlab.models import (H_KINDS, ModelSpec, build_model, isotropy_rep, jacobi_equations,
                          maxmodel_equations)
from qhlab.poly import Poly

from oracles import maxmodel_jacobiator

TABLE4_KINDS = H_KINDS + ("QHP", "QHH")


def _scalars(x):
    """Every scalar in x: Poly coefficients, mapping values and sequence items,
    recursively; qhlab's records are namedtuples, so their fields are sequence
    items.  Keys are indices or monomials, and bool fields are flags, so
    neither is a scalar."""
    if isinstance(x, Poly):
        yield from x.terms.values()
    elif isinstance(x, Mapping):
        for v in x.values():
            yield from _scalars(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _scalars(v)
    elif not isinstance(x, bool):
        yield x


def _floats(outputs) -> list:
    return [(type(v), v) for v in _scalars(outputs) if type(v) not in (int, Fraction)]


def test_class_coefficients_and_loci_hold_only_ints_and_fractions():
    outputs = [_calibration_scales(3)]
    outputs += [table4_row(kind, 3) for kind in TABLE4_KINDS]
    outputs += [genuine_loci(kind, 3) for kind in TABLE4_KINDS]
    assert sum(1 for _ in _scalars(outputs)) > 50
    assert _floats(outputs) == []


def test_symbolic_curvature_holds_only_ints_and_fractions():
    skeleton = build_model(ModelSpec("H3", 2, beta=Fraction(3)))
    cur = curvature(GroupData.from_model(skeleton.with_metric(Poly.var("c1"), Poly.var("c2"))))
    outputs = [cur.r4, cur.ricci, cur.weyl, cur.nabla_r]
    assert sum(1 for _ in _scalars(outputs)) > 100
    assert _floats(outputs) == []


def test_solver_kernels_and_jacobiator_hold_only_ints_and_fractions():
    # the kernels behind bracket_space_dims(2), the maxmodel jacobiator that
    # maxmodel_equations reads, and the equations the Jacobi reader returns
    h, rho, order = isotropy_rep(2)
    lam2 = rho.exterior_power(2)
    outputs = [equivariant_hom(lam2, rho, order=order),
               equivariant_hom(lam2, h.adjoint(), order=order),
               maxmodel_jacobiator(2),
               jacobi_equations(2), maxmodel_equations(2)]
    assert sum(1 for _ in _scalars(outputs)) > 100
    assert _floats(outputs) == []
