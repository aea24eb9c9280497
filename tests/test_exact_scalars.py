"""No float reaches an exact result.

Every exact table is coded where it is made, an int when integral and a
Fraction otherwise: matrices by models._quat_to_slot, bracket tables by the
BilinearMap constructor, Poly coefficients by Poly.  Every division goes
through Fraction.  The guards walk every scalar of the outputs below, every
Poly coefficient included, and require an int or a Fraction, and the coding
rule of every table entry: == cannot tell 2.0 from 2, nor 2 from
Fraction(2), so the type is pinned.
"""

from collections.abc import Mapping
from fractions import Fraction

import pytest

from qhlab.forms import _calibration_scales, first_order_tests, genuine_loci, table4_row
from qhlab.geometry import GroupData, curvature
from qhlab.lie import equivariant_hom
from qhlab.linalg import icode
from qhlab.models import (H_KINDS, MODEL_KINDS, ModelSpec, build_model, isotropy_rep,
                          jacobi_equations, maxmodel_equations)
from qhlab.poly import Poly

from oracles import int_coded, maxmodel_jacobiator

TABLE4_KINDS = H_KINDS + ("QHP", "QHH")


def _scalars(x):
    """Every scalar in x: Poly coefficients, mapping values and sequence items,
    recursively; qhlab's records are namedtuples, so their fields are sequence
    items.  Keys are indices or monomials, bool fields are flags and None
    marks an absent value, so none of them is a scalar."""
    if isinstance(x, Poly):
        yield from x.terms.values()
    elif isinstance(x, Mapping):
        for v in x.values():
            yield from _scalars(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _scalars(v)
    elif x is not None and not isinstance(x, bool):
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


def _spec(kind: str, n: int, c1, c2) -> ModelSpec:
    extra = ({"beta": Fraction(1, 2)} if kind in ("H3", "H5")
             else {"c": Fraction(3, 2)} if kind == "MaxCurved" else {})
    if kind in ("FlatMax", "MaxCurved"):  # sp(1) + sp(n) needs c1 = c2
        c2 = c1
    return ModelSpec(kind, n, c1=c1, c2=c2, **extra)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_every_model_is_int_coded_and_float_free(kind, n):
    # the tables of every kind, its curvature and, at n = 3, its first-order
    # tests, at a Fraction and at an int metric point: the tables' ints must
    # never meet an int metric in a division, whether the metric comes from
    # a spec or, coded as the tables are, straight into curvature
    for c1, c2 in ((Fraction(3, 2), Fraction(1)), (2, 1)):
        model = build_model(_spec(kind, n, c1, c2))
        tables = [model.g.brackets, model.bracket_m.coeffs, model.bracket_h.coeffs,
                  model.rho.mats, model.triple]
        assert sum(1 for _ in _scalars(tables)) > 50
        assert int_coded(_scalars(tables))
        data = GroupData.from_model(model)
        cur = curvature(data._replace(metric=[icode(g) for g in data.metric]))
        outputs = [cur.lam, cur.r4, cur.ricci, cur.scalar, cur.weyl, cur.nabla_r]
        if n == 3:
            outputs.append(first_order_tests(model))
        assert _floats(outputs) == []
