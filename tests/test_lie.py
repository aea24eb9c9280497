import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhlab.forms import lincomb, wedge
from qhlab.lie import (BilinearMap, LieAlgebra, Representation, derivation,
                       equivariant_hom, matrix_algebra, op_transpose, semidirect, sort_sign)
from qhlab.linalg import Echelon
from qhlab.models import (_sp_pair_rep, ambient_rep, bracket_from_params,
                          horizontal_brackets, isotropy_rep, maximal_vertical_bracket,
                          maxmodel_jacobi_holds, twisted_theta)
from qhlab.poly import Poly
from qhlab.quaternion import sp_basis

from oracles import (casimir, checked, dense_sp_brackets, int_coded, invariant_vectors,
                     is_equivariant, jacobiator_by_triples, rational_forms, trace_form,
                     vertical_brackets)

rng = random.Random(31)


def _dual(rep):
    """The contragredient action rho*(g) = -rho(g)^T."""
    return Representation(rep.algebra, rep.dim,
                          [{c: {r: -x for r, x in col.items()}
                            for c, col in op_transpose(mat).items()} for mat in rep.mats])


def _flatten(b):
    """b as a vector of Hom(Lambda^2 m, target), flat-indexed as by equivariant_hom."""
    pidx = {p: t for t, p in enumerate(combinations(range(b.dim_in), 2))}
    return {pidx[ij] * b.dim_out + k: v for ij, col in b.coeffs.items() for k, v in col.items()}


def _real_trace_pairing(x, y):
    """tr of the product of the real 4r x 4r matrices of x and y: 4 Re tr(x y)."""
    return sum((4 * (a * b).a for (r, t), a in x.items() for (t2, r2), b in y.items()
                if t2 == t and r2 == r), Fraction(0))


def test_sort_sign():
    assert sort_sign((2, 1)) == ((1, 2), -1)
    assert sort_sign((1, 2, 3)) == ((1, 2, 3), 1)
    assert sort_sign((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_sign((1, 1)) is None


DIM = 6
_coef = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_ops = st.dictionaries(st.integers(0, DIM - 1),
                       st.dictionaries(st.integers(0, DIM - 1), _coef, max_size=3),
                       max_size=DIM)


@given(op=_ops, ka=st.integers(1, 3), kb=st.integers(1, 2), data=st.data())
@settings(max_examples=60, deadline=None)
def test_derivation_is_leibniz_over_wedge(op, ka, kb, data):
    a = data.draw(rational_forms(ka, DIM))
    b = data.draw(rational_forms(kb, DIM))

    def D(form):
        return derivation(form, op)

    assert D(wedge(a, b)) == lincomb((1, wedge(D(a), b)), (1, wedge(a, D(b))))


def test_exterior_power_is_a_representation():
    _, rho, _ = isotropy_rep(2)
    lam3 = rho.exterior_power(3)
    assert lam3.dim == 56
    assert not lam3.verified and checked(lam3).verified


def test_jacobiator_abelian():
    abelian = LieAlgebra(5, {})
    assert abelian.verify_jacobi()


def test_jacobiator_sp2_structure_constants():
    alg = LieAlgebra(len(sp_basis(2, 0)), dense_sp_brackets(2, 0))
    assert alg.verify_jacobi()


_SCALARS = {"fraction": _coef,
            "poly": st.builds(lambda a, b: a * Poly.var("c1") + b, _coef, _coef)}


@st.composite
def _sparse_brackets(draw, scalar):
    """A random antisymmetric bracket on R^dim with a few sparse values."""
    dim = draw(st.integers(3, 7))
    pairs = list(combinations(range(dim), 2))
    coeffs = draw(st.dictionaries(st.sampled_from(pairs),
                                  st.dictionaries(st.integers(0, dim - 1), scalar, max_size=3),
                                  max_size=2 * dim))
    return BilinearMap(dim, dim, {ij: {k: c for k, c in col.items() if c}
                                  for ij, col in coeffs.items()})


def _entries(jac):
    """The jacobiator as ordered lists: triples and, per triple, its entries."""
    return [(ijk, list(vec.items())) for ijk, vec in jac.items()]


@given(kind=st.sampled_from(sorted(_SCALARS)), data=st.data())
@settings(max_examples=60, deadline=None)
def test_jacobiator_matches_the_triple_loop(kind, data):
    b = data.draw(_sparse_brackets(_SCALARS[kind]))
    start = data.draw(st.integers(0, b.dim_in))
    expected = {ijk: v for ijk, v in jacobiator_by_triples(b).items() if ijk[1] >= start}
    assert _entries(b.jacobiator(start)) == _entries(expected)


@pytest.mark.parametrize("c_theta", [Fraction(2), Fraction(3)])
def test_jacobiator_matches_the_triple_loop_on_the_maxmodel_algebra(c_theta):
    # the symbolic jacobiator that maxmodel_equations reads (c1, c2 standing
    # for c_theta, c_xi), on the triples with two m-indices, against the
    # triple loop on the same assembled algebra k + H^2: the (k, k, .)
    # triples it skips vanish
    k, rho_k, _ = ambient_rep(2)
    b_k = maximal_vertical_bracket(2, Poly.var("c1"), Poly.var("c2"))
    g = semidirect(k, rho_k, None, b_k)
    oracle = jacobiator_by_triples(g.structure)
    assert oracle and all(j >= k.dim for _, j, _ in oracle)
    assert _entries(g.structure.jacobiator(k.dim)) == _entries(oracle)
    # c_theta = 2 c_xi is the Jacobi locus of the maximal model
    assert maxmodel_jacobi_holds(2, c_theta, Fraction(1)) is (c_theta == 2)


def test_theta_bracket_two_step_nilpotent():
    theta = horizontal_brackets(3)["Theta"]
    assert not theta.jacobiator()


def test_representation_rejects_non_homomorphism():
    alg = LieAlgebra(2, {(0, 1): {0: Fraction(1)}})  # [e0,e1] = e0
    bad = Representation(alg, 2, [{0: {0: Fraction(1)}}, {}])  # rho(e0) = diag(1, 0), rho(e1) = 0
    # rho([e0,e1]) = rho(e0) but [rho(e0), rho(e1)] = 0 -> must raise
    with pytest.raises(ValueError):
        checked(bad)
    assert not bad.verified


def _unit(r, c):
    return {c: {r: Fraction(1)}}


def test_matrix_algebra_reads_gl2_and_certifies_it():
    # E_00, E_01, E_10, E_11 of gl(2): [E_01, E_10] = E_00 - E_11, [E_00, E_01] = E_01, ...
    rho = matrix_algebra([_unit(0, 0), _unit(0, 1), _unit(1, 0), _unit(1, 1)], 2)
    assert rho.verified and rho.algebra.verified and rho.dim == 2
    assert rho.algebra.brackets == {
        (0, 1): {1: Fraction(1)}, (0, 2): {2: Fraction(-1)},
        (1, 2): {0: Fraction(1), 3: Fraction(-1)},
        (1, 3): {1: Fraction(1)}, (2, 3): {2: Fraction(-1)}}
    assert not rho.algebra.structure.jacobiator()
    assert checked(Representation(rho.algebra, 2, rho.mats)).verified


def test_matrix_algebra_rejects_dependent_matrices():
    with pytest.raises(AssertionError, match="linearly dependent"):
        matrix_algebra([_unit(0, 1), _unit(1, 0), {1: {0: Fraction(2)}}], 2)


def test_matrix_algebra_rejects_a_family_not_closed_under_the_commutator():
    # [E_01, E_10] = E_00 - E_11 leaves the span of E_01 and E_10 in gl(2)
    with pytest.raises(AssertionError, match=r"not closed under the commutator at pair \(0,1\)"):
        matrix_algebra([_unit(0, 1), _unit(1, 0)], 2)


nonintegral = st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(2, 7))


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_matrix_algebra_reads_rescaled_matrices_exactly(data):
    # every production family is integral; rescaling each basis matrix by a
    # nonzero rational s_i sends Fraction entries through the reader:
    # c'_ij^k = s_i s_j c_ij^k / s_k, coded as ints where integral
    gl2 = [_unit(0, 0), _unit(0, 1), _unit(1, 0), _unit(1, 1)]
    for mats, dim in ((gl2, 2), (_sp_pair_rep(2, 1)[1].mats, 8)):
        s = data.draw(st.lists(nonintegral, min_size=len(mats), max_size=len(mats)))
        scaled = [{c: {r: s[i] * x for r, x in col.items()} for c, col in m.items()}
                  for i, m in enumerate(mats)]
        alg = matrix_algebra(scaled, dim).algebra
        expected = {(i, j): {k: s[i] * s[j] * c / s[k] for k, c in col.items()}
                    for (i, j), col in matrix_algebra(mats, dim).algebra.brackets.items()}
        assert alg.brackets == expected
        assert all(int_coded(col.values()) for col in alg.brackets.values())
        assert not alg.structure.jacobiator()


def test_invariant_vectors_trivial_rep():
    alg = LieAlgebra(3, {})
    rep = Representation(alg, 4, [{} for _ in range(alg.dim)])
    assert len(invariant_vectors(rep)) == 4


def test_invariant_five_and_four_forms_dimensions():
    h, rho, order = isotropy_rep(3)
    lam5 = _dual(rho).exterior_power(5)
    vecs5 = invariant_vectors(lam5, order)
    assert len(vecs5) == 2
    # Lambda^4 m* splits as e^0 ^ Lambda^3(Im + H) + Lambda^4(Im + H); each
    # graded part carries two trivial modules, so the full count is 4
    lam4 = _dual(rho).exterior_power(4)
    vecs4 = invariant_vectors(lam4, order)
    assert len(vecs4) == 4
    with_e0 = [v for v in vecs4
               if all(0 in S for S in _support(v))]
    without_e0 = [v for v in vecs4
                  if all(0 not in S for S in _support(v))]
    assert len(with_e0) + len(without_e0) == 4


def _support(vec):
    basis = list(combinations(range(12), 4))
    return [basis[t] for t in vec]


def test_equivariant_hom_dimensions_n3():
    h, rho, order = isotropy_rep(3)
    lam2 = rho.exterior_power(2)
    assert len(equivariant_hom(lam2, rho, order=order)) == 5
    assert len(equivariant_hom(lam2, h.adjoint(), order=order)) == 4


def test_named_brackets_span_the_equivariant_spaces():
    h, rho, order = isotropy_rep(3)
    lam2 = rho.exterior_power(2)
    hor = equivariant_hom(lam2, rho, order=order)
    basis = Echelon(hor)
    hz = horizontal_brackets(3)
    flat = [_flatten(b) for b in hz.values()]
    span = Echelon()
    for v in flat:
        assert not basis.reduce(v)  # each named bracket is equivariant
        assert span.add(v)        # and they are linearly independent
    assert span.rank == 5
    vert = equivariant_hom(lam2, h.adjoint(), order=order)
    vbasis = Echelon(vert)
    vspan = Echelon()
    for b in vertical_brackets(3).values():
        v = _flatten(b)
        assert not vbasis.reduce(v)
        assert vspan.add(v)
    assert vspan.rank == 4


def test_equivariance_checker():
    h, rho, _ = isotropy_rep(2)
    theta = horizontal_brackets(2)["Theta"]
    assert is_equivariant(theta, rho, rho.mats)
    broken = BilinearMap(8, 8, {(0, 4): {4: Fraction(1)}})
    assert not is_equivariant(broken, rho, rho.mats)


def _on_module(cas, dim):
    """The Casimir's matrix on the module itself, i.e. on 1-forms."""
    return {c: {r: x for (r,), x in cas({(c,): Fraction(1)}).items()} for c in range(dim)}


def test_casimir_sp1_adjoint_scalar():
    # adjoint representation of sp(1) with its trace form
    basis = sp_basis(1, 0)
    alg = LieAlgebra(3, dense_sp_brackets(1, 0))
    ad = alg.adjoint()
    gram = [[_real_trace_pairing(basis[i], basis[j]) for j in range(3)]
            for i in range(3)]
    c = _on_module(casimir(ad, gram), 3)
    diag = c[0][0]
    for col in range(3):
        assert c.get(col, {}) == {col: diag}


def test_casimir_ambient_on_m_is_scalar():
    k, rho_k, _ = ambient_rep(3)
    c = _on_module(casimir(rho_k, trace_form(rho_k)), 12)  # commutation asserted inside
    diag = c[0][0]
    assert diag != 0
    for col in range(12):
        assert c.get(col, {}) == {col: diag}


def test_semidirect_flat_and_theta():
    h, rho, _ = isotropy_rep(3)
    flat = semidirect(h, rho, None, None)
    assert flat.verify_jacobi(start=h.dim) and flat.dim == h.dim + 12
    theta = bracket_from_params(3, 1, 0, 0, 0, 0)
    g = semidirect(h, rho, theta, None)
    assert g.verify_jacobi(start=h.dim) and g.dim == 25


def test_semidirect_random_family_point():
    h, rho, _ = isotropy_rep(3)
    # family with alpha = 0, gammas = 0: any (beta1, beta2)
    b1 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    b2 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    b = bracket_from_params(3, 0, b1, b2, 0, 0)
    g = semidirect(h, rho, b, None)
    assert g.verify_jacobi(start=h.dim)


def test_semidirect_rejects_non_jacobi():
    h, rho, _ = isotropy_rep(3)
    bad = bracket_from_params(3, 1, 1, 1, 0, 0)  # violates the bracket equations
    assert not semidirect(h, rho, bad, None).verify_jacobi(start=h.dim)


def test_semidirect_rejects_non_equivariant_brackets():
    # the (h, m, m) Jacobi triples are the equivariance of b_m and of b_h
    h, rho, _ = isotropy_rep(2)
    theta = horizontal_brackets(2)["Theta"]
    bad_m = BilinearMap(8, 8, {**theta.coeffs, (0, 1): {2: Fraction(1)}})
    assert not is_equivariant(bad_m, rho, rho.mats)
    assert not semidirect(h, rho, bad_m, None).verify_jacobi(start=h.dim)
    bad_h = BilinearMap(8, h.dim, {(0, 1): {0: Fraction(1)}})
    assert not is_equivariant(bad_h, rho, h.adjoint().mats)
    assert not semidirect(h, rho, None, bad_h).verify_jacobi(start=h.dim)


def test_semidirect_requires_a_verified_algebra_and_a_checked_representation():
    # the triples semidirect skips are certified by h's Jacobi identity and
    # by rho's homomorphism check, so it refuses inputs that lack either
    h, rho, _ = isotropy_rep(2)
    raw = LieAlgebra(h.dim, h.brackets)  # the same constants, never checked
    with pytest.raises(AssertionError, match="verified h"):
        semidirect(raw, checked(Representation(raw, rho.dim, rho.mats)))
    with pytest.raises(AssertionError, match="checked representation"):
        semidirect(h, Representation(h, rho.dim, rho.mats))
    with pytest.raises(AssertionError, match="representation of it"):
        semidirect(h, ambient_rep(2)[1])


def test_semidirect_checks_the_triples_through_the_first_m_index():
    # h = R acting on m = R^2 by diag(1, 0) and [m0, m1] = m1: Jacobi fails
    # only on (h, m0, m1), whose middle index is the first of m
    h = LieAlgebra(1, {})
    assert h.verify_jacobi()
    rho = checked(Representation(h, 2, [{0: {0: Fraction(1)}}]))
    b = BilinearMap(2, 2, {(0, 1): {1: Fraction(1)}})
    assert list(semidirect(h, rho, b).structure.jacobiator()) == [(0, 1, 2)]
    assert not semidirect(h, rho, b).verify_jacobi(start=h.dim)


_FAMILY_POINTS = {  # table-3 parameters (alpha, beta1, beta2, gamma1, gamma2)
    None: lambda a, b1, b2, g1, g2: (a, b1, b2, g1, g2),
    "F1": lambda a, b1, b2, g1, g2: (a, 2 * b2, b2, 0, 0),
    "F2": lambda a, b1, b2, g1, g2: (0, b1, b2, 0, 0),
    "F3": lambda a, b1, b2, g1, g2: (0, 0, b2, g1, g1),
    "F4": lambda a, b1, b2, g1, g2: (0, 0, b2, g1, 0),
}


@given(family=st.sampled_from(list(_FAMILY_POINTS)), params=st.tuples(*[_coef] * 5))
@settings(max_examples=30, deadline=None)
def test_semidirect_verdict_is_the_full_jacobiator_at_table3_points(family, params):
    h, rho, _ = isotropy_rep(2)
    b = bracket_from_params(2, *_FAMILY_POINTS[family](*params))
    full = semidirect(h, rho, b).structure.jacobiator()
    holds = semidirect(h, rho, b).verify_jacobi(start=h.dim)
    assert holds is (not full)
    assert holds or family is None


def test_twisted_theta_fails_over_all_of_h():
    # twisted_theta is equivariant only under the centralizer of I, so over
    # all of h the Jacobi identity fails, and only on (h, m, m) triples
    h, rho, _ = isotropy_rep(2)
    b = twisted_theta(2)
    assert not semidirect(h, rho, b).verify_jacobi(start=h.dim)
    full = semidirect(h, rho, b).structure.jacobiator()
    assert full and all(i < h.dim <= j for i, j, _ in full)


def test_common_kernel_order_independence():
    h, rho, order = isotropy_rep(3)
    lam2 = rho.exterior_power(2)
    a = equivariant_hom(lam2, rho, order=order)
    b = equivariant_hom(lam2, rho, order=None)
    sa, sb = Echelon(a), Echelon(b)
    assert sa.rank == sb.rank == 5
    for v in a:
        assert not sb.reduce(v)


def test_equivariant_hom_builds_each_constraint_operator_once(monkeypatch):
    import qhlab.lie as lie
    calls = []
    real = lie.hom_constraint

    def counting(repA, repB, g):
        calls.append(g)
        return real(repA, repB, g)

    monkeypatch.setattr(lie, "hom_constraint", counting)
    h, rho, _ = isotropy_rep(2)
    assert len(equivariant_hom(rho.exterior_power(2), rho)) == 5
    assert sorted(calls) == list(range(h.dim))


def test_equivariant_hom_certificate_rejects_a_wrong_kernel(monkeypatch):
    import qhlab.lie as lie
    _, rho, _ = isotropy_rep(2)
    monkeypatch.setattr(lie, "common_kernel", lambda applies, dim: [{1: Fraction(1)}])
    with pytest.raises(AssertionError, match="non-equivariant"):
        equivariant_hom(rho.exterior_power(2), rho)
