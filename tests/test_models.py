import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhlab import models
from qhlab.cli import main
from qhlab.lie import LieAlgebra, matrix_algebra, op_compose, op_is_zero, op_sub
from qhlab import lie
from qhlab.linalg import Echelon
from qhlab.models import (H_KINDS, MODEL_KINDS, ModelSpec, _action, _certified_triple, _complement,
                          _restrict_rep, ambient_rep, ambient_triple,
                          apply_scaling, bracket_from_params, bracket_space_dims, build_model,
                          dims, h_kind_tuples, horizontal_brackets, in_families,
                          inadmissible_hom_dim, isotropy_rep, jacobi_equations,
                          maxmodel_equations, maxmodel_jacobi_holds, normalize,
                          maximal_vertical_bracket, quaternionic_triple, symbolic_model,
                          twisted_theta, violated_equations, xi_operator)
from qhlab.poly import Poly, proportionality
from qhlab.quaternion import IM_UNITS, Q_I, UNITS, Quaternion, sp_basis

from oracles import (SP1_BRACKETS, checked, dense_sp_brackets, hermitian_metric, int_coded,
                     invariant_vectors, is_equivariant, matrix_algebra_by_tagged_echelon,
                     maxmodel_jacobi_by_assembly, maxmodel_jacobiator, quaternion,
                     reductive_split, rotated_triple, shifted, swapped_complement,
                     vertical_brackets)

rng = random.Random(4242)


def _apply(mat, vec):
    """A quaternionic matrix {(row, col): entry} applied to a column vector."""
    out = [Quaternion() for _ in vec]
    for (r, c), a in mat.items():
        out[r] = out[r] + a * vec[c]
    return out


def test_dims_formulas():
    assert dims(3) == {"D": 36, "d": 25, "delta": 13}
    assert dims(2)["D"] == 21 and dims(2)["d"] == 15
    assert dims(1)["D"] == 10 and dims(1)["d"] == 8
    assert dims(4) == {"D": 55, "d": 40, "delta": 24}


def test_isotropy_rep_structure():
    h, rho, order = isotropy_rep(3)
    assert h.dim == 13 and rho.dim == 12
    # sp(1) acts trivially exactly on the real slot
    for g in range(3):
        assert 0 not in rho.mats[g]
        assert any(4 * p + u in rho.mats[g] for p in range(3) for u in range(4))
    # sp(n-1) acts trivially on the whole first slot
    for g in range(3, h.dim):
        for u in range(4):
            assert u not in rho.mats[g]
    with pytest.raises(ValueError):
        isotropy_rep(1)


def _theta_oracle(n, p, u, q, v):
    """Direct sum over a = i, j, k of g(q1 a, q2) a on basis arguments."""
    vec1 = [Quaternion() for _ in range(n - 1)]
    vec2 = [Quaternion() for _ in range(n - 1)]
    vec1[p - 1] = UNITS[u]
    vec2[q - 1] = UNITS[v]
    out = Quaternion()
    for a in IM_UNITS:
        coeff = hermitian_metric(tuple(x * a for x in vec1), tuple(vec2))
        out = out + a * coeff
    return out


def test_theta_matches_oracle():
    theta = horizontal_brackets(3)["Theta"]
    for p in (1, 2):
        for u in range(4):
            for q in (1, 2):
                for v in range(4):
                    if (p, u) >= (q, v):
                        continue
                    got = theta.pair(4 * p + u, 4 * q + v)
                    want = _theta_oracle(3, p, u, q, v)
                    expect = {t + 1: c for t, c in
                              enumerate((want.b, want.c, want.d)) if c}
                    assert got == expect
    # spot value: Theta(i_2 e, j_2 e) = -k
    assert theta.pair(5, 6) == {3: Fraction(-1)}


def test_psi_and_upsilon_formulas():
    hz = horizontal_brackets(3)
    assert hz["Psi1"].pair(0, 2) == {2: Fraction(1)}      # Psi1(1, v) = v
    assert hz["Psi2"].pair(0, 9) == {9: Fraction(1)}      # Psi2(1, q) = q
    # Upsilon2(i, q) = q * conj(i) = -q i: at q = 1_2 the value is -i_2
    assert hz["Upsilon2"].pair(1, 4) == {5: Fraction(-1)}
    # Upsilon1(i, j) = 2 Im(i j) = 2k
    assert hz["Upsilon1"].pair(1, 2) == {3: Fraction(2)}


def test_xi_operator_oracle():
    # Xi(q1, q2) q3 = sum_a g(q1 a, q3) q2 a - g(q2 a, q3) q1 a
    n1 = 2  # local dimension of H^{n-1} for n = 3
    for _ in range(40):
        p, q = rng.randrange(n1), rng.randrange(n1)
        u, v = rng.randrange(4), rng.randrange(4)
        mat = xi_operator(p, UNITS[u], q, UNITS[v])
        assert len(mat) <= 2 and all(mat.values())
        for r in range(n1):
            for w in range(4):
                vec3 = [Quaternion() for _ in range(n1)]
                vec3[r] = UNITS[w]
                got = _apply(mat, vec3)
                vec1 = [Quaternion() for _ in range(n1)]
                vec2 = [Quaternion() for _ in range(n1)]
                vec1[p] = UNITS[u]
                vec2[q] = UNITS[v]
                expect = [Quaternion() for _ in range(n1)]
                for a in UNITS:
                    c1 = hermitian_metric(tuple(x * a for x in vec1), tuple(vec3))
                    c2 = hermitian_metric(tuple(x * a for x in vec2), tuple(vec3))
                    for t in range(n1):
                        expect[t] = expect[t] + (vec2[t] * a) * c1 - (vec1[t] * a) * c2
                assert got == expect
    # antisymmetry
    assert xi_operator(0, Q_I, 0, Q_I) == {}


# SHA-256 of _bracket_dump(), recorded from the hand-indexed bracket tables
# that preceded the quaternion rules, so a change of any bracket value, value
# type or insertion order fails here
BRACKET_DUMP_SHA256 = "927a63fc4e81d74f7000113ea3463274f0e6f7b81c2050f38a496ab1bf6e83db"


def _bracket_dump() -> str:
    # the tables hold ints where integral; each rational is rendered as the
    # Fraction it was recorded as, so values and insertion order stay pinned
    def rows(b):
        return repr((b.dim_out, [(ij, {k: v if isinstance(v, Poly) else Fraction(v)
                                       for k, v in col.items()})
                                 for ij, col in b.coeffs.items()]))
    c1, c2 = Poly.var("c1"), Poly.var("c2")
    symbolic = [Poly.var(v) for v in ("alpha", "beta1", "beta2", "gamma1", "gamma2")]
    out = []
    for n in (2, 3, 4):
        out += [name + rows(b) for name, b in horizontal_brackets(n).items()]
        out += [rows(maximal_vertical_bracket(n, ct, cx))
                for ct, cx in ((c1, c2), (2, 1), (Fraction(-3, 2), 5))]
        out += [rows(bracket_from_params(n, *params))
                for params in ((1, 2, 1, 0, 0), (Fraction(-3, 2), 0, Fraction(5, 7), 1, 1),
                               symbolic)]
    out.append(repr(jacobi_equations(3)))
    return "\n".join(out)


def test_bracket_tables_match_the_recorded_digest():
    assert hashlib.sha256(_bracket_dump().encode("utf-8")).hexdigest() == BRACKET_DUMP_SHA256


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrices_and_bracket_tables_are_int_coded(n):
    # _quat_to_slot codes the matrices as it builds them, and the BilinearMap
    # constructor every bracket table: an int when integral, a Fraction otherwise
    mats = isotropy_rep(n)[1].mats + ambient_rep(n)[1].mats
    mats += [*quaternionic_triple(n), *ambient_triple(n)]
    mats += _complement(ModelSpec("QHP", n)) + _complement(ModelSpec("QHH", n))
    assert all(int_coded(col.values()) for mat in mats for col in mat.values())
    tables = list(horizontal_brackets(n).values())
    tables += [maximal_vertical_bracket(n, ct, cx) for ct, cx in ((2, 1), (Fraction(-3, 2), 5))]
    tables += [bracket_from_params(n, *params)
               for params in ((1, 2, 1, 0, 0), (Fraction(-3, 2), 0, Fraction(5, 7), 1, 1))]
    assert all(int_coded(col.values()) for b in tables for col in b.coeffs.values())
    assert any(type(v) is Fraction for b in tables for col in b.coeffs.values()
               for v in col.values())


def test_a_maximal_bracket_value_off_the_ambient_algebra_exits_3(monkeypatch, capsys):
    # a real diagonal entry puts Xi's value off sp(1) + sp(n): the engine's
    # read returns None, and the CLI reports one line instead of a traceback
    real_xi = models.xi_operator

    def off_algebra(p, x, q, y):
        out = dict(real_xi(p, x, q, y))
        out[(p, p)] = out.get((p, p), Quaternion()) + UNITS[0]
        return out
    monkeypatch.setattr(models, "xi_operator", off_algebra)
    code = main(["model-report", "--spec", "MaxCurved:c=1:n=2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("qhlab: internal check failed: ")


def test_vertical_brackets_target():
    vb = vertical_brackets(3)
    assert vb["Xi"].dim_out == 13
    assert all(k >= 3 for col in vb["Xi"].coeffs.values() for k in col)
    assert all(k < 3 for col in vb["ThetaV"].coeffs.values() for k in col)


def test_jacobi_equations_match_reference():
    eqs = jacobi_equations(3)
    assert len(eqs) == 6
    a, b1, b2, g1, g2 = (Poly.var(v) for v in
                         ("alpha", "beta1", "beta2", "gamma1", "gamma2"))
    reference = [a * (b2 * 2 - b1), a * g1, a * g2, b1 * g1, b1 * g2,
                 g2 * (g1 - g2)]
    for eq in eqs:
        assert any(proportionality(eq, ref) for ref in reference)
    for ref in reference:
        assert any(proportionality(ref, eq) for eq in eqs)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_jacobi_equations_do_not_depend_on_n(n):
    # the Table-3 Jacobi variety is the same at every n >= 2: h + m with the
    # five-parameter bracket gives the six generators of n = 3, bytes included
    assert jacobi_equations(n) == jacobi_equations(3)
    assert repr(jacobi_equations(n)) == repr(jacobi_equations(3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_maxmodel_equations_are_c_theta_minus_twice_c_xi(n):
    # "c' Theta + c Xi is Jacobi iff c' = 2c", c1 and c2 standing for c' and c
    assert maxmodel_equations(n) == (Poly.var("c1") - 2 * Poly.var("c2"),)


def test_family_membership_examples():
    assert in_families((0, 0, 0, 0, 0)) == {"F1", "F2", "F3", "F4"}
    assert in_families((1, 2, 1, 0, 0)) == {"F1"}
    beta = Fraction(3)
    assert in_families((0, 2, beta, 0, 0)) == {"F2"}
    assert in_families((0, 0, beta, 1, 1)) == {"F3"}
    assert in_families((0, 0, beta, 1, 0)) == {"F4"}


def test_family_sampling_vs_equations():
    # 200 points per family satisfy all equations; 200 off-family points fail
    def rand():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    def nonzero():
        while True:
            x = rand()
            if x:
                return x

    count = 0
    while count < 200:
        which = count % 4
        if which == 0:
            b2 = rand()
            p = (rand(), 2 * b2, b2, 0, 0)
        elif which == 1:
            p = (0, rand(), rand(), 0, 0)
        elif which == 2:
            g = rand()
            p = (0, 0, rand(), g, g)
        else:
            p = (0, 0, rand(), rand(), 0)
        assert not violated_equations(p)
        count += 1
    count = 0
    while count < 200:
        p = tuple(rand() for _ in range(5))
        if in_families(p):
            continue
        assert violated_equations(p)
        count += 1


def test_normalize_examples():
    nf = normalize((4, 8, 4, 0, 0))
    assert nf.name == "H1+" and nf.s == Fraction(1, 4) and nf.t_sq == Fraction(1, 16)
    assert nf.canonical == (1, 2, 1, 0, 0)
    nf = normalize((-1, 2, 1, 0, 0))
    assert nf.name == "H1-" and nf.s == 1 and nf.t_sq == 1
    nf = normalize((0, 0, 5, 3, 0))
    assert nf.name == "H5" and nf.beta == Fraction(5, 3) and nf.s == Fraction(1, 3)
    assert nf.canonical == (0, 0, Fraction(5, 3), 1, 0)
    with pytest.raises(ValueError):
        normalize((0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        normalize((1, 1, 1, 0, 0))


def test_normalize_witness_and_idempotence():
    def rand():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    def nonzero():
        while True:
            x = rand()
            if x:
                return x

    seen = 0
    while seen < 200:
        which = seen % 4
        if which == 0:
            b2 = nonzero()
            p = (nonzero(), 2 * b2, b2, 0, 0)
        elif which == 1:
            p = (0, nonzero(), rand(), 0, 0)
        elif which == 2:
            g = nonzero()
            p = (0, 0, rand(), g, g)
        else:
            p = (0, 0, rand(), nonzero(), 0)
        nf = normalize(p)
        assert apply_scaling(p, nf.s, nf.t_sq) == nf.canonical
        again = normalize(nf.canonical)
        assert again.canonical == nf.canonical and again.name == nf.name
        assert again.s == 1 and again.t_sq == 1
        seen += 1


def test_modelspec_roundtrip_and_validation():
    spec = ModelSpec.parse("H3:beta=2:n=3:c1=1:c2=1")
    assert spec.kind == "H3" and spec.beta == 2
    assert ModelSpec.parse(spec.to_string()) == spec
    spec = ModelSpec.parse("QHH:n=4:c1=1:c2=3/2")
    assert spec.c2 == Fraction(3, 2)
    assert ModelSpec.parse(spec.to_string()) == spec
    with pytest.raises(ValueError):
        ModelSpec("H3", 3)  # missing beta
    with pytest.raises(ValueError):
        ModelSpec("H4", 3, c1=Fraction(-1))
    with pytest.raises(ValueError):
        ModelSpec("nope", 3)


@pytest.mark.parametrize("kind, c", [("FlatMax", None), ("MaxCurved", Fraction(1))])
def test_maximal_specs_need_one_metric_scale(kind, c):
    # sp(1) + sp(n) acts irreducibly on H^n, so c1 != c2 is no invariant metric
    ModelSpec(kind, 2, c1=Fraction(2), c2=Fraction(2), c=c)
    with pytest.raises(ValueError, match=f"{kind} needs c1 = c2"):
        ModelSpec(kind, 2, c1=Fraction(2), c2=Fraction(1), c=c)


def test_repeated_spec_field_is_rejected():
    with pytest.raises(ValueError, match="duplicate spec field 'c1'"):
        ModelSpec.parse("H4:n=3:c1=1:c1=2")
    with pytest.raises(ValueError, match="duplicate spec field 'n'"):
        ModelSpec.parse("H4:n=3:n=3")


@pytest.mark.parametrize("n", [3, 4])
def test_model_dimensions(n):
    expected = dims(n)["d"]
    for kind, beta in (("H1+", None), ("H1-", None), ("H2", None),
                       ("H3", Fraction(2)), ("H4", None), ("H5", Fraction(1)),
                       ("QHP", None), ("QHH", None)):
        model = build_model(ModelSpec(kind, n, beta=beta))
        assert model.g.dim == expected
        assert model.g.verified


def test_twisted_model(capsys):
    model = build_model(ModelSpec("TwistedTheta", 3))
    assert model.g.dim == dims(3)["d"] - 2
    assert main(["--format", "json", "model-report", "--spec", "TwistedTheta:n=3"]) == 0
    assert json.loads(capsys.readouterr().out)["models"][0]["extras"]["twist_variant"] == "output"
    h, rho, _ = isotropy_rep(3)
    b = twisted_theta(3)
    assert not is_equivariant(b, rho, rho.mats)
    assert is_equivariant(b, model.rho, model.rho.mats)


def test_maximal_models():
    assert maxmodel_jacobi_holds(2, Fraction(2), Fraction(1))
    assert maxmodel_jacobi_holds(2, Fraction(-4), Fraction(-2))
    assert not maxmodel_jacobi_holds(2, Fraction(1), Fraction(1))
    assert not maxmodel_jacobi_holds(3, Fraction(3), Fraction(1))
    flat = build_model(ModelSpec("FlatMax", 2))
    assert flat.g.dim == dims(2)["D"]
    curved = build_model(ModelSpec("MaxCurved", 2, c=Fraction(1)))
    assert curved.g.dim == dims(2)["D"]
    assert curved.bracket_h.coeffs and not curved.bracket_m.coeffs


@given(c=st.fractions(min_value=-4, max_value=4, max_denominator=4),
       on_locus=st.booleans(),
       offset=st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool))
@settings(max_examples=40, deadline=None)
def test_maxmodel_jacobi_iff_c_theta_is_twice_c_xi(c, on_locus, offset):
    c_theta = 2 * c if on_locus else 2 * c + offset
    assert maxmodel_jacobi_holds(2, c_theta, c) is on_locus


@pytest.mark.parametrize("n, count", [(2, 56), (3, 156)])
def test_maxmodel_jacobiator_is_a_multiple_of_c_theta_minus_twice_c_xi(n, count):
    # every component is a nonzero rational multiple of c' - 2c (c1, c2
    # standing for c' = c_theta and c = c_xi), so Jacobi holds iff c' = 2c
    locus = Poly.var("c1") - 2 * Poly.var("c2")
    values = [v for col in maxmodel_jacobiator(n).values() for v in col.values()]
    assert len(values) == count
    assert all(proportionality(v, locus) for v in values)


_MAXMODEL_POINTS = st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                             st.booleans(),
                             st.fractions(min_value=-4, max_value=4, max_denominator=4))


def _holds_as_by_assembly(n, point):
    c, on_locus, offset = point
    c_theta = 2 * c if on_locus else 2 * c + offset
    assert maxmodel_jacobi_holds(n, c_theta, c) is maxmodel_jacobi_by_assembly(n, c_theta, c)


@given(point=_MAXMODEL_POINTS)
@settings(max_examples=40, deadline=None)
def test_maxmodel_jacobi_holds_matches_a_numeric_assembly_at_n2(point):
    _holds_as_by_assembly(2, point)


@given(point=_MAXMODEL_POINTS)
@settings(max_examples=5, deadline=None)
def test_maxmodel_jacobi_holds_matches_a_numeric_assembly_at_n3(point):
    _holds_as_by_assembly(3, point)


def _ordered(brackets):
    return [(ij, list(col.items())) for ij, col in brackets.items()]


@pytest.mark.parametrize("p, q", [(2, 0), (3, 0), (1, 2), (4, 0), (1, 3)])
def test_sparse_sp_constants_match_dense_commutators(p, q):
    # the constants matrix_algebra reads off the action (x, X): q -> X q - q x
    # of H + sp(p,q) on H^(p+q) (R at 0, Im(H) at 1..3, sp_basis from 4) are
    # the ones oracles.reductive_split starts from for QHP (q = 0) and QHH
    # (p = 1): the sp(1) table on Im(H) (the real unit is central) and the
    # dense sp(p,q) commutators, keys and insertion order included
    n = p + q
    mats = [_action(n, u, {}) for u in UNITS] + [_action(n, None, X) for X in sp_basis(p, q)]
    expected = {**shifted(SP1_BRACKETS, 1), **shifted(dense_sp_brackets(p, q), 4)}
    assert _ordered(matrix_algebra(mats, 4 * n).algebra.brackets) == _ordered(expected)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reader_tables_equal_the_tagged_echelon_reader(n):
    # isotropy, ambient, QHP and QHH: keys, insertion order and values as the
    # Fraction reader gives them, and every value coded as the tables are, an
    # int when integral (== alone would not tell 2 from Fraction(2))
    iso = isotropy_rep(n)[1].mats
    families = [(isotropy_rep(n)[0], iso), (ambient_rep(n)[0], ambient_rep(n)[1].mats)]
    for kind in ("QHP", "QHH"):
        mats = iso + _complement(ModelSpec(kind, n))
        families.append((matrix_algebra(mats, 4 * n).algebra, mats))
    for alg, mats in families:
        expected = matrix_algebra_by_tagged_echelon(mats, 4 * n).algebra.brackets
        assert _ordered(alg.brackets) == _ordered(expected)
        assert all(int_coded(col.values()) for col in alg.brackets.values())


def test_reader_echelonises_once_and_composes_nothing(monkeypatch):
    # a count guard, not a timing test: the 40 matrices of QHH at n = 4 are
    # inserted once into the span and once into its tagged copy; no pair is
    # reduced on its own and no Fraction composition is formed
    mats = isotropy_rep(4)[1].mats + _complement(ModelSpec("QHH", 4))
    calls = {"add": 0, "reduce": 0}
    add, reduce = Echelon.add, Echelon.reduce

    def counting(name, fn):
        def wrapped(self, v):
            calls[name] += 1
            return fn(self, v)
        return wrapped

    def no_compose(a, b):
        raise AssertionError("op_compose called")
    monkeypatch.setattr(Echelon, "add", counting("add", add))
    monkeypatch.setattr(Echelon, "reduce", counting("reduce", reduce))
    monkeypatch.setattr(lie, "op_compose", no_compose)
    assert len(mats) == 40 and matrix_algebra(mats, 16).verified
    assert calls == {"add": 80, "reduce": 80}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sp_pair_reps_are_lie_algebras_and_representations(n):
    # the reader's certificate, checked independently: the whole jacobiator
    # vanishes, the action is a homomorphism, and the constants are the
    # sp(1) table followed by the dense sp(m) commutators, in that order
    for rep, m in ((isotropy_rep(n), n - 1), (ambient_rep(n), n)):
        alg, rho, _ = rep
        assert alg.verified and rho.verified and rho.algebra is alg
        assert not alg.structure.jacobiator()
        assert checked(rho) is rho
        expected = {**SP1_BRACKETS, **shifted(dense_sp_brackets(m, 0), 3)}
        assert _ordered(alg.brackets) == _ordered(expected)


@pytest.mark.parametrize("n", [2, 3])
def test_restricted_representations_are_representations(n):
    # TwistedTheta's so(2) + sp(n-1) and the two tori of inadmissible_hom_dim
    h, rho, _ = isotropy_rep(n)
    k, rho_k, _ = ambient_rep(n)
    for alg, rep, gens in ((h, rho, [0] + list(range(3, h.dim))),
                           (k, rho_k, [0]),
                           (k, rho_k, [3 + 3 * s for s in range(n)])):
        restricted = _restrict_rep(rep, alg.subalgebra(gens), gens)
        assert restricted.verified and checked(restricted) is restricted
    assert inadmissible_hom_dim(n, "sp1") == inadmissible_hom_dim(n, "spn") == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_centralizer_and_tori_are_the_sp_layout_index_sets(n, monkeypatch):
    # Z_h(I), read as the isotropy generators commuting with I, and the two
    # tori, read off ambient_rep(n)'s solver order, are the sp(1) + sp(m)
    # layout's A_i plus sp(n-1), A_i, and the diagonal i E_ss of sp(n)
    restricted = _counted(monkeypatch, models, "_restrict_rep")
    build_model(ModelSpec("TwistedTheta", n))
    inadmissible_hom_dim(n, "sp1")
    inadmissible_hom_dim(n, "spn")
    assert [gens for _, _, gens in restricted] == [
        [0] + list(range(3, isotropy_rep(n)[0].dim)), [0], [3 + 3 * s for s in range(n)]]


def test_qhp_isotropy_is_standard():
    # the reductive construction must reproduce the standard isotropy action;
    # the trivial submodule of m is exactly the real line
    model = build_model(ModelSpec("QHP", 3))
    h_std, rho_std, order = isotropy_rep(3)
    triv = invariant_vectors(model.rho, order)
    assert len(triv) == 1 and set(triv[0]) == {0}


@pytest.mark.parametrize("kind", ["QHP", "QHH"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_reductive_models_match_the_whole_algebra_split(kind, n):
    # one reading per bracket gives the algebra, the action and both parts of
    # [m, m] that the Jacobi-checked basis-changed algebra gives, split at dim h
    spec = ModelSpec(kind, n)
    model = build_model(spec)
    g, _, rho, b_m, b_h = reductive_split(spec)
    assert model.g.brackets == g.brackets
    # [m, m] keeps the read's pair order, which the oracle's increasing order matches
    assert _ordered(model.bracket_m.coeffs) == _ordered(b_m.coeffs)
    assert _ordered(model.bracket_h.coeffs) == _ordered(b_h.coeffs)
    assert model.rho.mats == rho.mats
    assert model.rho is isotropy_rep(n)[1]


def test_a_basis_with_a_nonstandard_action_fails_the_reductive_build(monkeypatch):
    spec = ModelSpec("QHP", 3)
    # with h, the swapped matrices are still a basis of H + sp(3) (or this raises)
    matrix_algebra(isotropy_rep(3)[1].mats + swapped_complement(spec), 12)
    monkeypatch.setattr(models, "_complement", swapped_complement)
    with pytest.raises(AssertionError, match="isotropy action on m is not the standard one"):
        build_model(spec)


def test_triple_relations_and_rotation():
    for n, triple in ((3, quaternionic_triple(3)), (2, ambient_triple(2))):
        I, J, K = triple
        dm = 4 * n
        minus = {c: {c: Fraction(-1)} for c in range(dm)}
        for A in (I, J, K):
            assert op_is_zero(op_sub(op_compose(A, A), minus))
        assert op_is_zero(op_sub(op_compose(I, J), K))
    # rotations keep the relations
    for _ in range(10):
        q = quaternion(rng.randint(-4, 4), rng.randint(-4, 4),
                       rng.randint(-4, 4), rng.randint(-4, 4))
        if not q:
            continue
        I, J, K = rotated_triple(quaternionic_triple(3), q)
        minus = {c: {c: Fraction(-1)} for c in range(12)}
        assert op_is_zero(op_sub(op_compose(I, I), minus))
        assert op_is_zero(op_sub(op_compose(I, J), K))


def test_triple_certificate_failures():
    I, J, K = quaternionic_triple(3)
    rho = isotropy_rep(3)[1]
    # the slotwise mixed triple is not invariant under the ambient sp(1) + sp(3)
    with pytest.raises(AssertionError, match="triple span is not isotropy invariant"):
        _certified_triple((I, J, K), ambient_rep(3)[1])
    two_i = {c: {r: 2 * v for r, v in col.items()} for c, col in I.items()}
    with pytest.raises(AssertionError, match="triple element does not square to -Id"):
        _certified_triple((two_i, J, K), rho)
    minus_k = {c: {r: -v for r, v in col.items()} for c, col in K.items()}
    with pytest.raises(AssertionError, match="I J != K"):
        _certified_triple((I, J, minus_k), rho)


def test_a_flipped_sign_fails_the_int_coded_triple_certificate():
    # the triple is int-coded where it is built, and the certificate composes
    # it as given; one entry of I with its sign flipped breaks it there, and
    # an intact triple passes and comes back as the very matrices it was given
    I, J, K = triple = quaternionic_triple(3)
    assert all(type(v) is int for A in triple for col in A.values() for v in col.values())
    rho = isotropy_rep(3)[1]
    flipped = {c: dict(col) for c, col in I.items()}
    col = min(flipped)
    row = min(flipped[col])
    flipped[col][row] = -flipped[col][row]
    with pytest.raises(AssertionError):
        _certified_triple((flipped, J, K), rho)
    certified = _certified_triple(triple, rho)
    assert all(a is b for a, b in zip(certified, triple))


def test_the_triple_is_certified_hermitian_for_every_metric():
    # I conjugated by diag(2 at index 0, 1 elsewhere) still squares to -Id,
    # but is not skew for g_{c1,c2}: only the Hermitian check rejects it
    I, J, K = quaternionic_triple(3)
    scale = {0: 2}
    bent = {c: {r: v * Fraction(scale.get(r, 1), scale.get(c, 1)) for r, v in col.items()}
            for c, col in I.items()}
    minus_id = {c: {c: Fraction(-1)} for c in range(12)}
    assert op_is_zero(op_sub(op_compose(bent, bent), minus_id))
    with pytest.raises(AssertionError, match="metric is not Hermitian for the triple"):
        _certified_triple((bent, J, K), isotropy_rep(3)[1])


def _counted(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that appends to the returned list per call."""
    calls, real = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_each_build_runs_its_certificates_once(kind, monkeypatch):
    # QHP/QHH keep the algebra matrix_algebra read, Jacobi by construction: one
    # semidirect table (the bracket-table equality) and no Jacobi pass.  An H
    # kind assembles once and takes its certificate from the per-n
    # h_kind_tuples (filled first, as any earlier build at n = 3 leaves it), so
    # it runs no Jacobi pass.  FlatMax and MaxCurved assemble once and
    # verify_model runs their one Jacobi pass; TwistedTheta adds the assembly
    # over all of h that must fail Jacobi
    h_kind_tuples(3)
    semidirects = _counted(monkeypatch, models, "semidirect")
    jacobi_passes = _counted(monkeypatch, LieAlgebra, "verify_jacobi")
    beta = Fraction(1, 2) if kind in ("H3", "H5") else None
    c = Fraction(1) if kind == "MaxCurved" else None
    build_model(ModelSpec(kind, 3, beta=beta, c=c))
    expected = {"QHP": (1, 0), "QHH": (1, 0), "TwistedTheta": (2, 2),
                "FlatMax": (1, 1), "MaxCurved": (1, 1)}.get(kind, (1, 0))
    assert (len(semidirects), len(jacobi_passes)) == expected


def test_each_triple_is_certified_once_per_n(monkeypatch):
    certified = _counted(monkeypatch, models, "_certified_triple")
    quaternionic_triple.cache_clear()
    ambient_triple.cache_clear()
    for kind in H_KINDS + ("QHP", "QHH"):
        build_model(ModelSpec(kind, 3, beta=Fraction(1) if kind in ("H3", "H5") else None))
    assert [rho for _, rho in certified] == [isotropy_rep(3)[1]]
    for c in (None, Fraction(1)):
        build_model(ModelSpec("FlatMax" if c is None else "MaxCurved", 3, c=c))
    assert [rho for _, rho in certified] == [isotropy_rep(3)[1], ambient_rep(3)[1]]


def test_symbolic_model_builds():
    m = symbolic_model("H3", 3)
    assert m.g.verified
    val = m.metric[0]
    assert hasattr(val, "terms")  # symbolic scalar


def _cached_state(n):
    # a deep copy of everything the shared sp(1) + sp(m), triple and Jacobi
    # certificate caches hand out
    import copy
    return [(alg.verified, rho.verified, copy.deepcopy(alg.brackets), copy.deepcopy(rho.mats),
             order)
            for alg, rho, order in (isotropy_rep(n), ambient_rep(n))] + \
        [copy.deepcopy(quaternionic_triple(n)), copy.deepcopy(ambient_triple(n)),
         copy.deepcopy(jacobi_equations(n)), copy.deepcopy(dict(h_kind_tuples(n))),
         copy.deepcopy(maxmodel_equations(n))]


def test_sp_pair_reps_are_built_once_and_shared():
    for n in (2, 3):
        assert isotropy_rep(n) is isotropy_rep(n)
        assert ambient_rep(n) is ambient_rep(n)
        assert quaternionic_triple(n) is quaternionic_triple(n)
        assert ambient_triple(n) is ambient_triple(n)
        assert isinstance(isotropy_rep(n)[2], tuple)
        assert isinstance(ambient_rep(n)[2], tuple)


def test_model_builders_leave_the_shared_caches_unchanged():
    before = _cached_state(2)
    for kind in MODEL_KINDS:
        beta = Fraction(1, 2) if kind in ("H3", "H5") else None
        c = Fraction(1) if kind == "MaxCurved" else None
        model = build_model(ModelSpec(kind, 2, beta=beta, c=c))
        model.with_metric(Fraction(1), Fraction(1))
    for kind in H_KINDS + ("QHP", "QHH"):
        symbolic_model(kind, 2)
    bracket_space_dims(2)
    assert maxmodel_jacobi_holds(2, Fraction(-3), Fraction(-3, 2))
    assert not maxmodel_jacobi_holds(2, Fraction(5, 2), Fraction(7, 4))
    assert not maxmodel_jacobi_holds(2, Fraction(0), Fraction(1, 3))
    assert _cached_state(2) == before

