import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhlab.cli import main
from qhlab.forms import (bracket_columns, ce_differential, codifferential, column_sum,
                         contract_pair, first_order_tests, fundamental_forms, genuine_loci,
                         hodge_star, invariant_five_forms, isotypic_split,
                         lincomb, one_form_differentials, plane_coordinates,
                         pullback_all_slots, solve_wedge_omega, table4_row, wedge,
                         _bidegree, _calibration_scales, _domega, _poly_primitive,
                         _symbolic_omega)
from qhlab.lie import derivation, derivation_op, op_apply, sort_sign
from qhlab.linalg import Echelon
from qhlab.models import (H_KINDS, ModelSpec, bracket_space_dims, build_model,
                          horizontal_brackets, in_families, isotropy_rep, quaternionic_triple,
                          symbolic_model)
from qhlab.poly import NVARS, Poly
from oracles import (CLASS_CACHES, casimir_split, class_at, clear_class_caches, domega_by_bracket,
                     domega_by_build, invariant_five_forms_by_kernel,
                     materialised_common_kernel, primitive_by_content, pure_bidegree_by_nullspace,
                     quaternion, rational_forms, rotated_triple, substitute)

rng = random.Random(2024)

F = Fraction


def _model(kind, n=3, c1=1, c2=1, beta=None):
    return build_model(ModelSpec(kind, n, c1=F(c1), c2=F(c2),
                                 beta=None if beta is None else F(beta)))


def _form_inner(a, b, metric):
    """<a, b>_g in an orthonormal frame of the diagonal metric."""
    total = Fraction(0)
    for S, c in a.items():
        if d := b.get(S):
            scale = Fraction(1)
            for i in S:
                scale /= metric[i]
            total += scale * c * d
    return total


def rand_form(n4, k, nterms=5):
    terms = {}
    for _ in range(nterms):
        key = tuple(sorted(rng.sample(range(n4), k)))
        terms[key] = F(rng.randint(-5, 5), rng.randint(1, 3))
    return {S: c for S, c in terms.items() if c}


def test_wedge_basics():
    dx = {(0,): F(1)}
    assert wedge(dx, dx) == {}
    dy = {(1,): F(1)}
    assert wedge(dx, dy) == {(0, 1): F(1)}
    assert wedge(dy, dx) == {(0, 1): F(-1)}
    a, b = rand_form(6, 2), rand_form(6, 2)
    assert wedge(a, b) == wedge(b, a)  # even degrees commute


@cache
def _group_model():
    """H5 at n = 2, beta = 2 (dim m = 8), a Lie group model: bracket_h = 0."""
    model = _model("H5", 2, beta=2)
    assert not model.bracket_h.coeffs
    return model, one_form_differentials(model.bracket_m)


@given(ka=st.integers(0, 3), kb=st.integers(0, 3), data=st.data())
@settings(max_examples=60, deadline=None)
def test_ce_differential_is_a_graded_derivation(ka, kb, data):
    model, d1 = _group_model()
    a, b = data.draw(rational_forms(ka, 8)), data.draw(rational_forms(kb, 8))

    def d(form):
        return ce_differential(form, d1)

    assert d(wedge(a, b)) == lincomb((1, wedge(d(a), b)), ((-1) ** ka, wedge(a, d(b))))


@given(ka=st.integers(0, 3), kb=st.integers(0, 3), kc=st.integers(0, 2), data=st.data())
@settings(max_examples=60, deadline=None)
def test_wedge_is_associative(ka, kb, kc, data):
    a, b, c = (data.draw(rational_forms(k, 8)) for k in (ka, kb, kc))
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_omega_squared_against_pair_expansion():
    # omega ^ omega via the combinatorial definition on pairs, n = 2
    model = _model("FlatMax", 2)
    om_i, _, _, _ = fundamental_forms(model.triple, model.metric)
    expect = {}
    for (s, u), (t, v) in combinations(sorted(om_i.items()), 2):
        ms = sort_sign(s + t)
        if ms is None:
            continue
        key, sign = ms
        expect[key] = expect.get(key, F(0)) + 2 * sign * u * v
    expect = {k: v for k, v in expect.items() if v}
    assert wedge(om_i, om_i) == expect


def test_fundamental_forms_hermitian_positive():
    model = _model("H4", 3, 2, 3)
    om_i, om_j, om_k, omega = fundamental_forms(model.triple, model.metric)
    I = model.triple[0]
    for _ in range(30):
        x = {i: F(rng.randint(-4, 4)) for i in rng.sample(range(12), 4)}
        ix = op_apply(I, x)
        # omega_I(X, I X) = g(X, I(I X)) = -|X|^2 with the trace convention
        val = F(0)
        for (a, b), c in om_i.items():
            val += c * (x.get(a, 0) * ix.get(b, 0) - x.get(b, 0) * ix.get(a, 0))
        norm = sum(model.metric[i] * v * v for i, v in x.items())
        assert val == -norm


def test_d_squared_zero_on_invariant_forms():
    for kind, beta in (("H2", None), ("H3", 2), ("H5", 1), ("QHP", None),
                       ("QHH", None), ("H1-", None)):
        model = _model(kind, 3, 2, 1, beta)
        d1 = one_form_differentials(model.bracket_m)
        _, _, _, omega = fundamental_forms(model.triple, model.metric)
        dom = ce_differential(omega, d1)
        assert ce_differential(dom, d1) == {}


def test_d_squared_zero_on_all_forms_for_group_models():
    # simply transitive models have bracket_h = 0, so d^2 = 0 holds on all forms
    model = _model("H5", 3, 1, 1, beta=2)
    d1 = one_form_differentials(model.bracket_m)
    for _ in range(10):
        alpha = rand_form(12, rng.randint(1, 3))
        dd = ce_differential(ce_differential(alpha, d1), d1)
        assert dd == {}


def test_maurer_cartan_h2_center():
    # one-forms dual to the Im(H) center of the two-step algebra have
    # nonzero differential with Theta coefficients
    model = _model("H2", 3, 1, 1)
    d1 = one_form_differentials(model.bracket_m)
    assert d1[1] != {}
    assert all(i >= 4 and j >= 4 for (i, j) in d1[1])
    assert d1[0] == {}  # the real direction is never a bracket value


def test_hodge_star_identities():
    model = _model("H4", 3, 2, 3)
    metric = model.metric
    one = {(): F(1)}
    vol = hodge_star(one, metric)
    assert hodge_star(vol, metric) == one
    for k in (1, 2, 3):
        for _ in range(10):
            a = rand_form(12, k)
            ss = hodge_star(hodge_star(a, metric), metric)
            sign = (-1) ** (k * (12 - k))
            assert ss == lincomb((sign, a))
            b = rand_form(12, k)
            assert wedge(a, hodge_star(b, metric)) == lincomb((_form_inner(a, b, metric), vol))


def test_codifferential_flat_and_adjointness():
    flat = _model("FlatMax", 2)
    _, _, _, omega = fundamental_forms(flat.triple, flat.metric)
    assert codifferential(omega, one_form_differentials(flat.bracket_m), flat.metric) == {}
    # pointwise adjointness of d and delta holds on the unimodular models
    for kind, beta in (("H2", None), ("H5", 0), ("QHP", None)):
        model = _model(kind, 3, 1, 2, beta)
        d1 = one_form_differentials(model.bracket_m)
        _, _, _, om = fundamental_forms(model.triple, model.metric)
        dom = ce_differential(om, d1)
        lhs = _form_inner(dom, dom, model.metric)
        rhs = _form_inner(om, codifferential(dom, d1, model.metric), model.metric)
        assert lhs == rhs


def test_invariant_five_form_space():
    # the Lambda^5 kernel solve finds exactly two invariant 5-forms, and they
    # span the plane of the two bi-degree parts of e0 ^ Omega_k
    for n in (3, 4, 5):
        forms, kernel = invariant_five_forms(n), invariant_five_forms_by_kernel(n)
        assert len(forms) == len(kernel) == 2
        assert Echelon([*kernel, *map(dict, forms)]).rank == 2, n
    with pytest.raises(ValueError):
        invariant_five_forms(2)


def test_matrix_free_kernel_matches_the_materialised_operators():
    # the reference builds every generator's whole operator on Lambda^5 m
    _, rho, order = isotropy_rep(3)
    basis = list(combinations(range(12), 5))
    index = {S: t for t, S in enumerate(basis)}
    kernel = materialised_common_kernel(
        [(lambda g=g: derivation_op(rho.mats[g], index)) for g in order], len(basis))
    expected = [[(basis[t], v) for t, v in vec.items()] for vec in kernel]
    assert [list(form.items()) for form in invariant_five_forms_by_kernel(3)] == expected
    assert bracket_space_dims(3) == (5, 4)


def test_isotypic_split_labels():
    # theta_EH = e0 ^ Omega_k with Omega_k the unit-metric 4-form of the ambient
    # triple; its two bi-degree parts span the plane; theta_KH is orthogonal
    pair = isotypic_split(3)
    flat = build_model(ModelSpec("FlatMax", 3))
    _, _, _, omega_k = fundamental_forms(flat.triple, flat.metric)
    assert pair.theta_eh == wedge({(0,): F(1)}, omega_k)
    p1, p2 = invariant_five_forms(3)
    assert {_bidegree(S) for S in p1} == {(1, 0, 4)}
    assert {_bidegree(S) for S in p2} == {(1, 2, 2)}
    assert pair.theta_eh == lincomb((1, p1), (1, p2))
    assert sum(c * pair.theta_kh.get(S, 0) for S, c in pair.theta_eh.items()) == 0
    assert len(pair.theta_kh) == len(pair.theta_eh)


def test_invariant_five_forms_build_no_model(monkeypatch):
    # Omega_k is read off the self-certified ambient triple, with no FlatMax
    # build (semidirect table, Jacobi pass, verify_model) behind it
    import qhlab.forms as forms
    from qhlab import models

    def no_model(*args, **kwargs):
        raise AssertionError("invariant_five_forms built a model")
    for name in ("build_model", "_assemble", "verify_model", "semidirect"):
        monkeypatch.setattr(models, name, no_model)
    assert forms.invariant_five_forms.__wrapped__(3) == invariant_five_forms(3)


def _same_line(a, b):
    return bool(a) and Echelon([dict(a), dict(b)]).rank == 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_isotypic_lines_match_the_casimir_split(n):
    # the ambient Casimir's eigenline at the 1-form scalar is theta_EH, the
    # other eigenline theta_KH; the nullspace-extracted pure bi-degree forms
    # of the kernel-solved Lambda^5 plane are the parts of theta_EH
    pair = isotypic_split(n)
    eh, kh, (lam_eh, lam_kh), lam1 = casimir_split(n)
    assert lam_eh == lam1 != lam_kh
    assert _same_line(pair.theta_eh, eh) and _same_line(pair.theta_kh, kh)
    for part, reference in zip(invariant_five_forms(n), pure_bidegree_by_nullspace(n)):
        assert _same_line(part, reference)


def test_class_path_runs_no_kernel_solve(monkeypatch):
    # the invariant 5-form plane and the class coefficients are closed-form:
    # with every kernel solve raising, both class commands keep their codes
    import qhlab.forms as forms
    import qhlab.lie as lie
    clear_class_caches()

    def no_solve(applies, dim):
        raise RuntimeError("kernel solve on the class path")

    monkeypatch.setattr(lie, "common_kernel", no_solve)
    monkeypatch.setattr(forms, "common_kernel", no_solve)
    assert main(["reproduce", "table4", "--n", "3"]) == 1
    assert main(["model-report", "--spec", "H3:beta=1:n=3", "--grid", "1,2"]) == 0


def test_non_invariant_omega_k_exits_3(monkeypatch, capsys):
    # Omega_k of a triple that sp(1) + sp(n) does not preserve fails the
    # invariance certificate: an internal check, not a paper mismatch
    import qhlab.forms as forms

    clear_class_caches()
    monkeypatch.setattr(forms, "ambient_triple", quaternionic_triple)
    try:
        assert main(["reproduce", "table4", "--n", "3"]) == 3
    finally:
        clear_class_caches()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("qhlab: internal check failed: "
                            "Omega_k is not invariant under the ambient algebra\n")


def _class_layer_counts(monkeypatch, n, argv):
    """Run a command at n on empty class-layer caches and count what it makes:
    the symbolic models by kind, the models assembled as (kind, c1, c2),
    whether each dOmega taken is of a bracket column's one-form
    differentials, the Jacobi passes (by algebra dimension), and the
    echelons built of the invariant 5-form plane.  Also returns the size of every class-layer cache
    after the command; each is empty again after clear_class_caches."""
    import qhlab.forms as forms
    from qhlab import lie, models
    clear_class_caches()
    plane = set().union(*invariant_five_forms(n))
    columns = [one_form_differentials(b) for b in horizontal_brackets(n).values()]
    symbolic, built, differentiated, planes, jacobi = [], [], [], [], []
    assemble = models._assemble

    def counted_symbolic(spec):
        symbolic.append(spec.kind)
        return symbolic_model(spec)

    def counted_assemble(spec, *args):
        built.append((spec.kind, spec.c1, spec.c2))
        return assemble(spec, *args)

    def differential(form, d1):
        differentiated.append(d1 in columns)
        return ce_differential(form, d1)

    def echelon(vectors=()):
        vectors = list(vectors)
        if set().union(*vectors) == plane:
            planes.append(len(vectors))
        return Echelon(vectors)

    verify_jacobi = lie.LieAlgebra.verify_jacobi

    def counted_jacobi(alg, **kw):
        jacobi.append(alg.dim)
        return verify_jacobi(alg, **kw)

    monkeypatch.setattr(models, "symbolic_model", counted_symbolic)
    monkeypatch.setattr(models, "_assemble", counted_assemble)
    monkeypatch.setattr(forms, "ce_differential", differential)
    monkeypatch.setattr(forms, "Echelon", echelon)
    monkeypatch.setattr(lie.LieAlgebra, "verify_jacobi", counted_jacobi)
    try:
        code = main(argv)
        filled = [cached.cache_info().currsize for cached in CLASS_CACHES]
    finally:
        clear_class_caches()
    assert all(cached.cache_info().currsize == 0 for cached in CLASS_CACHES)
    return code, symbolic, sorted(built), differentiated, planes, jacobi, filled


def test_each_symbolic_model_is_built_and_differentiated_once(monkeypatch, capsys):
    # every row is a sum of the five bracket columns, each the dOmega of the
    # one shared Omega with no model built: dOmega is taken of the columns
    # only, and no model is built.  The per-n parameter-space jacobiator
    # certifies every H bracket; QHP and QHH's rows are read off the table,
    # and the only Jacobi passes are their two certificates in certified_row,
    # on h + m of dimension 24 + 16
    code, symbolic, built, differentiated, planes, jacobi, filled = _class_layer_counts(
        monkeypatch, 4, ["reproduce", "table4", "--n", "4"])
    assert code == 1
    assert symbolic == built == []
    assert differentiated == [True] * 5 and jacobi == [40, 40] and planes == [2]
    assert all(filled)
    # model-report reads its row and its loci off the columns: the one model
    # built is the rational one for the curvature, which takes its Jacobi
    # certificate from certified_row, so no Jacobi pass runs; the first-order
    # tests at its one grid point then take d of Omega and of star Omega on it
    code, symbolic, built, differentiated, planes, jacobi, _ = _class_layer_counts(
        monkeypatch, 3, ["model-report", "--spec", "H3:beta=1:n=3", "--grid", "1,2"])
    assert code == 0
    assert symbolic == [] and built == [("H3", 1, 1)]
    assert differentiated == [True] * 5 + [False] * 2
    assert planes == [2] and jacobi == []
    capsys.readouterr()


def test_an_off_variety_qh_row_fails_table4_with_exit_3(monkeypatch, capsys):
    # QHP's row with the sign of Xi flipped fails its Jacobi pass in
    # certified_row, where the class layer reads QHP's horizontal parameters:
    # an internal check, not a paper mismatch
    from qhlab import models
    (hz, (tv, p1v, u1v, xi)) = models._QH_ROWS["QHP"]
    monkeypatch.setitem(models._QH_ROWS, "QHP", (hz, (tv, p1v, u1v, -xi)))
    clear_class_caches()
    try:
        code = main(["reproduce", "table4", "--n", "3"])
    finally:
        clear_class_caches()
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("qhlab: internal check failed: "
                            "the QHP bracket fails the Jacobi identity at n=3\n")


def test_a_non_jacobi_h_tuple_fails_the_lie_certificate(monkeypatch, capsys):
    # H2 read as (1, 1, 1, 0, 0), off every Jacobi family: its per-n
    # certificate rejects it before any row is reported, an internal check
    from qhlab import models
    table3_tuple = models.table3_tuple
    monkeypatch.setattr(models, "table3_tuple", lambda name, beta=None: (
        (F(1), F(1), F(1), F(0), F(0)) if name == "H2" else table3_tuple(name, beta)))
    clear_class_caches()
    try:
        code = main(["reproduce", "table4", "--n", "3"])
    finally:
        clear_class_caches()
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("qhlab: internal check failed: "
                            "the H2 bracket fails the Jacobi identity at n=3\n")


def _five_form_state(n):
    # a copy of every form dict the shared five-form caches hand out
    pair = isotypic_split(n)
    forms = (*invariant_five_forms(n), pair.theta_eh, pair.theta_kh)
    return [dict(f) for f in forms]


def test_cached_five_forms_are_read_only():
    pair = isotypic_split(3)
    for form in (*invariant_five_forms(3), pair.theta_eh, pair.theta_kh):
        with pytest.raises(TypeError):
            form[(0, 1, 2, 3, 4)] = F(1)


def test_model_report_leaves_the_cached_five_forms_unchanged(capsys):
    before = _five_form_state(3)
    argv = ["--format", "json", "model-report", "--spec", "H3:beta=1:n=3", "--grid", "1,2"]
    assert main(argv) == 0
    assert '"class_points"' in capsys.readouterr().out
    assert _five_form_state(3) == before


def test_omega_frame_independence():
    model = _model("H3", 3, 2, 1, beta=2)
    _, _, _, omega = fundamental_forms(model.triple, model.metric)
    d1 = one_form_differentials(model.bracket_m)
    dom = ce_differential(omega, d1)
    count = 0
    while count < 50:
        q = quaternion(rng.randint(-5, 5), rng.randint(-5, 5),
                       rng.randint(-5, 5), rng.randint(-5, 5))
        if not q:
            continue
        rotated = model.with_metric(F(2), F(1))._replace(triple=rotated_triple(model.triple, q))
        _, _, _, omega_rot = fundamental_forms(rotated.triple, rotated.metric)
        assert omega_rot == omega
        assert ce_differential(omega_rot, d1) == dom
        count += 1


def test_calibration_nominal_at_n3():
    cal = _calibration_scales(3)
    assert cal.kh_matches_nominal and cal.eh_matches_nominal
    assert cal.s_eh != 0 and cal.s_kh != 0


c1, c2, b2 = (Poly.var(v) for v in ("c1", "c2", "beta2"))
half = F(1, 2)

# Every Table-4 row at n as (f_EH, f_KH): f_EH is the same at every n and
# f_KH is affine in n.  The alpha-rows are the exact halves of the embedded
# reference with the same zero loci, H3/H4 agree with it at n = 3, H5
# mirrors it in the sign of the free parameter, and the bundle models differ
# as documented in the README.
_TABLE4_ROWS = {
    "H1+": lambda n: (3*half*c1**2 + 2*c1*c2 - 2*c2**2,
                      3*half*c1**2 + (n + 5*half)*c1*c2 + (2*n - 1)*c2**2),
    "H1-": lambda n: (-3*half*c1**2 + 4*c1*c2 - 2*c2**2,
                      -3*half*c1**2 + (7*half - n)*c1*c2 + (2*n - 1)*c2**2),
    "H2": lambda n: (3*half*c1**2 - c1*c2, 3*half*c1**2 + (n - half)*c1*c2),
    "H3": lambda n: ((b2 + 2)*c1*c2 - 2*b2*c2**2, (b2 + 2)*c1*c2 + (2*n - 1)*b2*c2**2),
    "H4": lambda n: (c1*c2 - 2*c2**2, c1*c2 + (2*n - 1)*c2**2),
    "H5": lambda n: ((b2 - 1)*c1*c2 - 2*b2*c2**2, (b2 - 1)*c1*c2 + (2*n - 1)*b2*c2**2),
    "QHP": lambda n: (3*half*c1**2 - 3*c1*c2, 3*half*c1**2 + (n - 5*half)*c1*c2),
    "QHH": lambda n: (-3*half*c1**2 - c1*c2, -3*half*c1**2 - (n + 3*half)*c1*c2),
}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_table4_rows_as_functions_of_n(n):
    rows = {kind: table4_row(kind, n) for kind in _TABLE4_ROWS}
    for kind, expected in _TABLE4_ROWS.items():
        assert (rows[kind].f_eh, rows[kind].f_kh) == expected(n), kind
    # bracket linearity over the table-3 normal forms, on both columns
    for col in ("f_eh", "f_kh"):
        got = {kind: getattr(row, col) for kind, row in rows.items()}
        h3 = substitute(got["H3"], {"beta2": 1})
        assert got["H1+"] - got["H2"] == h3, col
        assert got["H1+"] + got["H1-"] == h3 * 2, col


# The plane coordinates of dOmega for each basis bracket of horizontal_brackets
_BRACKET_COLUMNS = {
    "Theta": (-2*c1*c2, -3*c1**2), "Psi1": (0, -2*c1*c2), "Psi2": (-4*c2**2, -2*c1*c2),
    "Upsilon1": (0, 2*c1*c2), "Upsilon2": (0, -4*c1*c2),
}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_bracket_columns_are_one_matrix_for_every_n(n):
    assert dict(bracket_columns(n)) == _BRACKET_COLUMNS


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_column_sum_equals_the_per_kind_build(n):
    # beta2 stays symbolic for H3 and H5, and QHP/QHH's m-brackets are read
    # into the span; every build's e0 ^ Omega is the shared one; __wrapped__
    # runs the column read even where an earlier test filled the cache
    for kind in H_KINDS + ("QHP", "QHH"):
        by_columns = _domega.__wrapped__(kind, n), _symbolic_omega(n)[1]
        assert by_columns == domega_by_build(kind, n), kind


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _jacobi_points(draw):
    """A rational point of one of the Jacobi families F1-F4."""
    family = draw(st.sampled_from(("F1", "F2", "F3", "F4")))
    x, y = draw(_small), draw(_small)
    zero = F(0)
    return {"F1": (x, 2 * y, y, zero, zero), "F2": (zero, x, y, zero, zero),
            "F3": (zero, zero, x, y, y), "F4": (zero, zero, x, y, zero)}[family]


@given(_jacobi_points())
@settings(max_examples=12, deadline=None)
def test_column_sum_equals_the_build_at_random_jacobi_points(params):
    assert in_families(params)
    assert column_sum(3, params) == domega_by_bracket(3, params)[0]


def test_f_eh_column_is_n_uniform():
    for kind in ("H4", "H3", "H1-", "QHH"):
        assert table4_row(kind, 3).f_eh == table4_row(kind, 4).f_eh


def test_f_kh_column_shifts_with_n():
    # the c2^2-type coefficient moves from 5 to 2n - 1; report, never suppress
    row3 = table4_row("H4", 3)
    row4 = table4_row("H4", 4)
    assert row3.f_kh == Poly.parse("c1*c2 + 5*c2^2")
    assert row4.f_kh == Poly.parse("c1*c2 + 7*c2^2")
    cal4 = _calibration_scales(4)
    assert not cal4.kh_matches_nominal and cal4.eh_matches_nominal


def test_qk_point_is_h1_minus():
    row = table4_row("H1-", 3)
    assert class_at(row, 2, 1) == "QK"
    assert class_at(row, 1, 1) == "KEH"
    row_plus = table4_row("H1+", 3)
    assert class_at(row_plus, 2, 1) != "QK"
    # direct differential confirmation
    rpt = first_order_tests(_model("H1-", 3, 2, 1))
    assert rpt.d_omega_zero


def test_domega_in_invariant_plane_symbolically():
    # the zero-residual assertion inside the plane read is the computational
    # proof that every model's class sits in the two fundamental modules;
    # __wrapped__ runs the read even where an earlier test filled the cache
    for kind in ("H1+", "H2", "H3", "H5", "QHP", "QHH"):
        x, y = _domega.__wrapped__(kind, 3)
        assert x or y, kind


_GENUINE_LOCI_N3 = {
    "H1+": ("c1^2*c2^2 + 2*c1*c2^3", "c1^2*c2^2 + 2*c1*c2^3"),
    "H1-": ("c1^2*c2^2 - 2*c1*c2^3", "c1^2*c2^2 - 2*c1*c2^3"),
    "H2": ("c1^2*c2^2", "c1^2*c2^2"),
    "H3": ("beta2*c1*c2^3 - 2*c1*c2^3", "3*beta2*c1*c2^3 + c1*c2^3"),
    "H4": ("c1*c2^3", "c1*c2^3"),
    "H5": ("beta2*c1*c2^3 + c1*c2^3", "6*beta2*c1*c2^3 - c1*c2^3"),
    "QHP": ("c1^2*c2^2 - 4*c1*c2^3", "2*c1^2*c2^2 - c1*c2^3"),
    "QHH": ("c1^2*c2^2 + 4*c1*c2^3", "2*c1^2*c2^2 + c1*c2^3"),
}


def test_genuine_loci_regression():
    for kind, (eh, kh) in _GENUINE_LOCI_N3.items():
        loci = genuine_loci(kind, 3)
        assert loci.p_eh == Poly.parse(eh), kind
        assert loci.p_kh == Poly.parse(kh), kind


_monomial = st.tuples(*[st.integers(0, 3)] * NVARS)
_coefficient = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 36))


@given(st.dictionaries(_monomial, _coefficient, max_size=6))
@settings(max_examples=150, deadline=None)
def test_poly_primitive_is_division_by_the_content(terms):
    # content = gcd(numerators) / lcm(denominators) for reduced fractions, so
    # sv_primitive's rescaling is the content one, up to the grlex-lead sign
    p = Poly(terms)
    assert _poly_primitive(p) == primitive_by_content(p)


_LOCUS_POINTS = [
    # (kind, beta, c1, c2, expected adapted class)
    ("H1-", None, 2, 1, "QK"),
    ("H1-", None, 4, 2, "QK"),
    ("H1-", None, 1, F(1, 2), "QK"),
    ("H3", 2, 1, 1, "EH"), ("H3", 2, 3, 1, "EH"), ("H3", 2, 1, 2, "EH"),
    ("H3", F(-1, 3), 1, 1, "KH"), ("H3", F(-1, 3), 2, 1, "KH"),
    ("H3", F(-1, 3), 1, 3, "KH"),
    ("H5", -1, 1, 1, "EH"), ("H5", -1, 2, 1, "EH"), ("H5", -1, 1, 2, "EH"),
    ("H5", F(1, 6), 1, 1, "KH"), ("H5", F(1, 6), 3, 1, "KH"),
    ("H5", F(1, 6), 2, 3, "KH"),
    ("QHP", None, 4, 1, "EH"), ("QHP", None, 8, 2, "EH"), ("QHP", None, 2, F(1, 2), "EH"),
    ("QHP", None, 1, 2, "KH"), ("QHP", None, 2, 4, "KH"), ("QHP", None, F(1, 2), 1, "KH"),
    ("H4", None, 1, 1, "KEH"), ("H2", None, 2, 1, "KEH"), ("QHH", None, 1, 1, "KEH"),
]


def test_first_order_identities_at_genuine_loci():
    for kind, beta, c1, c2, expect in _LOCUS_POINTS:
        rpt = first_order_tests(_model(kind, 3, c1, c2, beta))
        assert rpt.satisfied_class() == expect, (kind, beta, c1, c2)
        assert rpt.qkt_identity  # torsion identity holds everywhere
        if expect == "EH":
            assert not rpt.d_omega_zero and not (rpt.kh_identity and rpt.xi_equal)
        if expect == "KH":
            assert not rpt.d_omega_zero and not rpt.lcqk
        if expect == "KEH":
            assert not (rpt.d_omega_zero or rpt.lcqk
                        or (rpt.kh_identity and rpt.xi_equal))


def test_xi_ratio_is_constant():
    ratios = set()
    for kind, beta, c1, c2 in (("H4", None, 1, 1), ("H2", None, 2, 1),
                               ("QHH", None, 1, 3), ("H3", 1, 2, 1)):
        rpt = first_order_tests(_model(kind, 3, c1, c2, beta))
        if rpt.xi_ratio is not None:
            ratios.add(rpt.xi_ratio)
    assert ratios == {F(-7, 6)}


def test_fixed_basis_and_adapted_class_diverge_off_conformal():
    # the fixed-theta coefficient of H4 vanishes at c1 = 2 c2, but the
    # adapted first-order class there is still generic torsion: the two
    # notions agree only where the metric blocks coincide
    row = table4_row("H4", 3)
    assert class_at(row, 2, 1) == "EH"
    rpt = first_order_tests(_model("H4", 3, 2, 1))
    assert not rpt.lcqk and rpt.satisfied_class() == "KEH"
    # and at the conformal point both notions agree
    assert class_at(row, 1, 1) == "KEH"
    rpt2 = first_order_tests(_model("H4", 3, 1, 1))
    assert rpt2.satisfied_class() == "KEH"


def test_first_order_tests_take_an_int_metric_as_fractions():
    # the int metric entries must not meet the int-coded tables in a division
    model = _model("QHP", 3)
    at_ints = first_order_tests(model._replace(metric=[2] * 4 + [1] * 8))
    assert at_ints == first_order_tests(model.with_metric(2, 1))


def test_contract_pair_and_pullback_shapes():
    model = _model("H4", 3, 1, 1)
    d1 = one_form_differentials(model.bracket_m)
    _, _, _, omega = fundamental_forms(model.triple, model.metric)
    delta = codifferential(omega, d1, model.metric)
    assert delta and all(len(S) == 3 for S in delta)
    I = model.triple[0]
    pulled = pullback_all_slots(delta, I)
    assert pulled and all(len(S) == 3 for S in pulled)
    om_i, _, _, _ = fundamental_forms(model.triple, model.metric)
    paired = contract_pair(pulled, om_i, model.metric)
    assert paired and all(len(S) == 1 for S in paired)
    derived = derivation(delta, I)
    assert derived and all(len(S) == 3 for S in derived)


def test_plane_coordinates_reject_an_off_plane_poly_form():
    # the pivot read of each off-plane form below is a point (x, y) of the
    # plane; only the engine's recombination certificate rejects the form
    p1, p2 = invariant_five_forms(3)
    x, y = Poly.var("c1"), Poly.var("c2") * 2 - 1
    on_plane = lincomb((x, p1), (y, p2))
    assert plane_coordinates(3, on_plane) == (x, y)
    pivots = Echelon([p1, p2]).rows
    inside = next(S for S in p1 if S not in pivots)
    outside = (1, 2, 3, 4, 5)  # both parts are e^0 ^ (a 4-form)
    assert outside not in p1 and outside not in p2
    for key in (inside, outside):
        off = lincomb((1, on_plane), (1, {key: Poly.var("c1")}))
        with pytest.raises(AssertionError, match="form leaves the invariant plane"):
            plane_coordinates(3, off)


def test_solve_wedge_omega_returns_none_for_an_unsolvable_target():
    # zeta ^ e01 spans e012 and e013 on R^4; e023 is zero at both pivots, so
    # its pivot read is zeta = 0 and only the recombination rejects it
    omega = {(0, 1): F(1)}
    solvable = lincomb((1, wedge({(2,): F(1)}, omega)), (F(-3, 2), wedge({(3,): F(1)}, omega)))
    zeta, off, mixed = solve_wedge_omega(
        [solvable, {(0, 2, 3): F(1)}, lincomb((1, solvable), (1, {(0, 2, 3): F(1)}))], omega, 4)
    assert zeta == {(2,): F(1), (3,): F(-3, 2)} and wedge(zeta, omega) == solvable
    assert off is None and mixed is None
