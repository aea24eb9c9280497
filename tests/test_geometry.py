import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhlab.geometry import GroupData, _kn_product, classify, curvature, nomizu
from qhlab.lie import BilinearMap, op_is_skew, op_transpose
from qhlab.linalg import accumulate
from qhlab.models import H_KINDS, ModelSpec, build_model, horizontal_brackets, model_groups
from qhlab.poly import VARS, Poly

rng = random.Random(77)

F = Fraction


def _model(kind, n=3, c1=1, c2=1, beta=None):
    return build_model(ModelSpec(kind, n, c1=F(c1), c2=F(c2),
                                 beta=None if beta is None else F(beta)))


def hyperbolic_group_data(dim, eta, g0, gn):
    """R acting on an abelian R^{dim-1} by the scalar eta, with product metric."""
    coeffs = {(0, a): {a: Fraction(eta)} for a in range(1, dim)}
    b = BilinearMap(dim, dim, coeffs)
    metric = [g0] + [gn] * (dim - 1)
    return GroupData(dim, b, None, None, metric)


def test_hyperbolic_lemma():
    # R acting by a nonzero scalar on an abelian ideal: constant negative
    # curvature for any product metric
    for dim, eta, g0, gn in ((6, F(2), F(1), F(3)), (6, F(-1), F(2), F(1)),
                             (6, F(1, 2), F(1), F(1)), (12, F(3), F(2), F(5))):
        data = hyperbolic_group_data(dim, eta, g0, gn)
        cls = classify(curvature(data))
        assert cls.constant_sectional is not None
        assert cls.constant_sectional == -eta * eta / g0
        assert cls.conformally_flat and cls.einstein is not None


def test_curvature_rejects_a_two_dimensional_algebra():
    # R x| R, [e0, e1] = e1: the Weyl split divides by dim m - 2
    data = GroupData(2, BilinearMap(2, 2, {(0, 1): {1: F(1)}}), None, None, [F(1), F(1)])
    with pytest.raises(ValueError, match="dim m >= 3"):
        curvature(data)


def test_flat_model_is_flat():
    model = _model("FlatMax", 2)
    data = GroupData.from_model(model)
    lam = nomizu(data)
    assert all(not col for col in lam)
    cur = curvature(data)
    assert not cur.r4 and cur.scalar == 0
    cls = classify(cur)
    assert cls.constant_sectional == 0
    assert not any(x for row in cur.ricci for x in row)


def test_nomizu_koszul_oracle_h2():
    # [q1, q2] = Theta(q1, q2) only: L(e) f must carry Im(H)-component
    # (1/2) Theta(e, f) and metric duality handles the rest
    model = _model("H2", 3, 1, 1)
    data = GroupData.from_model(model)
    lam = nomizu(data)
    theta = horizontal_brackets(3)["Theta"]
    for e in range(4, 12):
        for f in range(4, 12):
            got = lam[e].get(f, {})
            expect = {k: v / 2 for k, v in theta.pair(e, f).items()}
            im_part = {k: v for k, v in got.items() if 1 <= k <= 3}
            assert im_part == expect


def test_nomizu_assertions_random_metric():
    for _ in range(3):
        c1 = F(rng.randint(1, 5), rng.randint(1, 3))
        c2 = F(rng.randint(1, 5), rng.randint(1, 3))
        model = _model("H5", 3, c1, c2, beta=2)
        data = GroupData.from_model(model)
        lam = nomizu(data)  # metric-skewness and torsion assertions inside
        # the invariant-tensor derivative of the metric vanishes
        assert all(op_is_skew(op, data.metric) for op in lam)


def test_curvature_symmetries_are_asserted():
    # the constructor itself validates antisymmetries, pair symmetry, Bianchi
    for kind, beta in (("H2", None), ("H3", 1), ("QHP", None)):
        cur = curvature(GroupData.from_model(_model(kind, 3, 2, 1, beta)))
        assert cur.r4


def test_h32_constant_negative_curvature():
    for c1, c2 in ((1, 1), (2, 1), (1, 3)):
        cur = curvature(GroupData.from_model(_model("H3", 3, c1, c2, beta=2)))
        cls = classify(cur, model_groups(3))
        assert cls.constant_sectional == F(-4) / c1
        assert cls.einstein is not None and cls.conformally_flat
        assert cls.locally_symmetric


def test_h5_product_signature():
    # S^3 x hyperbolic block structure for beta != 0
    cur = curvature(GroupData.from_model(_model("H5", 3, 1, 2, beta=2)))
    cls = classify(cur, model_groups(3))
    sizes = sorted((b["size"], b["flat"], b["constant_sectional"] is not None
                    and b["constant_sectional"] > 0)
                   for b in cls.product_blocks)
    assert [s[0] for s in sizes] == [3, 9]
    sphere = next(b for b in cls.product_blocks if b["size"] == 3)
    hyper = next(b for b in cls.product_blocks if b["size"] == 9)
    assert sphere["constant_sectional"] > 0
    assert hyper["constant_sectional"] < 0
    assert cls.locally_symmetric


def test_h50_product_signature():
    cur = curvature(GroupData.from_model(_model("H5", 3, 1, 2, beta=0)))
    cls = classify(cur, model_groups(3))
    sphere = next(b for b in cls.product_blocks if b["size"] == 3)
    assert sphere["constant_sectional"] > 0
    # R and H^{n-1} are not curvature-linked to the sphere: one flat factor
    assert sum(b["size"] for b in cls.product_blocks if b["flat"]) == 9


def test_h4_product_signature():
    cur = curvature(GroupData.from_model(_model("H4", 3, 2, 3)))
    cls = classify(cur, model_groups(3))
    hyper = next(b for b in cls.product_blocks if b["size"] == 9)
    flat = next(b for b in cls.product_blocks if b["size"] == 3)
    assert hyper["constant_sectional"] == F(-1, 2) and flat["flat"]
    assert cls.locally_symmetric


def test_h30_computed_signature():
    # exact blocks: 4-dimensional constant negative + flat complement
    cur = curvature(GroupData.from_model(_model("H3", 3, 1, 1, beta=0)))
    cls = classify(cur, model_groups(3))
    sizes = sorted(b["size"] for b in cls.product_blocks)
    assert sizes == [4, 8]
    neg = next(b for b in cls.product_blocks if b["size"] == 4)
    assert neg["constant_sectional"] == F(-4)
    assert next(b for b in cls.product_blocks if b["size"] == 8)["flat"]


def test_einstein_points():
    cls = classify(curvature(GroupData.from_model(_model("H1-", 3, 2, 1))))
    assert cls.einstein is not None and cls.locally_symmetric
    assert not cls.conformally_flat
    cls = classify(curvature(GroupData.from_model(_model("H1-", 3, 1, 1))))
    assert cls.einstein is None and not cls.locally_symmetric
    cls = classify(curvature(GroupData.from_model(_model("H2", 3, 1, 2))))
    assert cls.einstein is None


def test_scaling_covariance():
    base = _model("H5", 3, 1, 2, beta=1)
    cur = curvature(GroupData.from_model(base))
    for _ in range(20):
        lam = F(rng.randint(1, 9), rng.randint(1, 9))
        scaled = curvature(GroupData.from_model(base.with_metric(lam * 1, lam * 2)))
        assert scaled.scalar == cur.scalar / lam
        # as a (1,3)-tensor the curvature is unchanged: R4 scales with g
        for key, v in cur.r4.items():
            assert scaled.r4.get(key, 0) == lam * v
        for key, v in scaled.r4.items():
            assert cur.r4.get(key, 0) == v / lam


def _degrees(values) -> set[int]:
    """The total c1, c2 degrees of the monomials of the Poly values (a
    rational value has degree 0); a monomial in another variable fails."""
    out = set()
    for v in values:
        for mono in Poly.coerce(v).terms:
            assert all(VARS[i] in ("c1", "c2") for i, e in enumerate(mono) if e)
            out.add(sum(mono))
    return out


@pytest.mark.parametrize("kind", H_KINDS)
def test_scaling_covariance_over_the_cone(kind):
    # g -> t g leaves the Nomizu operators unchanged: R4, Weyl and nabla R
    # scale with g, Ricci is invariant and the scalar goes as 1/t, now as
    # identities in (c1, c2) rather than at sampled points
    beta = F(3) if kind in ("H3", "H5") else None
    skeleton = _model(kind, 2, beta=beta)
    cur = curvature(GroupData.from_model(skeleton.with_metric(Poly.var("c1"), Poly.var("c2"))))
    assert cur.r4
    assert _degrees(cur.r4.values()) == {1}
    assert _degrees(cur.weyl.values()) <= {1}
    assert _degrees(cur.nabla_r.values()) <= {1}
    assert _degrees(x for row in cur.ricci for x in row) == {0}
    assert _degrees([cur.scalar]) <= {-1}


def test_nomizu_rejects_a_symbolic_metric_not_positive_on_the_cone():
    c1, c2 = Poly.var("c1"), Poly.var("c2")
    skeleton = _model("H2", 2)
    assert nomizu(GroupData.from_model(skeleton.with_metric(c1 * 2, c2 / c1)))
    for g1, g2 in ((-c1, c2), (c1, c1 - c2), (c1 * Poly.var("alpha"), c2)):
        with pytest.raises(ValueError, match="positive definite"):
            nomizu(GroupData.from_model(skeleton.with_metric(g1, g2)))


def test_divergence_free_at_einstein_point():
    # parallel curvature at the Einstein point makes every contraction of
    # nabla R vanish; check the contracted-Bianchi pattern explicitly
    model = _model("H1-", 3, 2, 1)
    cur = curvature(GroupData.from_model(model))
    assert not cur.nabla_r
    div = {}
    for (m, i, j, k, l), v in cur.nabla_r.items():
        if m == l:
            key = (i, j, k)
            div[key] = div.get(key, 0) + v / cur.data.metric[m]
    assert all(not x for x in div.values())


def _kn_dense(a, b):
    """Textbook Kulkarni-Nomizu-type product of two dense symmetric matrices:
    (a*b)_{ijkl} = a_il b_jk + a_jk b_il - a_ik b_jl - a_jl b_ik."""
    dm = len(a)
    out = {}
    for i in range(dm):
        for j in range(dm):
            for k in range(dm):
                for l in range(dm):
                    v = (a[i][l] * b[j][k] + a[j][k] * b[i][l]
                         - a[i][k] * b[j][l] - a[j][l] * b[i][k])
                    if v:
                        out[(i, j, k, l)] = v
    return out


_entry = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _symmetric_and_diagonal(draw):
    dm = draw(st.integers(1, 8))
    diagonal_only = draw(st.booleans())
    a = [[Fraction(0)] * dm for _ in range(dm)]
    for i in range(dm):
        for j in range(i if diagonal_only else 0, i + 1):
            a[i][j] = a[j][i] = draw(_entry)
    b = [draw(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
         for _ in range(dm)]
    return a, b


@given(_symmetric_and_diagonal())
@settings(max_examples=60, deadline=None)
def test_sparse_kn_product_matches_the_dense_formula(ab):
    a, b = ab
    dm = len(b)
    sparse_a = {(i, j): a[i][j] for i in range(dm) for j in range(dm) if a[i][j]}
    diag_b = [[b[i] if i == j else Fraction(0) for j in range(dm)] for i in range(dm)]
    assert _kn_product(sparse_a, b) == _kn_dense(a, diag_b)


def test_with_metric_equals_a_fresh_build():
    # the metric-free skeleton swept by with_metric gives exactly the
    # curvature and classification of a model built at that point
    for kind in H_KINDS:
        beta = F(1, 2) if kind in ("H3", "H5") else None
        skeleton = _model(kind, 2, beta=beta)
        for c1, c2 in ((F(2), F(1)), (F(1, 2), F(3)), (F(1), F(1))):
            fresh = curvature(GroupData.from_model(_model(kind, 2, c1, c2, beta)))
            swept = curvature(GroupData.from_model(skeleton.with_metric(c1, c2)))
            for field in ("r4", "ricci", "scalar", "weyl", "nabla_r"):
                assert getattr(swept, field) == getattr(fresh, field), (kind, field)
            assert classify(swept, model_groups(2)) == classify(fresh, model_groups(2))


def test_with_metric_certifies_the_metric():
    # sp(2) of the maximal model mixes the two slots, so only c1 = c2 is
    # isotropy invariant there
    flat = _model("FlatMax", 2)
    assert flat.with_metric(F(3), F(3)).metric == [F(3)] * 8
    with pytest.raises(AssertionError, match="metric is not isotropy invariant"):
        flat.with_metric(F(1), F(2))


def _nomizu_dense(data):
    """Koszul's formula over every triple (i, j, k):
    2 g(L(e_i)e_j, e_k) = g([e_i,e_j],e_k) - g([e_j,e_k],e_i) + g([e_k,e_i],e_j)."""
    dm, G, b = data.dim, data.metric, data.bracket_m
    lam = []
    for i in range(dm):
        col = {}
        for j in range(dm):
            vec = {}
            bij = b.pair(i, j)
            for k in range(dm):
                num = G[k] * bij.get(k, 0)
                num -= G[i] * b.pair(j, k).get(i, 0)
                num += G[j] * b.pair(k, i).get(j, 0)
                if num:
                    vec[k] = num / (2 * G[k])
            if vec:
                col[j] = vec
        lam.append(col)
    return lam


def _nabla_scatter(r4, lam):
    """nabla R by scattering every R4 entry into 5-index keys:
    (nabla_m R)(y1..y4) = -sum_t R(.., L(e_m) y_t, ..)."""
    dm = len(lam)
    nabla = {}
    # distributing each nonzero R4 entry needs L(e_m) row-major: source slot
    # s feeds targets a with coefficient L_m[a][s]
    rows_t = [op_transpose(lam[m]) for m in range(dm)]
    feeds = {s: [(m, a, c) for m in range(dm) for a, c in rows_t[m].get(s, {}).items()]
             for s in range(dm)}
    for idx, v in r4.items():
        for slot in range(4):
            head, tail = idx[:slot], idx[slot + 1:]
            accumulate(nabla, {(m,) + head + (a,) + tail: c
                               for m, a, c in feeds[idx[slot]]}, -v)
    return nabla


@st.composite
def _metric_lie_algebra(draw):
    """A random R x|_D R^k ([e0, e_a] = D e_a) or a random 2-step nilpotent
    algebra with centre spanned by its last two basis vectors, with a random
    positive diagonal metric."""
    if draw(st.booleans()):
        dm = draw(st.integers(3, 6))  # the Weyl split divides by dm - 2
        coeffs = {(0, a): {b: draw(_entry) for b in range(1, dm)} for a in range(1, dm)}
    else:
        dm = draw(st.integers(4, 6))
        coeffs = {(i, j): {z: draw(_entry) for z in (dm - 2, dm - 1)}
                  for i in range(dm - 2) for j in range(i + 1, dm - 2)}
    # BilinearMap keeps explicit zeros, which the torsion check in nomizu
    # reads as a mismatch
    coeffs = {ij: {k: v for k, v in vec.items() if v} for ij, vec in coeffs.items()}
    metric = [draw(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
              for _ in range(dm)]
    return GroupData(dm, BilinearMap(dm, dm, coeffs), None, None, metric)


@given(_metric_lie_algebra())
@settings(max_examples=60, deadline=None)
def test_sparse_nomizu_and_nabla_r_match_the_dense_oracles(data):
    cur = curvature(data)  # second Bianchi identity asserted inside
    assert cur.lam == _nomizu_dense(data)
    assert cur.nabla_r == _nabla_scatter(cur.r4, cur.lam)
    for (m, i, j, k, l), v in cur.nabla_r.items():
        assert cur.nabla_r.get((m, j, i, k, l)) == -v
        assert cur.nabla_r.get((m, i, j, l, k)) == -v
        assert cur.nabla_r.get((m, k, l, i, j)) == v
