"""Reference implementations and helpers shared by several test modules.

None of them is part of the library: the library never calls them, so they
live with the tests that check qhlab against them.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, product

from hypothesis import strategies as st

from qhlab.cli import _GRID, _SPECIAL, _prop12_expected
from qhlab.forms import _bidegree, _sqrt_fraction, lincomb, plane_coordinates
from qhlab.lie import (BilinearMap, LieAlgebra, Representation, common_kernel, derivation,
                       op_apply, op_compose, op_is_zero, op_sub, op_transpose, semidirect)
from qhlab.linalg import (Echelon, _dense, _sparse, accumulate, nullspace, sparse_nullspace,
                          sv_add_scaled, sv_primitive)
from qhlab.geometry import GroupData, classify, curvature, model_groups
from qhlab.models import (ModelSpec, _reductive_basis, ambient_rep, build_model,
                          horizontal_brackets, isotropy_rep, maximal_vertical_bracket, xi_operator)
from qhlab.poly import VARS, Poly
from qhlab.quaternion import IM_UNITS, Quaternion, format_rat, sp_basis, sp_coordinates


def class_at(row, c1, c2) -> str:
    """The fixed-basis class of a class-coefficient row at a rational metric:
    QK where both coefficients vanish, EH where f_EH does, KH where f_KH does."""
    point = {"c1": Fraction(c1), "c2": Fraction(c2)}
    feh, fkh = row.f_eh.eval(point), row.f_kh.eval(point)
    if feh == 0 and fkh == 0:
        return "QK"
    if feh == 0:
        return "EH"
    if fkh == 0:
        return "KH"
    return "KEH"


def hermitian_metric(q1, q2) -> Fraction:
    """Real part of the Hermitian pairing, g(q1, q2) = sum_t Re(q1_t conj(q2_t))."""
    if len(q1) != len(q2):
        raise ValueError(f"length mismatch: {len(q1)} vs {len(q2)}")
    return sum((x.a * y.a + x.b * y.b + x.c * y.c + x.d * y.d for x, y in zip(q1, q2)),
               Fraction(0))


def substitute(p: Poly, point: dict) -> Poly:
    """Partial substitution of rationals or Polys; unassigned variables stay."""
    total = Poly()
    for mono, c in p.terms.items():
        term = Poly({tuple(0 if VARS[i] in point else e for i, e in enumerate(mono)): c})
        for name, value in point.items():
            term = term * Poly.coerce(value) ** mono[VARS.index(name)]
        total = total + term
    return total


def vertical_brackets(n):
    """ThetaV, Psi1V, Upsilon1V (the horizontal Theta, Psi1, Upsilon1 with
    their Im(H) values read in sp(1)) and Xi (sp(n-1)-valued)."""
    dm, dh = 4 * n, 3 + (n - 1) * (2 * n - 1)
    hz = horizontal_brackets(n)
    out = {name + "V": BilinearMap(dm, dh, {ij: {k - 1: v for k, v in col.items()}
                                            for ij, col in hz[name].coeffs.items()})
           for name in ("Theta", "Psi1", "Upsilon1")}
    xi = {}
    for (p, u), (q, v) in combinations([(p, u) for p in range(1, n) for u in range(4)], 2):
        coords = sp_coordinates(xi_operator(p - 1, u, q - 1, v), n - 1, 0)
        xi[(4 * p + u, 4 * q + v)] = {3 + t: c for t, c in coords.items()}
    out["Xi"] = BilinearMap(dm, dh, xi)
    return out


def rotated_triple(triple, q):
    """The triple rotated by the exact SO(3) element v -> q v conj(q) / |q|^2.

    A rotation mixes (I, J, K) linearly and keeps the quaternion relations;
    Omega must be invariant under every such change of adapted frame.
    """
    nsq = sum(x * x for x in q.components())
    rot = [[(q * u * q.conj()).components()[1 + r] / nsq for u in IM_UNITS]
           for r in range(3)]
    out = []
    for a in range(3):
        acc = {}
        for b in range(3):
            for c, col in triple[b].items():
                accumulate(acc.setdefault(c, {}), col, rot[b][a])
        out.append({c: col for c, col in acc.items() if col})
    return tuple(out)


def invariant_vectors(rep, order=None):
    """Exact basis of the joint kernel of all rho(e_g), each vector certified
    by applying every rho(e_g) to it."""
    gens = order if order is not None else range(rep.algebra.dim)
    kernel = common_kernel([(lambda v, g=g: op_apply(rep.mats[g], v)) for g in gens], rep.dim)
    assert all(not op_apply(mat, v) for mat in rep.mats for v in kernel)
    return kernel


def rational_forms(k, dim):
    """Hypothesis strategy: zero-free k-forms on R^dim, as the sparse dicts
    {sorted index tuple: Fraction} of qhlab.lie, with up to four terms."""
    keys = st.lists(st.integers(0, dim - 1), min_size=k, max_size=k,
                    unique=True).map(lambda idx: tuple(sorted(idx)))
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.dictionaries(keys, coef, max_size=4).map(
        lambda form: {S: c for S, c in form.items() if c})


def jacobiator_by_triples(b):
    """The cyclic sums [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] on
    every basis triple i < j < k, nonzero ones only: the reference that
    BilinearMap.jacobiator must match, key order included."""
    out = {}
    one, minus_one = Fraction(1), Fraction(-1)
    for i, j, k in combinations(range(b.dim_in), 3):
        total = b.apply(b.pair(i, j), {k: one})
        accumulate(total, b.apply(b.pair(j, k), {i: one}))
        accumulate(total, b.apply(b.pair(i, k), {j: minus_one}))  # [[k,i],j]
        if total:
            out[(i, j, k)] = total
    return out


def maxmodel_jacobi_by_assembly(n, c_theta, c_xi) -> bool:
    """Jacobi for the bracket c_theta*Theta + c_xi*Xi on m = H^n, from the
    whole jacobiator of a fresh rational assembly of k + H^n: the reference
    for the symbolic models.maxmodel_jacobi_holds."""
    k, rho_k, _ = ambient_rep(n)
    b_k = maximal_vertical_bracket(n, c_theta, c_xi)
    return not semidirect(k, rho_k, None, b_k, check=False).structure.jacobiator()


def materialised_common_kernel(op_makers, dim):
    """Common kernel of the column-major operators the callables in op_makers
    build, one whole operator per generator: the reference for the
    matrix-free lie.common_kernel."""
    K = None
    for make in op_makers:
        op = make()
        if K is None:
            rows = op_transpose(op)
            K = sparse_nullspace([rows[r] for r in sorted(rows)], dim)
        else:
            rowsys = {}
            for i, k in enumerate(K):
                for r, v in op_apply(op, k).items():
                    rowsys.setdefault(r, {})[i] = v
            if rowsys:
                newK = []
                for x in sparse_nullspace([rowsys[r] for r in sorted(rowsys)], len(K)):
                    vec = {}
                    for i, s in x.items():
                        accumulate(vec, K[i], s)
                    newK.append(sv_primitive(vec))
                K = newK
        if not K:
            return []
    K.sort(key=lambda v: min(v))
    return K


def is_equivariant(b, rho, target_action) -> bool:
    """True when b is equivariant: target(g) b(x,y) = b(rho(g)x, y) + b(x, rho(g)y),
    checked on every generator g and basis pair x < y."""
    dm = b.dim_in
    for g in range(rho.algebra.dim):
        rg = rho.mats[g]
        tg = target_action[g]
        for i in range(dm):
            ei = {i: Fraction(1)}
            ri = rg.get(i, {})
            for j in range(i + 1, dm):
                ej = {j: Fraction(1)}
                lhs = op_apply(tg, b.pair(i, j))
                rhs = sv_add_scaled(b.apply(ri, ej), b.apply(ei, rg.get(j, {})), 1)
                if sv_add_scaled(lhs, rhs, -1):
                    return False
    return True


def qmatmul(a, b, n):
    """The product of two n x n quaternionic matrices {(row, col): entry},
    summed over every index triple (i, t, j)."""
    out = {}
    for i, t, j in product(range(n), repeat=3):
        if (i, t) in a and (t, j) in b:
            accumulate(out, {(i, j): a[(i, t)] * b[(t, j)]})
    return out


def commutator(a, b, n):
    """ab - ba of two n x n quaternionic matrices."""
    out = qmatmul(a, b, n)
    accumulate(out, {rc: -x for rc, x in qmatmul(b, a, n).items()})
    return out


def dense_sp_brackets(p, q):
    """Structure constants of sp(p,q) from the dense commutator of every basis
    pair: the reference for the sparse models._sp_block_brackets."""
    basis = sp_basis(p, q)
    out = {}
    for i, j in combinations(range(len(basis)), 2):
        if col := sp_coordinates(commutator(basis[i], basis[j], p + q), p, q):
            out[(i, j)] = col
    return out


def reductive_split(spec):
    """(g, h, rho, b_m, b_h) of QHP/QHH read from the whole basis-changed
    algebra: sp(1) + sp(p,q) is Jacobi-checked, every bracket of the adapted
    basis is read into a second algebra, which is Jacobi-checked too, and
    that algebra is split at dim h into h, its action rho on m (checked to be
    a representation) and the two parts of [m, m].  The reference for the
    per-pair reading of models._build_reductive_model."""
    old, cols, dh = _reductive_basis(spec)
    dg = len(cols)
    g_old = LieAlgebra(dg, old.coeffs)
    assert g_old.verify_jacobi()
    basis = Echelon(cols)
    assert basis.rank == dg
    g = LieAlgebra(dg, {(i, j): img for i, j in combinations(range(dg), 2)
                        if (img := basis.coordinates(g_old.structure.apply(cols[i], cols[j])))})
    assert g.verify_jacobi()
    dm = dg - dh
    h = g.subalgebra(list(range(dh)))
    mats = []
    for a in range(dh):
        col = {}
        for b in range(dm):
            img = g.structure.pair(a, dh + b)
            assert all(k >= dh for k in img), "complement is not rho-invariant"
            if img:
                col[b] = {k - dh: v for k, v in img.items()}
        mats.append(col)
    rho = Representation(h, dm, mats, check=True)
    b_m, b_h = {}, {}
    for a, b in combinations(range(dm), 2):
        img = g.structure.pair(dh + a, dh + b)
        if mpart := {k - dh: v for k, v in img.items() if k >= dh}:
            b_m[(a, b)] = mpart
        if hpart := {k: v for k, v in img.items() if k < dh}:
            b_h[(a, b)] = hpart
    return g, h, rho, BilinearMap(dm, dm, b_m), BilinearMap(dm, dh, b_h)


def swapped_reductive_basis(spec):
    """models._reductive_basis with the first two H^{n-1} columns swapped:
    still a basis of g, but one on which h does not act by the standard
    isotropy representation."""
    old, cols, dh = _reductive_basis(spec)
    first = dh + 4  # after R + Im(H)
    cols = list(cols)
    cols[first], cols[first + 1] = cols[first + 1], cols[first]
    return old, cols, dh


def invert(a_rows):
    """Inverse of a square Fraction matrix; row j is the combination of rows
    giving e_j."""
    n = len(a_rows)
    ech = Echelon(_sparse(r) for r in a_rows)
    if ech.rank != n:
        raise ValueError("matrix not invertible")
    return [_dense(ech.coordinates({j: Fraction(1)}), n) for j in range(n)]


def trace_form(rep):
    """Gram matrix tr(rho(e_i) rho(e_j)) of the trace form of rep."""
    mats = rep.mats
    gram = [[Fraction(0)] * len(mats) for _ in mats]
    for i in range(len(mats)):
        for j in range(i, len(mats)):
            gram[i][j] = gram[j][i] = sum(
                (op_apply(mats[i], col).get(c, 0) for c, col in mats[j].items()),
                Fraction(0))
    return gram


def casimir(rep, gram):
    """The Casimir element sum_ij (gram^-1)_ij rho(e_i) rho(e_j) of rep, for
    the ad-invariant form with Gram matrix gram, as a map on forms (through
    ``derivation``), certified to commute with the action on the module."""
    inv = invert(gram)
    mats = rep.mats

    def apply(form):
        w = [derivation(form, m) for m in mats]
        out = {}
        for i, m in enumerate(mats):
            u = {}
            for j, wj in enumerate(w):
                accumulate(u, wj, inv[i][j])
            accumulate(out, derivation(u, m))
        return out

    on_module = {c: {r: x for (r,), x in apply({(c,): Fraction(1)}).items()}
                 for c in range(rep.dim)}
    for m in mats:
        assert op_is_zero(op_sub(op_compose(on_module, m), op_compose(m, on_module))), \
            "casimir does not commute with the action"
    return apply


@cache
def invariant_five_forms_by_kernel(n):
    """Exact basis of the h-invariant 5-forms on m, the common kernel of the
    isotropy derivations on Lambda^5 m* (the kernel of the dual action is
    that of the derivations, its negative): the reference for the
    closed-form forms.invariant_five_forms.  The solver applies each
    generator's derivation to the forms its predecessors left invariant; the
    first, a torus generator, leaves the weight-zero forms."""
    h, rho, order = isotropy_rep(n)
    basis = list(combinations(range(4 * n), 5))
    index = {S: t for t, S in enumerate(basis)}

    def acting(mat):
        def apply(vec):
            img = derivation({basis[t]: v for t, v in vec.items()}, mat)
            return {index[T]: v for T, v in img.items()}
        return apply

    kernel = common_kernel([acting(rho.mats[g]) for g in order], len(basis))
    forms = tuple({basis[t]: v for t, v in vec.items()} for vec in kernel)
    for g in range(h.dim):
        for f in forms:
            assert not derivation(f, rho.mats[g]), "non-invariant 5-form from the kernel engine"
    return forms


def casimir_split(n):
    """(theta_EH, theta_KH, (EH, KH) eigenvalues, 1-form scalar) of the
    ambient Casimir on the invariant 5-form plane: the eigenline whose
    eigenvalue is the Casimir scalar on 1-forms is EH.  The reference for
    the closed-form forms.isotypic_split."""
    v1, v2 = invariant_five_forms_by_kernel(n)
    _, rho_k, _ = ambient_rep(n)
    cas = casimir(rho_k, trace_form(rho_k))
    lam1 = cas({(0,): Fraction(1)})[(0,)]
    for idx in range(4 * n):
        e = {(idx,): Fraction(1)}
        assert not lincomb((1, cas(e)), (-lam1, e)), "Casimir is not scalar on 1-forms"
    (m11, m21), (m12, m22) = (plane_coordinates(cas(v), v1, v2) for v in (v1, v2))
    tr, det = m11 + m22, m11 * m22 - m12 * m21
    sq = _sqrt_fraction(tr * tr - 4 * det)
    eigs = ((tr + sq) / 2, (tr - sq) / 2)
    assert eigs[0] != eigs[1], "Casimir eigenvalues coincide on the invariant plane"

    def eigvec(lam):
        a, b = m11 - lam, m12
        if a == 0 and b == 0:
            a, b = m21, m22 - lam
        vec = lincomb((-b, v1), (a, v2))
        assert vec and not lincomb((1, cas(vec)), (-lam, vec)), "not an eigenvector"
        return vec

    eh, kh = eigs if eigs[0] == lam1 else eigs[::-1]
    assert eh == lam1, "no Casimir eigenvalue matches the 1-form scalar"
    return eigvec(eh), eigvec(kh), (eh, kh), lam1


def pure_bidegree_by_nullspace(n):
    """The (1,0,4) and (1,2,2) forms of the kernel-solved invariant plane,
    each the plane combination whose other bi-degree part vanishes (a
    nullspace solve): the reference for forms.invariant_five_forms."""
    v1, v2 = invariant_five_forms_by_kernel(n)
    rows = []
    for v in (v1, v2):
        parts = {}
        for S, c in v.items():
            parts.setdefault(_bidegree(S), {})[S] = c
        rows.append(parts)
    bds = sorted({bd for p in rows for bd in p})
    assert bds == [(1, 0, 4), (1, 2, 2)], bds
    out = []
    for keep, drop in zip(bds, bds[::-1]):
        part1, part2 = rows[0].get(drop, {}), rows[1].get(drop, {})
        kern = nullspace([[Fraction(part1.get(S, 0)), Fraction(part2.get(S, 0))]
                          for S in sorted(set(part1) | set(part2))], 2)
        assert len(kern) == 1, "pure bi-degree combination not unique"
        form = lincomb((kern[0][0], v1), (kern[0][1], v2))
        assert form and all(_bidegree(S) == keep for S in form)
        out.append(form)
    return tuple(out)


def prop12_by_points(n, betas=None):
    """The checks of ``reproduce prop12`` from one exact Fraction-metric
    curvature and classification per case and sample point: the reference
    for cli._reproduce_prop12, which reads one symbolic curvature per case."""
    if betas is None:
        betas = [Fraction(b) for b in (-1, 0, 1, 2)]
    cases = [("H1+", None), ("H1-", None), ("H2", None), ("H4", None)]
    cases += [("H3", b) for b in betas] + [("H5", b) for b in betas]
    points = _GRID + [p for p in _SPECIAL if p not in _GRID]
    checks = []
    for kind, beta in cases:
        bad = []
        skeleton = build_model(ModelSpec(kind, n, beta=beta))
        for c1, c2 in points:
            cur = curvature(GroupData.from_model(skeleton.with_metric(c1, c2)))
            cls = classify(cur, model_groups(n))
            want = _prop12_expected(kind, beta, c1, c2)
            got = (cls.einstein is not None, cls.conformally_flat, cls.locally_symmetric)
            if got != want:
                bad.append(f"({format_rat(c1)},{format_rat(c2)}): got {got} want {want}")
        label = kind if beta is None else f"{kind}^{format_rat(beta)}"
        checks.append((f"{label} flags over {len(points)} points", not bad,
                       "; ".join(bad) if bad else "einstein/CF/symmetric all match"))
    return checks
