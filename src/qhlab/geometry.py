"""Riemannian geometry of invariant metrics on reductive homogeneous models.

Conventions: R(x,y) = [L(x), L(y)] - L([x,y]_m) - rho([x,y]_h) with L the
Nomizu operator of the metric; R4(x,y,z,w) = g(R(x,y)z, w); sectional
curvature K(x,y) = R4(x,y,y,x) / (|x|^2 |y|^2 - g(x,y)^2), so round spheres
come out positive and the solvable hyperbolic algebras negative.  All
quantities are exact: Fractions at a rational metric point, or Laurent
polynomials in c1, c2 over the whole open cone for a metric of Poly monomials.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .lie import (BilinearMap, ColMat, derivation, op_compose, op_is_skew, op_sub,
                  op_transpose)
from .linalg import accumulate, connected_components, sv_add_scaled
from .poly import VARS, Poly

R4 = dict[tuple[int, int, int, int], Fraction]


class GroupData(namedtuple("GroupData", [
        "dim",        # int
        "bracket_m",  # BilinearMap
        "bracket_h",  # BilinearMap | None
        "h_mats",     # list[ColMat] | None
        "metric",     # list[Fraction]
        ])):
    """Minimal input for the curvature pipeline.

    h_mats are the isotropy matrices, through which the h-part of the bracket
    acts on m; it is None for simply transitive (Lie group) models.
    """

    __slots__ = ()

    @staticmethod
    def from_model(model) -> "GroupData":
        return GroupData(model.rho.dim, model.bracket_m, model.bracket_h,
                         model.rho.mats, list(model.metric))


def nomizu(data: GroupData) -> list[ColMat]:
    """Nomizu operators L(e_i) of the Levi-Civita connection.

    Defined by 2 g(L(x)y, z) = g([x,y],z) - g([y,z],x) + g([z,x],y); the
    returned operators are checked to be g-skew and torsion-free.  A Poly
    metric entry must be a positive multiple of a monomial in c1, c2, which
    is positive on the open cone c1, c2 > 0.

    Only the nonzero bracket entries contribute: b = [e_p, e_q]_r, read in
    both orders (p, q, b) and (q, p, -b), enters exactly three Koszul terms,
    L(p)q on e_r, L(r)p on e_q and L(q)r on e_p.
    """
    dm, G, b = data.dim, data.metric, data.bracket_m
    if not all(_positive(gx) for gx in G):
        raise ValueError("metric must be positive definite")
    lam: list[ColMat] = [{} for _ in range(dm)]
    for (p0, q0), vec in b.coeffs.items():
        for r, c in vec.items():
            for p, q, half in ((p0, q0, c * Fraction(1, 2)), (q0, p0, c * Fraction(-1, 2))):
                accumulate(lam[p].setdefault(q, {}), {r: half})
                accumulate(lam[r].setdefault(p, {}), {q: -half * G[r] / G[q]})
                accumulate(lam[q].setdefault(r, {}), {p: half * G[r] / G[p]})
    lam = [{c: col for c, col in op.items() if col} for op in lam]
    for i in range(dm):
        if not op_is_skew(lam[i], G):
            raise AssertionError("Nomizu operator is not metric-skew")
        for j in range(dm):
            if sv_add_scaled(lam[i].get(j, {}), lam[j].get(i, {}), -1) != b.pair(i, j):
                raise AssertionError("Nomizu operator fails torsion-freeness")
    return lam


def _positive(gx) -> bool:
    if not isinstance(gx, Poly):
        return gx > 0
    return len(gx.terms) == 1 and all(
        c > 0 and all(VARS[i] in ("c1", "c2") for i, e in enumerate(mono) if e)
        for mono, c in gx.terms.items())


class CurvatureData(namedtuple("CurvatureData", [
        "data",       # GroupData
        "lam",        # list[ColMat]
        "r4",         # R4
        "ricci",      # list[list[Fraction]]
        "scalar",     # Fraction
        "weyl",       # R4
        "nabla_r",    # dict[tuple[int, int, int, int, int], Fraction]
        ])):
    __slots__ = ()


def _kn_product(a: dict[tuple[int, int], Fraction], b: list[Fraction]) -> R4:
    """Kulkarni-Nomizu-type product of a symmetric a, given by its nonzero
    entries {(x, y): a_xy} (both orders), and a diagonal b, with the sign
    making g*g the constant curvature template:

        (a*b)_{ijkl} = a_il b_jk + a_jk b_il - a_ik b_jl - a_jl b_ik.

    As b is diagonal, a_xy b_t lands only on (x,t,t,y), (t,x,y,t) (plus) and
    (x,t,y,t), (t,x,t,y) (minus), so the cost is nnz(a) * len(b).
    """
    out: R4 = {}
    for (x, y), v in a.items():
        accumulate(out, {(x, t, t, y): bt for t, bt in enumerate(b)}, v)
        accumulate(out, {(t, x, y, t): bt for t, bt in enumerate(b)}, v)
        accumulate(out, {(x, t, y, t): bt for t, bt in enumerate(b)}, -v)
        accumulate(out, {(t, x, t, y): bt for t, bt in enumerate(b)}, -v)
    return out


def _trace(t: R4, G: list[Fraction]) -> dict[tuple[int, int], Fraction]:
    """The contraction {(j, k): sum_i t(e_i, e_j, e_k, e_i) / G_i} of the first
    and last slots, from the support of t; only nonzero entries."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j, k, l), v in t.items():
        if i == l:
            accumulate(out, {(j, k): v / G[i]})
    return out


def _cyclic_sums_vanish(t: dict) -> bool:
    """True when the cyclic sum of t over its first three slots vanishes for
    every value of the other slots.

    For the tensors checked here that sum is alternating in the three slots,
    so it vanishes on repeated indices, and a nonzero sum has a nonzero term:
    one sorted triple per cyclic class the support reaches is checked.
    """
    for (a, b, c), rest in {(tuple(sorted(key[:3])), key[3:]) for key in t
                            if len(set(key[:3])) == 3}:
        if t.get((a, b, c) + rest, 0) + t.get((b, c, a) + rest, 0) + t.get((c, a, b) + rest, 0):
            return False
    return True


def curvature(data: GroupData) -> CurvatureData:
    """The curvature of data's metric, exact: R4, Ricci, scalar, Weyl and
    nabla R, each certified as it is made (Nomizu operators metric-skew and
    torsion-free; R4 antisymmetric in its value pair, pair symmetric and
    first-Bianchi; Ricci symmetric; Weyl totally trace-free; nabla R
    second-Bianchi); AssertionError when a certificate fails.  A rational
    metric entry is taken as a Fraction, so that no division by the metric,
    here or in the readers of the result, is an int / int."""
    G = [g if isinstance(g, Poly) else Fraction(g) for g in data.metric]
    data = data._replace(metric=G)
    dm = data.dim
    if dm < 3:
        raise ValueError(f"curvature needs dim m >= 3, got {dm}: "
                         "the Weyl split divides by dim m - 2")
    lam = nomizu(data)
    r4: R4 = {}
    for i, j in combinations(range(dm), 2):
        # R(e_i, e_j) = [L_i, L_j] - L([e_i, e_j]_m) - rho([e_i, e_j]_h)
        op = op_sub(op_compose(lam[i], lam[j]), op_compose(lam[j], lam[i]))
        terms = [(lam[t], s) for t, s in data.bracket_m.pair(i, j).items()]
        if data.bracket_h is not None and data.h_mats is not None:
            terms += [(data.h_mats[t], s) for t, s in data.bracket_h.pair(i, j).items()]
        for mat, s in terms:
            for c, col in mat.items():
                accumulate(op.setdefault(c, {}), col, -s)
        for k, col in op.items():
            for l, v in col.items():
                val = G[l] * v
                r4[(i, j, k, l)] = val
                r4[(j, i, k, l)] = -val
    # algebraic curvature symmetries, asserted exactly
    for (i, j, k, l), v in r4.items():
        if r4.get((i, j, l, k), 0) != -v:
            raise AssertionError("curvature not antisymmetric in the value pair")
        if r4.get((k, l, i, j), 0) != v:
            raise AssertionError("curvature fails pair symmetry")
    if not _cyclic_sums_vanish(r4):
        raise AssertionError("curvature fails the first Bianchi identity")

    ric = _trace(r4, G)
    if any(ric.get((k, j), 0) != v for (j, k), v in ric.items()):
        raise AssertionError("Ricci tensor not symmetric")
    ricci = [[ric.get((j, k), Fraction(0)) for k in range(dm)] for j in range(dm)]
    scalar = sum((ricci[j][j] / G[j] for j in range(dm)), Fraction(0))

    shift = scalar / (2 * (dm - 1))
    schouten = {}
    for i in range(dm):
        for j in range(dm):
            if v := (ricci[i][j] - (shift * G[i] if i == j else 0)) / (dm - 2):
                schouten[(i, j)] = v
    weyl = dict(r4)
    accumulate(weyl, _kn_product(schouten, G), -1)
    # Weyl is totally trace-free; this pins the decomposition coefficients
    if _trace(weyl, G):
        raise AssertionError("Weyl tensor is not trace-free")

    # nabla R as a symmetric form on Lambda^2 m.  With R[P][Q] = R4(i,j,k,l)
    # for P = (i,j), Q = (k,l), i < j, k < l, and A_m the derivation L(e_m)
    # induces on Lambda^2 m, (nabla_m R)(y1..y4) = -sum_t R(.., L(e_m) y_t, ..)
    # reads (nabla_m R)[P][Q] = -(B[P][Q] + B[Q][P]) with B = A_m^T R.  As R is
    # symmetric, column Q of B is A_m^T (the derivation of L(e_m)^T) applied
    # to row Q of R.
    rows: dict[tuple[int, int], dict[tuple[int, int], Fraction]] = {}
    for (i, j, k, l), v in r4.items():
        if i < j and k < l:
            rows.setdefault((i, j), {})[(k, l)] = v
    nabla: dict[tuple[int, int, int, int, int], Fraction] = {}
    for m in range(dm):
        lam_t = op_transpose(lam[m])
        bmat = {(p, q): v for q, row in rows.items()
                for p, v in derivation(row, lam_t).items()}
        for (P, Q), v in bmat.items():
            u = bmat.get((Q, P))
            if u is not None:
                if P > Q:
                    continue  # written with (Q, P)
                v += u  # on the diagonal u is v
            if not v:
                continue
            (i, j), (k, l), w = P, Q, -v
            for a, b, c, d, t in ((i, j, k, l, w), (j, i, k, l, v),
                                  (i, j, l, k, v), (j, i, l, k, w)):
                nabla[(m, a, b, c, d)] = nabla[(m, c, d, a, b)] = t
    # second Bianchi identity: the cyclic sum over the first three slots.  It is
    # antisymmetric in the value pair (k, l), as nabla R is by construction, so
    # the pairs k < l are checked
    if not _cyclic_sums_vanish({key: v for key, v in nabla.items() if key[3] < key[4]}):
        raise AssertionError("nabla R fails the second Bianchi identity")
    return CurvatureData(data, lam, r4, ricci, scalar, weyl, nabla)


def sectional(cur: CurvatureData, i: int, j: int) -> Fraction:
    G = cur.data.metric
    return cur.r4.get((i, j, j, i), Fraction(0)) / (G[i] * G[j])


class RiemannClass(namedtuple("RiemannClass", [
        "einstein",            # Fraction | None
        "conformally_flat",    # bool
        "locally_symmetric",   # bool
        "constant_sectional",  # Fraction | None
        "product_blocks",      # list[dict]
        ])):
    __slots__ = ()


def _block_partition(cur: CurvatureData, groups: list[list[int]]) -> list[list[int]]:
    """Merge the given index groups along curvature support.

    (Ricci is a contraction of R4, so its support adds no link.)  The groups
    that no curvature entry touches make up one flat (Euclidean) de Rham
    factor.  Blocks come ordered by their smallest index.
    """
    where = {idx: gi for gi, grp in enumerate(groups) for idx in grp}
    roots = connected_components([where[i] for i in key] for key in cur.r4)
    blocks: dict = {}
    for gi, grp in enumerate(groups):
        blocks.setdefault(roots.get(gi, "flat"), []).extend(grp)
    return sorted(sorted(b) for b in blocks.values())


def riemann_flags(cur: CurvatureData, points: list[dict]
                  ) -> list[tuple[Fraction | None, bool, bool]]:
    """(Einstein constant or None, conformally flat, locally symmetric) at each
    point: the distinct nonzero entries of Ricci - lambda g, Weyl and nabla R
    are collected once and read there ({"c1": .., "c2": ..} evaluates the Polys
    of a symbolic curvature; {} reads the entries as they are)."""
    dm, G = cur.data.dim, cur.data.metric
    lam_e = cur.ricci[0][0] / G[0]
    values = [{v for v in entries if v} for entries in (
        (cur.ricci[i][j] - (lam_e * G[i] if i == j else 0) for i in range(dm) for j in range(dm)),
        cur.weyl.values(), cur.nabla_r.values())]

    def at(x, point):
        return x.eval(point) if point and isinstance(x, Poly) else x

    flags = []
    for point in points:
        einstein, conf_flat, loc_sym = (not any(at(v, point) for v in vals) for vals in values)
        flags.append((at(lam_e, point) if einstein else None, conf_flat, loc_sym))
    return flags


def classify(cur: CurvatureData, groups: list[list[int]] | None = None) -> RiemannClass:
    """Exact Einstein / conformally-flat / symmetric / constant-curvature flags."""
    dm, G = cur.data.dim, cur.data.metric
    (einstein, conf_flat, loc_sym), = riemann_flags(cur, [{}])
    # R4 = (k/2) g*g on the index tuples accepted by inside; both sides
    # vanish off the union of their supports
    template = _kn_product({(i, i): g for i, g in enumerate(G)}, G)
    support = set(cur.r4) | set(template)

    def constant(k: Fraction, inside=lambda key: True) -> bool:
        return all(cur.r4.get(key, 0) == (k / 2) * template.get(key, 0)
                   for key in support if inside(key))

    k0 = sectional(cur, 0, 1)
    const_k = k0 if constant(k0) else None

    if groups is None:
        groups = [[i] for i in range(dm)]
    blocks = []
    for block in _block_partition(cur, groups):
        inside = set(block).issuperset
        flat = not any(inside(key) for key in cur.r4)
        entry = {"indices": block, "size": len(block), "flat": flat,
                 "constant_sectional": None}
        if not flat and len(block) >= 2:
            kb = sectional(cur, block[0], block[1])
            entry["constant_sectional"] = kb if constant(kb, inside) else None
        blocks.append(entry)
    return RiemannClass(einstein, conf_flat, loc_sym, const_k, blocks)
