"""Lie algebras by structure constants, representations, and exact
equivariant/invariant solvers.

Structure constants have one source, ``matrix_algebra``, which reads them off
the commutators of a faithful family of matrices and so certifies bracket,
Jacobi identity and representation in one exact pass: the coordinates of each
commutator are read off the pivots of one echelon of the matrices and
certified by recombination inside the engine (``Echelon.coordinates``).

Sparse conventions: a vector is a dict {index: scalar}; an operator is
column-major, op[col] = {row: scalar}; a form (an element of an exterior
power) is a dict {sorted index tuple: scalar}.  Scalars are rationals, an
int when integral (``linalg.icode``; the ``BilinearMap`` constructor codes
every table), or Polys -- all routines are written against both.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations

from .linalg import Echelon, SparseVec, accumulate, icode, sparse_nullspace, sv_primitive

# --------------------------------------------------------------------------
# sparse operator helpers
# --------------------------------------------------------------------------

ColMat = dict[int, SparseVec]  # column -> {row: scalar}


def op_apply(op: ColMat, v: SparseVec) -> SparseVec:
    out: SparseVec = {}
    for c, s in v.items():
        col = op.get(c)
        if col:
            accumulate(out, col, s)
    return out


def op_transpose(op: ColMat) -> ColMat:
    out: ColMat = {}
    for c, col in op.items():
        for r, x in col.items():
            out.setdefault(r, {})[c] = x
    return out


def op_compose(a: ColMat, b: ColMat) -> ColMat:
    """a . b (apply b first)."""
    out: ColMat = {}
    for c, col in b.items():
        img = op_apply(a, col)
        if img:
            out[c] = img
    return out


def op_sub(a: ColMat, b: ColMat) -> ColMat:
    out: ColMat = {}
    for c in set(a) | set(b):
        col = dict(a.get(c, {}))
        accumulate(col, {r: -v for r, v in b.get(c, {}).items()})
        if col:
            out[c] = col
    return out


def flatten_op(op: ColMat, dim: int) -> SparseVec:
    """op on R^dim as a vector of R^(dim*dim), entry (r, c) at c*dim + r."""
    return {c * dim + r: v for c, col in op.items() for r, v in col.items()}


def op_is_zero(op: ColMat) -> bool:
    return all(not col for col in op.values())


def op_is_skew(op: ColMat, metric) -> bool:
    """True when op is skew for the diagonal metric: G_r op_rc + G_c op_cr = 0."""
    return all(metric[r] * v + metric[c] * op.get(r, {}).get(c, 0) == 0
               for c, col in op.items() for r, v in col.items())


def sort_sign(seq) -> tuple[tuple, int] | None:
    """(sorted tuple, permutation sign), or None when entries repeat."""
    items = list(seq)
    if len(set(items)) != len(items):
        return None
    sign = 1
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return tuple(sorted(items)), sign


# --------------------------------------------------------------------------
# the exterior derivation
# --------------------------------------------------------------------------

def derivation(form: dict, op: ColMat) -> dict:
    """Slotwise extension of op to forms: e_S -> sum_t e_S with slot t
    replaced by op(e_{S_t}), re-sorted with its sign.

    This is the action of op on every exterior power (and, negated, the
    action on forms over the dual).
    """
    out: dict = {}
    for S, c in form.items():
        for pos, x in enumerate(S):
            col = op.get(x)
            if not col:
                continue
            rest = S[:pos] + S[pos + 1:]
            img = {}
            for r, v in col.items():
                q = bisect_left(rest, r)
                if q == len(rest) or rest[q] != r:  # moving r from pos to q
                    img[rest[:q] + (r,) + rest[q:]] = -v if (pos - q) % 2 else v
            accumulate(out, img, c)
    return out


def derivation_op(op: ColMat, index: dict[tuple, int]) -> ColMat:
    """Matrix of ``derivation(., op)`` on the span of the sorted index tuples
    S of index (which it must preserve), column index[S] for S.

    Sharing one index between the operators of a family also shares their
    column numbers, which keeps a family of large operators small.
    """
    mat: ColMat = {}
    for S, t in index.items():
        img = derivation({S: 1}, op)
        if img:
            mat[t] = {index[T]: v for T, v in img.items()}
    return mat


# --------------------------------------------------------------------------
# bilinear maps and Lie algebras
# --------------------------------------------------------------------------

class BilinearMap:
    """Antisymmetric bilinear map m x m -> target, coefficients for i < j,
    copied with their Fraction entries int-coded (Poly entries are already)."""

    def __init__(self, dim_in: int, dim_out: int,
                 coeffs: dict[tuple[int, int], SparseVec]):
        self.dim_in = dim_in
        self.dim_out = dim_out
        self.coeffs = {ij: {k: icode(x) if isinstance(x, Fraction) else x for k, x in v.items()}
                       for ij, v in coeffs.items() if v}

    @staticmethod
    def zero(dim_in: int, dim_out: int) -> "BilinearMap":
        return BilinearMap(dim_in, dim_out, {})

    def pair(self, i: int, j: int) -> SparseVec:
        if i == j:
            return {}
        if i < j:
            return self.coeffs.get((i, j), {})
        return {k: -v for k, v in self.coeffs.get((j, i), {}).items()}

    def jacobiator(self, start: int = 0) -> dict[tuple[int, int, int], SparseVec]:
        """Cyclic sums [[x,y],z] + [[y,z],x] + [[z,x],y] on the basis triples
        i < j < k with j >= start.

        Returns only the nonzero components, keyed by sorted triple in
        increasing order; empty dict means Jacobi holds there.  Only nonzero
        brackets are visited: with ad[x] = {y: [e_x, e_y]}, the row
        k -> J(i, j, k), k > j, of each pair i < j is summed from the three
        cyclic terms, each a sum over the support of the inner bracket.
        """
        if self.dim_in != self.dim_out:
            raise ValueError("jacobiator needs an endomorphic bracket")
        ad: dict[int, dict[int, SparseVec]] = {}
        for (x, y), col in self.coeffs.items():
            ad.setdefault(x, {})[y] = col
            ad.setdefault(y, {})[x] = {r: -v for r, v in col.items()}
        out = {}
        for i, ad_i in sorted(ad.items()):
            for j in range(max(i + 1, start), self.dim_in):
                terms: list[dict[int, SparseVec]] = [{}, {}, {}]
                # [[e_i, e_j], e_k] = sum_l c_ij^l [e_l, e_k]
                for l, c in ad_i.get(j, {}).items():
                    for k, img in ad.get(l, {}).items():
                        if k > j:
                            accumulate(terms[0].setdefault(k, {}), img, c)
                # [[e_j, e_k], e_i] = sum_l c_jk^l [e_l, e_i] and
                # [[e_k, e_i], e_j] = -sum_l c_ik^l [e_l, e_j]
                for term, x, y, sign in ((terms[1], j, i, 1), (terms[2], i, j, -1)):
                    for k, xk in ad.get(x, {}).items():
                        if k > j:
                            for l, c in xk.items():
                                if img := ad.get(l, {}).get(y):
                                    accumulate(term.setdefault(k, {}), img, c if sign > 0 else -c)
                for k in sorted(terms[0].keys() | terms[1].keys() | terms[2].keys()):
                    total = terms[0].get(k, {})
                    accumulate(total, terms[1].get(k, {}))
                    accumulate(total, terms[2].get(k, {}))
                    if total:
                        out[(i, j, k)] = total
        return out


class LieAlgebra:
    """Structure constants c_{ij}^k, kept as the bracket ``structure`` (a
    BilinearMap g x g -> g); ``brackets`` holds them for i < j."""

    def __init__(self, dim: int, brackets: dict[tuple[int, int], SparseVec],
                 verified: bool = False):
        self.dim = dim
        self.structure = BilinearMap(dim, dim, brackets)
        self.verified = verified

    @property
    def brackets(self) -> dict[tuple[int, int], SparseVec]:
        return self.structure.coeffs

    def adjoint(self) -> "Representation":
        mats = [{a: dict(img) for a in range(self.dim)
                 if (img := self.structure.pair(g, a))} for g in range(self.dim)]
        return Representation(self, self.dim, mats)

    def verify_jacobi(self, start: int = 0) -> bool:
        """Jacobi on the triples i < j < k with j >= start; the caller
        certifies the others."""
        ok = not self.structure.jacobiator(start)
        self.verified = ok
        return ok

    def subalgebra(self, gens: list[int]) -> "LieAlgebra":
        """The span of the basis elements gens, renumbered in their order;
        raises when it is not closed under the bracket."""
        pos = {g: i for i, g in enumerate(gens)}
        brackets: dict[tuple[int, int], SparseVec] = {}
        for a, b in combinations(range(len(gens)), 2):
            img = self.structure.pair(gens[a], gens[b])
            if any(k not in pos for k in img):
                raise AssertionError(f"generators {gens} do not span a subalgebra")
            if img:
                brackets[(a, b)] = {pos[k]: v for k, v in img.items()}
        return LieAlgebra(len(gens), brackets, verified=self.verified)


# --------------------------------------------------------------------------
# representations
# --------------------------------------------------------------------------

class Representation:
    """Matrices rho(e_g) (column-major sparse) of algebra on R^dim;
    ``verified`` when rho is known to be a homomorphism."""

    def __init__(self, algebra: LieAlgebra, dim: int, mats: list[ColMat],
                 verified: bool = False):
        if len(mats) != algebra.dim:
            raise ValueError("one matrix per algebra basis element required")
        self.algebra = algebra
        self.dim = dim
        self.mats = mats
        self.verified = verified

    def exterior_power(self, k: int) -> "Representation":
        index = {S: t for t, S in enumerate(combinations(range(self.dim), k))}
        return Representation(self.algebra, len(index),
                              [derivation_op(m, index) for m in self.mats])


def matrix_algebra(mats: list[ColMat], dim: int) -> Representation:
    """The Lie algebra with basis e_i = mats[i] (matrices on R^dim), as a
    verified representation (the inclusion) of its verified algebra.

    Raises AssertionError unless the matrices are independent and their span
    is closed under the commutator.  c_ij^k are the coordinates of
    [mats[i], mats[j]] in one echelon of the span: read off its pivots and
    certified by recombination inside the engine, so sum_k c_ij^k mats[k]
    equals the commutator exactly.  e_i -> mats[i] is then a faithful linear
    image of the matrix commutator, so Jacobi and the homomorphism hold by
    construction and need no pass of their own.
    """
    rows = [op_transpose(m) for m in mats]
    span = Echelon(flatten_op(m, dim) for m in mats)
    if span.rank != len(mats):
        raise AssertionError("the matrices are linearly dependent")
    brackets: dict[tuple[int, int], SparseVec] = {}
    for i, j in combinations(range(len(mats)), 2):
        comm: dict = {}  # [A, B] at c * dim + r, one pass over the shared inner indices t
        for t in (mats[i].keys() & rows[j].keys()) | (mats[j].keys() & rows[i].keys()):
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                for r, x in mats[a].get(t, {}).items():
                    for c, y in rows[b].get(t, {}).items():
                        comm[c * dim + r] = comm.get(c * dim + r, 0) + sign * x * y
        comm = {k: x for k, x in comm.items() if x}
        if not comm:
            continue
        coords = span.coordinates(comm)
        if coords is None:
            raise AssertionError(f"the span is not closed under the commutator at pair ({i},{j})")
        brackets[(i, j)] = dict(sorted(coords.items()))
    return Representation(LieAlgebra(len(mats), brackets, verified=True), dim, mats,
                          verified=True)


def hom_constraint(repA: Representation, repB: Representation, g: int):
    """The map T -> rho_B(g) T - T rho_A(g) on Hom(A, B), flat index a*dimB + b
    (T's entry in row b of column a), applied to a sparse T without building
    its matrix."""
    dimB = repB.dim
    matB = repB.mats[g]
    rowsA = op_transpose(repA.mats[g])

    def apply(T: SparseVec) -> SparseVec:
        out: SparseVec = {}
        for t, v in T.items():
            a, b = divmod(t, dimB)
            accumulate(out, {a * dimB + r: c for r, c in matB.get(b, {}).items()}, v)
            accumulate(out, {a2 * dimB + b: c for a2, c in rowsA.get(a, {}).items()}, -v)
        return out
    return apply


# --------------------------------------------------------------------------
# invariant / equivariant solvers
# --------------------------------------------------------------------------

def common_kernel(applies, dim: int) -> list[SparseVec]:
    """Exact basis of the common kernel of a family of linear maps on R^dim.

    Each map is a callable v -> A v on sparse vectors and is only ever
    applied to the basis of the running kernel, which starts as the dim unit
    vectors and is intersected with one map's kernel at a time; no matrix is
    built beyond the images of those vectors.  The running basis is
    integer-primitive, so it stays int-valued.  Ordering structured
    (torus-like) maps first keeps the running kernel, and so every later
    elimination, small.
    """
    K: list[SparseVec] = [{c: 1} for c in range(dim)]
    for apply in applies:
        rowsys: dict[int, SparseVec] = {}
        for i, k in enumerate(K):
            for r, v in apply(k).items():
                rowsys.setdefault(r, {})[i] = v
        if rowsys:
            newK = []
            for x in sparse_nullspace([rowsys[r] for r in sorted(rowsys)], len(K)):
                vec: SparseVec = {}
                for i, s in x.items():
                    accumulate(vec, K[i], s)
                newK.append(sv_primitive(vec))
            K = newK
        if not K:
            return []
    K.sort(key=lambda v: min(v))
    return K


def equivariant_hom(repA: Representation, repB: Representation,
                    order: list[int] | None = None) -> list[SparseVec]:
    """Exact basis of {T : rho_B(g) T = T rho_A(g) for all g}, flat-indexed.

    The result is re-verified after the solve by direct application of the
    defining identity to each T as an operator, independently of the
    elimination path.
    """
    if repA.algebra is not repB.algebra:
        raise ValueError("representations of different algebras")
    gens = order if order is not None else list(range(repA.algebra.dim))
    dimB = repB.dim
    K = common_kernel([hom_constraint(repA, repB, g) for g in gens], repA.dim * dimB)
    for T in K:
        op_T: ColMat = {}
        for t, v in T.items():
            op_T.setdefault(t // dimB, {})[t % dimB] = v
        for a, b in zip(repA.mats, repB.mats):
            if not op_is_zero(op_sub(op_compose(b, op_T), op_compose(op_T, a))):
                raise AssertionError("equivariant_hom produced a non-equivariant map")
    return K


# --------------------------------------------------------------------------
# semidirect assembly
# --------------------------------------------------------------------------

def semidirect(h: LieAlgebra, rho: Representation,
               b_m: BilinearMap | None = None,
               b_h: BilinearMap | None = None) -> LieAlgebra:
    """The unverified Lie algebra h + m with [h,m] = rho(h)m, [m,m] = b_m + b_h.

    Its caller certifies Jacobi, on the triples with two m-indices only
    (``verify_jacobi(start=h.dim)``): the (h, h, h) triples are h's Jacobi
    identity and the (h, h, m) ones rho's homomorphism property, so h and
    rho must be verified, as ``matrix_algebra`` and its restrictions to
    subalgebras leave them (an AssertionError otherwise).  The (h, m, m)
    triples are the equivariance of b_m and b_h.
    """
    if not (h.verified and rho.verified and rho.algebra is h):
        raise AssertionError("semidirect needs a verified h and a checked representation of it")
    dh, dm = h.dim, rho.dim
    if b_m is None:
        b_m = BilinearMap.zero(dm, dm)
    if b_h is None:
        b_h = BilinearMap.zero(dm, dh)
    brackets: dict[tuple[int, int], SparseVec] = {}
    for (i, j), col in h.brackets.items():
        brackets[(i, j)] = dict(col)
    for g in range(dh):
        for a, col in rho.mats[g].items():
            brackets[(g, dh + a)] = {dh + r: v for r, v in col.items()}
    for (i, j), col in b_m.coeffs.items():
        brackets.setdefault((dh + i, dh + j), {}).update(
            {dh + k: v for k, v in col.items()})
    for (i, j), col in b_h.coeffs.items():
        accumulate(brackets.setdefault((dh + i, dh + j), {}), col)
    return LieAlgebra(dh + dm, brackets)
