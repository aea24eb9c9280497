"""Lie algebras by structure constants, representations, and exact
equivariant/invariant solvers.

Sparse conventions: a vector is a dict {index: scalar}; an operator is
column-major, op[col] = {row: scalar}.  Scalars are Fractions or Polys --
all routines are written against the common arithmetic surface of the two.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .linalg import (SparseVec, invert, sparse_nullspace, sv_add_scaled,
                     sv_primitive)

# --------------------------------------------------------------------------
# sparse operator helpers
# --------------------------------------------------------------------------

ColMat = dict[int, SparseVec]  # column -> {row: scalar}


def op_apply(op: ColMat, v: SparseVec) -> SparseVec:
    out: SparseVec = {}
    for c, s in v.items():
        col = op.get(c)
        if not col or not s:
            continue
        for r, x in col.items():
            t = out.get(r, 0) + s * x
            if t:
                out[r] = t
            else:
                out.pop(r, None)
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
        col = sv_add_scaled(a.get(c, {}), b.get(c, {}), -1)
        if col:
            out[c] = col
    return out


def op_is_zero(op: ColMat) -> bool:
    return all(not col for col in op.values())


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
# Lie algebras and bilinear maps
# --------------------------------------------------------------------------

class LieAlgebra:
    """Structure constants c_{ij}^k stored for i < j; antisymmetry implicit."""

    def __init__(self, dim: int, brackets: dict[tuple[int, int], SparseVec],
                 verified: bool = False):
        self.dim = dim
        self.brackets = {ij: dict(v) for ij, v in brackets.items() if v}
        self.verified = verified

    def bracket_basis(self, i: int, j: int) -> SparseVec:
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        return {k: -v for k, v in self.brackets.get((j, i), {}).items()}

    def bracket(self, x: SparseVec, y: SparseVec) -> SparseVec:
        out: SparseVec = {}
        for i, xi in x.items():
            for j, yj in y.items():
                if i == j:
                    continue
                s = xi * yj
                for k, c in self.bracket_basis(i, j).items():
                    t = out.get(k, 0) + s * c
                    if t:
                        out[k] = t
                    else:
                        out.pop(k, None)
        return out

    def adjoint(self) -> "Representation":
        mats = []
        for g in range(self.dim):
            col: ColMat = {}
            for a in range(self.dim):
                img = self.bracket_basis(g, a)
                if img:
                    col[a] = dict(img)
            mats.append(col)
        return Representation(self, self.dim, mats)

    def jacobiator(self) -> dict[tuple[int, int, int], SparseVec]:
        return jacobiator_of(self.bracket, self.dim)

    def verify_jacobi(self) -> bool:
        ok = not self.jacobiator()
        self.verified = ok
        return ok


def jacobiator_of(bracket, dim: int) -> dict[tuple[int, int, int], SparseVec]:
    """Cyclic sums [[x,y],z] + [[y,z],x] + [[z,x],y] on basis triples.

    Returns only the nonzero components; empty dict means Jacobi holds.
    """
    out = {}
    basis = [{i: Fraction(1)} for i in range(dim)]
    pair_cache: dict[tuple[int, int], SparseVec] = {}

    def pb(i, j):
        if (i, j) not in pair_cache:
            pair_cache[(i, j)] = bracket(basis[i], basis[j])
        return pair_cache[(i, j)]

    for i, j, k in combinations(range(dim), 3):
        total = bracket(pb(i, j), basis[k])
        total = sv_add_scaled(total, bracket(pb(j, k), basis[i]), 1)
        total = sv_add_scaled(total, bracket(pb(k, i), basis[j]), 1)
        if total:
            out[(i, j, k)] = total
    return out


class BilinearMap:
    """Antisymmetric bilinear map m x m -> target, coefficients for i < j."""

    def __init__(self, dim_in: int, dim_out: int,
                 coeffs: dict[tuple[int, int], SparseVec]):
        self.dim_in = dim_in
        self.dim_out = dim_out
        self.coeffs = {ij: dict(v) for ij, v in coeffs.items() if v}

    @staticmethod
    def zero(dim_in: int, dim_out: int) -> "BilinearMap":
        return BilinearMap(dim_in, dim_out, {})

    def pair(self, i: int, j: int) -> SparseVec:
        if i == j:
            return {}
        if i < j:
            return self.coeffs.get((i, j), {})
        return {k: -v for k, v in self.coeffs.get((j, i), {}).items()}

    def apply(self, x: SparseVec, y: SparseVec) -> SparseVec:
        out: SparseVec = {}
        for i, xi in x.items():
            for j, yj in y.items():
                if i == j:
                    continue
                s = xi * yj
                for k, c in self.pair(i, j).items():
                    t = out.get(k, 0) + s * c
                    if t:
                        out[k] = t
                    else:
                        out.pop(k, None)
        return out

    def scale(self, s) -> "BilinearMap":
        return BilinearMap(self.dim_in, self.dim_out,
                           {ij: {k: s * v for k, v in col.items()}
                            for ij, col in self.coeffs.items()})

    def add(self, other: "BilinearMap") -> "BilinearMap":
        out = {ij: dict(v) for ij, v in self.coeffs.items()}
        for ij, col in other.coeffs.items():
            out[ij] = sv_add_scaled(out.get(ij, {}), col, 1)
        return BilinearMap(self.dim_in, self.dim_out, out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def substitute(self, point: dict) -> "BilinearMap":
        """Substitute Poly coefficients (keeps Fractions untouched)."""
        out = {}
        for ij, col in self.coeffs.items():
            newcol = {}
            for k, v in col.items():
                nv = v.substitute(point) if hasattr(v, "substitute") else v
                if hasattr(nv, "is_constant") and nv.is_constant():
                    nv = nv.constant_value()
                if nv:
                    newcol[k] = nv
            if newcol:
                out[ij] = newcol
        return BilinearMap(self.dim_in, self.dim_out, out)

    def flatten(self) -> SparseVec:
        """Vector in the hom space Lambda^2(m)* x target used by the solvers."""
        pairs = list(combinations(range(self.dim_in), 2))
        pidx = {p: t for t, p in enumerate(pairs)}
        out: SparseVec = {}
        for ij, col in self.coeffs.items():
            base = pidx[ij] * self.dim_out
            for k, v in col.items():
                out[base + k] = v
        return out

    @staticmethod
    def unflatten(vec: SparseVec, dim_in: int, dim_out: int) -> "BilinearMap":
        pairs = list(combinations(range(dim_in), 2))
        coeffs: dict[tuple[int, int], SparseVec] = {}
        for flat, v in vec.items():
            t, k = divmod(flat, dim_out)
            coeffs.setdefault(pairs[t], {})[k] = v
        return BilinearMap(dim_in, dim_out, coeffs)

    def jacobiator(self) -> dict[tuple[int, int, int], SparseVec]:
        if self.dim_in != self.dim_out:
            raise ValueError("jacobiator needs an endomorphic bracket")
        return jacobiator_of(self.apply, self.dim_in)


# --------------------------------------------------------------------------
# representations
# --------------------------------------------------------------------------

class Representation:
    """Matrices rho(e_g) (column-major sparse) of algebra on R^dim."""

    def __init__(self, algebra: LieAlgebra, dim: int, mats: list[ColMat],
                 check: bool = False):
        if len(mats) != algebra.dim:
            raise ValueError("one matrix per algebra basis element required")
        self.algebra = algebra
        self.dim = dim
        self.mats = mats
        if check:
            self.verify_homomorphism()

    def verify_homomorphism(self):
        for i in range(self.algebra.dim):
            for j in range(i + 1, self.algebra.dim):
                lhs: ColMat = {}
                for k, c in self.algebra.bracket_basis(i, j).items():
                    for col, vec in self.mats[k].items():
                        acc = lhs.setdefault(col, {})
                        for r, x in vec.items():
                            t = acc.get(r, 0) + c * x
                            if t:
                                acc[r] = t
                            else:
                                acc.pop(r, None)
                rhs = op_sub(op_compose(self.mats[i], self.mats[j]),
                             op_compose(self.mats[j], self.mats[i]))
                if not op_is_zero(op_sub(lhs, rhs)):
                    raise ValueError(f"not a representation at pair ({i},{j})")
        return True

    def dual(self) -> "Representation":
        """Contragredient action, rho*(g) = -rho(g)^T."""
        mats = []
        for g in range(self.algebra.dim):
            rows = op_transpose(self.mats[g])
            mats.append({c: {r: -x for r, x in col.items()}
                         for c, col in rows.items()})
        return Representation(self.algebra, self.dim, mats)

    def exterior_power(self, k: int) -> "Representation":
        basis = list(combinations(range(self.dim), k))
        index = {S: t for t, S in enumerate(basis)}
        mats = []
        for g in range(self.algebra.dim):
            mat: ColMat = {}
            rho = self.mats[g]
            for t, S in enumerate(basis):
                col: SparseVec = {}
                for pos, s in enumerate(S):
                    target = rho.get(s)
                    if not target:
                        continue
                    for r, c in target.items():
                        seq = list(S)
                        seq[pos] = r
                        ss = sort_sign(seq)
                        if ss is None:
                            continue
                        key = index[ss[0]]
                        v = col.get(key, 0) + c * ss[1]
                        if v:
                            col[key] = v
                        else:
                            col.pop(key, None)
                if col:
                    mat[t] = col
            mats.append(mat)
        return Representation(self.algebra, len(basis), mats)


def trivial_rep(algebra: LieAlgebra, dim: int) -> Representation:
    return Representation(algebra, dim, [{} for _ in range(algebra.dim)])


def hom_constraint_op(repA: Representation, repB: Representation, g: int) -> ColMat:
    """Operator T -> rho_B(g) T - T rho_A(g) on Hom(A, B), flat index a*dimB + b."""
    dimB = repB.dim
    rowsA = op_transpose(repA.mats[g])
    matB = repB.mats[g]
    op: ColMat = {}
    for a in range(repA.dim):
        arow = rowsA.get(a, {})
        for b in range(dimB):
            col: SparseVec = {}
            target = matB.get(b)
            if target:
                for r, c in target.items():
                    col[a * dimB + r] = c
            for a2, c in arow.items():
                key = a2 * dimB + b
                v = col.get(key, 0) - c
                if v:
                    col[key] = v
                else:
                    col.pop(key, None)
            if col:
                op[a * dimB + b] = col
    return op


# --------------------------------------------------------------------------
# invariant / equivariant solvers
# --------------------------------------------------------------------------

def common_kernel(op_makers, dim: int) -> list[SparseVec]:
    """Exact basis of the common kernel of a family of sparse operators.

    op_makers yields column-major operators (callables, so large operators
    can be materialized one at a time and freed).  The running kernel basis
    is intersected with each operator's kernel; ordering structured
    (torus-like) operators first keeps every elimination small.
    """
    K: list[SparseVec] | None = None
    for make in op_makers:
        op = make() if callable(make) else make
        if K is None:
            rows = op_transpose(op)
            row_list = [rows[r] for r in sorted(rows)]
            K = sparse_nullspace(row_list, dim)
        else:
            rowsys: dict[int, SparseVec] = {}
            for i, k in enumerate(K):
                w = op_apply(op, k)
                for r, v in w.items():
                    rowsys.setdefault(r, {})[i] = v
            if rowsys:
                xs = sparse_nullspace([rowsys[r] for r in sorted(rowsys)], len(K))
                newK = []
                for x in xs:
                    vec: SparseVec = {}
                    for i, s in x.items():
                        vec = sv_add_scaled(vec, K[i], s)
                    newK.append(sv_primitive(vec))
                K = newK
        if not K:
            return []
    if K is None:
        raise ValueError("no operators supplied")
    K.sort(key=lambda v: min(v))
    return K


def invariant_vectors(rep: Representation, order: list[int] | None = None) -> list[SparseVec]:
    """Exact basis of the joint kernel of all rho(e_g)."""
    gens = order if order is not None else list(range(rep.algebra.dim))
    makers = [(lambda g=g: rep.mats[g]) for g in gens]
    K = common_kernel(makers, rep.dim)
    for g in range(rep.algebra.dim):
        for v in K:
            if op_apply(rep.mats[g], v):
                raise AssertionError("invariant_vectors produced a non-invariant vector")
    return K


def equivariant_hom(repA: Representation, repB: Representation,
                    order: list[int] | None = None) -> list[SparseVec]:
    """Exact basis of {T : rho_B(g) T = T rho_A(g) for all g}, flat-indexed.

    The result is re-verified after the solve by direct application of the
    defining identity, independently of the elimination path.
    """
    if repA.algebra is not repB.algebra:
        raise ValueError("representations of different algebras")
    gens = order if order is not None else list(range(repA.algebra.dim))
    makers = [(lambda g=g: hom_constraint_op(repA, repB, g)) for g in gens]
    K = common_kernel(makers, repA.dim * repB.dim)
    for g in range(repA.algebra.dim):
        op = hom_constraint_op(repA, repB, g)
        for T in K:
            if op_apply(op, T):
                raise AssertionError("equivariant_hom produced a non-equivariant map")
    return K


def casimir(rep: Representation, gram: list[list[Fraction]]) -> ColMat:
    """Sum rho(e_i) rho(e^i) for the gram-dual basis; commutes with the image.

    The form must be nondegenerate and ad-invariant on the algebra; both are
    the caller's responsibility (checked downstream via the commutation
    assertion here).
    """
    inv = invert(gram)
    n = rep.algebra.dim
    C: ColMat = {}
    for c in range(rep.dim):
        base = {c: Fraction(1)}
        acc: SparseVec = {}
        for j in range(n):
            w = op_apply(rep.mats[j], base)
            if not w:
                continue
            for i in range(n):
                s = inv[i][j]
                if not s:
                    continue
                out = op_apply(rep.mats[i], w)
                for r, x in out.items():
                    t = acc.get(r, 0) + s * x
                    if t:
                        acc[r] = t
                    else:
                        acc.pop(r, None)
        if acc:
            C[c] = acc
    for g in range(n):
        if not op_is_zero(op_sub(op_compose(C, rep.mats[g]),
                                 op_compose(rep.mats[g], C))):
            raise AssertionError("casimir does not commute with the action")
    return C


# --------------------------------------------------------------------------
# semidirect assembly
# --------------------------------------------------------------------------

def is_equivariant(b: BilinearMap, rho: Representation,
                   target_action: list[ColMat]) -> bool:
    """True when b is equivariant: target(g) b(x,y) = b(rho(g)x, y) + b(x, rho(g)y)."""
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


def semidirect(h: LieAlgebra, rho: Representation,
               b_m: BilinearMap | None = None,
               b_h: BilinearMap | None = None,
               check: bool = True) -> LieAlgebra:
    """Lie algebra h + m with [h,m] = rho(h)m and [m,m] = b_m + b_h.

    Raises when the candidate brackets are not equivariant or the assembled
    algebra fails Jacobi; the result carries verified=True otherwise.
    """
    dh, dm = h.dim, rho.dim
    if b_m is None:
        b_m = BilinearMap.zero(dm, dm)
    if b_h is None:
        b_h = BilinearMap.zero(dm, dh)
    if check:
        if not is_equivariant(b_m, rho, rho.mats):
            raise ValueError("m-valued bracket is not equivariant")
        ad = h.adjoint()
        if not is_equivariant(b_h, rho, ad.mats):
            raise ValueError("h-valued bracket is not equivariant")
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
        acc = brackets.setdefault((dh + i, dh + j), {})
        for k, v in col.items():
            t = acc.get(k, 0) + v
            if t:
                acc[k] = t
            else:
                acc.pop(k, None)
    g_alg = LieAlgebra(dh + dm, brackets)
    if check and not g_alg.verify_jacobi():
        raise ValueError("assembled algebra fails the Jacobi identity")
    return g_alg
