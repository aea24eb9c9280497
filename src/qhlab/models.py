"""Isotropy representations, invariant brackets, bracket normal forms and
construction of the named homogeneous models.

Basis of m (= R^{4n}): index 4p + u where p is the quaternionic slot and
u in {0,1,2,3} enumerates (1, i, j, k).  Slot 0 carries R + Im(H); slots
1..n-1 carry H^{n-1}.  The isotropy algebra h = sp(1) + sp(n-1) acts by

    sp(1):   v -> a v - v a   on Im(H),    q -> -q a   on H^{n-1},
    sp(n-1): q -> Y q         on H^{n-1},

and every h-invariant bracket on h + m is a point of one nine-parameter
table, five m-valued and four h-valued basis brackets; the eight Table-4
kinds are rows of it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import combinations
from types import MappingProxyType

from .lie import (BilinearMap, ColMat, LieAlgebra, Representation, equivariant_hom,
                  flatten_op, matrix_algebra, op_apply, op_compose, op_is_skew, op_is_zero,
                  op_sub, semidirect)
from .linalg import Echelon, SparseVec, accumulate, icode, rref
from .poly import Poly
from .quaternion import IM_UNITS, UNITS, QMat, Quaternion, format_rat, rat, sp_basis

HORIZONTAL_NAMES = ("Theta", "Psi1", "Psi2", "Upsilon1", "Upsilon2")
PARAM_NAMES = ("alpha", "beta1", "beta2", "gamma1", "gamma2")


def dims(n: int) -> dict[str, int]:
    """Maximal, submaximal and isotropy dimensions for quaternionic dim n."""
    if n < 1:
        raise ValueError("n >= 1 required")
    d = 2 * n * n + n + 4
    if n in (1, 2):
        d += 1
    return {"D": 2 * n * n + 5 * n + 3, "d": d, "delta": 2 * n * n - 3 * n + 4}


# --------------------------------------------------------------------------
# basis bookkeeping
# --------------------------------------------------------------------------

def basis_block(i: int) -> int:
    """The block of basis index i of m: 0 for R (index 0), 1 for Im(H)
    (indices 1-3) and 2 for H^{n-1} (indices 4 and up)."""
    return 0 if i == 0 else 1 if i < 4 else 2


def model_groups(n: int) -> list[list[int]]:
    """The basis split R / Im(H) / H^{n-1} used for product detection."""
    return [[i for i in range(4 * n) if basis_block(i) == b] for b in range(3)]


def metric_diag(n: int, c1, c2) -> list:
    """The metric g_{c1,c2}: c1 on R + Im(H), c2 on H^{n-1}."""
    return [c2 if basis_block(i) == 2 else c1 for i in range(4 * n)]


def _quat_to_slot(p: int, q: Quaternion) -> SparseVec:
    """q in slot p as a real vector: the one place a quaternion's (int or
    Fraction) components enter a vector, each an int when integral."""
    return {4 * p + u: icode(Fraction(comp)) for u, comp in enumerate(q.components()) if comp}


def _realify(n: int, image) -> ColMat:
    """Column-major real matrix of the real-linear map of H^n that sends the
    unit x in slot p to image(p, x), a dict {slot: quaternion}."""
    col: ColMat = {}
    for p in range(n):
        for u, unit in enumerate(UNITS):
            if vec := {k: v for t, q in image(p, unit).items()
                       for k, v in _quat_to_slot(t, q).items()}:
                col[4 * p + u] = vec
    return col


def _bilinear(n: int, dim_out: int, rule) -> BilinearMap:
    """The antisymmetric bilinear map on H^n whose [e_i, e_j], i = 4p + u <
    j = 4q + v, is rule(p, UNITS[u], q, UNITS[v]), a zero-free sparse vector."""
    coeffs: dict[tuple[int, int], SparseVec] = {}
    for i, j in combinations(range(4 * n), 2):
        (p, u), (q, v) = divmod(i, 4), divmod(j, 4)
        if vec := rule(p, UNITS[u], q, UNITS[v]):
            coeffs[(i, j)] = vec
    return BilinearMap(4 * n, dim_out, coeffs)


def _action(n: int, x: Quaternion | None, X: QMat) -> ColMat:
    """Real matrix of q -> X q - q x on H^n (no right factor when x is None)."""
    def image(p: int, u: Quaternion) -> dict[int, Quaternion]:
        out = {r: e * u for (r, c), e in X.items() if c == p}
        if x is not None:
            out[p] = out[p] - u * x if p in out else -(u * x)
        return out
    return _realify(n, image)


@cache
def _sp_pair_rep(n: int, m: int) -> tuple[LieAlgebra, Representation, tuple[int, ...]]:
    """sp(1) + sp(m) acting on H^n, its last m slots carrying sp(m): sp(1) by
    q -> -q a, and also by q -> a q on slot 0 when m = n - 1, and sp(m) by
    q -> Y q.  The action is faithful, so matrix_algebra, its one reader,
    certifies the structure constants and the action in one pass.  The
    solver order lists torus-like generators first (A_i and the diagonal
    i E_ss of sp(m)), whose constraint operators split into tiny blocks.
    Built once per (n, m): callers share the result and must not modify it.
    """
    off = n - m
    mats = [_action(n, a, {(s, s): a for s in range(off)}) for a in IM_UNITS]
    mats += [_action(n, None, {(off + r, off + c): e for (r, c), e in Y.items()})
             for Y in sp_basis(m, 0)]
    rho = matrix_algebra(mats, 4 * n)
    torus = [0] + [3 + 3 * s for s in range(m)]
    order = tuple(torus + [g for g in range(len(mats)) if g not in torus])
    return rho.algebra, rho, order


def isotropy_rep(n: int) -> tuple[LieAlgebra, Representation, tuple[int, ...]]:
    """The algebra h = sp(1) + sp(n-1), its action on m, and a solver order."""
    if n < 2:
        raise ValueError("n >= 2 required")
    rep = _sp_pair_rep(n, n - 1)
    _certify_isotropy_metric(n)
    return rep


# id -> matrix for the matrices certified skew for every metric g_{c1,c2},
# which with_metric skips; holding each matrix keeps its id from being reused
_SKEW_FOR_EVERY_METRIC: dict[int, ColMat] = {}


@cache
def _certify_isotropy_metric(n: int) -> None:
    """Certify, once per n, that every isotropy matrix is skew for g_{c1,c2}
    at symbolic c1, c2, so at every metric point; raises otherwise."""
    rho = _sp_pair_rep(n, n - 1)[1]
    metric = metric_diag(n, Poly.var("c1"), Poly.var("c2"))
    if not all(op_is_skew(mat, metric) for mat in rho.mats):
        raise AssertionError("metric is not isotropy invariant")
    _SKEW_FOR_EVERY_METRIC.update((id(mat), mat) for mat in rho.mats)


def ambient_rep(n: int) -> tuple[LieAlgebra, Representation, tuple[int, ...]]:
    """k = sp(1) + sp(n) acting on H^n: q -> -q a and q -> X q."""
    return _sp_pair_rep(n, n)


def _algebra_reader(rho: Representation, name: str):
    """read(mat): the sorted coordinates of a matrix in rho's algebra (named
    name), off one echelon of rho's matrices; raises when mat is off it."""
    span = Echelon(flatten_op(mat, rho.dim) for mat in rho.mats)

    def read(mat: ColMat) -> SparseVec:
        if (coords := span.coordinates(flatten_op(mat, rho.dim))) is None:
            raise AssertionError(f"a bracket value does not lie in {name}")
        return dict(sorted(coords.items()))
    return read


def _certified_triple(triple: tuple[ColMat, ColMat, ColMat],
                      rho: Representation) -> tuple[ColMat, ColMat, ColMat]:
    """triple, checked: Hermitian for g_{c1,c2} at symbolic c1, c2, I^2 = J^2 =
    K^2 = -Id, I J = K and a rho-invariant span; the triple given is returned.
    The two cached triples below pass it once per n and must not be
    modified."""
    I, J, K = triple
    metric = metric_diag(rho.dim // 4, Poly.var("c1"), Poly.var("c2"))
    if not all(op_is_skew(A, metric) for A in triple):
        raise AssertionError("metric is not Hermitian for the triple")
    minus_id: ColMat = {c: {c: -1} for c in range(rho.dim)}
    for A in triple:
        if not op_is_zero(op_sub(op_compose(A, A), minus_id)):
            raise AssertionError("triple element does not square to -Id")
    if not op_is_zero(op_sub(op_compose(I, J), K)):
        raise AssertionError("I J != K")
    triple_span = Echelon(flatten_op(A, rho.dim) for A in triple)
    for mat in rho.mats:
        for A in triple:
            comm = op_sub(op_compose(mat, A), op_compose(A, mat))
            if triple_span.reduce(flatten_op(comm, rho.dim)):
                raise AssertionError("triple span is not isotropy invariant")
    return triple


@cache
def quaternionic_triple(n: int) -> tuple[ColMat, ColMat, ColMat]:
    """Invariant triple for the submaximal models, certified by isotropy_rep(n).

    On the H^{n-1} block the structure is right multiplication (R_i, R_j,
    -R_k); on the H-slot it is the conjugated realization (-L_i, -L_j, L_k).
    Both mixed-sign patterns satisfy I^2 = J^2 = K^2 = I J K = -Id and are
    h-invariant as a span; this orientation is the one for which the
    quaternion-Kahler locus lands on the alpha = -1 bracket at c1 = 2 c2,
    matching the classification's normal-form labels.
    """
    def mixed(a: Quaternion, sign: int) -> ColMat:  # sign L_a on slot 0, -sign R_a after
        return _realify(n, lambda p, x: {p: (a * x) * sign if p == 0 else (x * a) * -sign})
    i, j, k = IM_UNITS
    return _certified_triple((mixed(i, -1), mixed(j, -1), mixed(k, 1)), isotropy_rep(n)[1])


@cache
def ambient_triple(n: int) -> tuple[ColMat, ColMat, ColMat]:
    """Right multiplications (R_i, R_j, -R_k) on H^n, certified by ambient_rep(n).

    This is the unique triple invariant under the full sp(1) + sp(n); used by
    the flat and curved maximal models (their isotropy rotates any slotwise
    mixture out of the span), and for Omega_k.
    """
    def right_mult(a: Quaternion, sign: int) -> ColMat:
        return _realify(n, lambda p, x: {p: (x * a) * sign})
    i, j, k = IM_UNITS
    return _certified_triple((right_mult(i, 1), right_mult(j, 1), right_mult(k, -1)),
                             ambient_rep(n)[1])


# --------------------------------------------------------------------------
# the nine invariant brackets
# --------------------------------------------------------------------------

_HORIZONTAL_RULES = {  # on x in slot p, y in slot q; slot 0 is R + Im(H)
    "Theta": lambda p, x, q, y: _quat_to_slot(0, (x.conj() * y).im()) if p == q > 0 else {},
    "Psi1": lambda p, x, q, y: _quat_to_slot(0, y) if p == q == 0 and x.a else {},
    "Psi2": lambda p, x, q, y: _quat_to_slot(q, y) if p == 0 < q and x.a else {},
    "Upsilon1": lambda p, x, q, y: (_quat_to_slot(0, (x * y * 2).im())
                                    if p == q == 0 and not x.a else {}),
    "Upsilon2": lambda p, x, q, y: _quat_to_slot(q, y * x.conj()) if p == 0 < q and not x.a else {},
}


def horizontal_brackets(n: int) -> dict[str, BilinearMap]:
    """Basis Theta, Psi1, Psi2, Upsilon1, Upsilon2 of the m-valued brackets:
    Theta(x, y) = Im(conj(x) y) on H^{n-1}, Psi1(1, v) = v, Psi2(1, y) = y,
    Upsilon1(v, w) = 2 Im(v w) and Upsilon2(v, y) = y conj(v), v, w in Im(H)."""
    return {name: _bilinear(n, 4 * n, rule) for name, rule in _HORIZONTAL_RULES.items()}


def xi_operator(p: int, x: Quaternion, q: int, y: Quaternion) -> QMat:
    """Xi(x, y) = y x^dagger - x y^dagger for x in slot p and y in slot q:
    at most two entries."""
    out: QMat = {}
    accumulate(out, {(q, p): y * x.conj()})
    accumulate(out, {(p, q): -(x * y.conj())})
    return out


def _sp1(v: Quaternion) -> tuple[Quaternion, QMat]:
    """v in the isotropy sp(1), as the (x, X) of _action that _sp_pair_rep uses."""
    return v, {(0, 0): v}


_VERTICAL_RULES = {  # h-valued, as the (x, X) of q -> X q - q x; x in slot p <= q
    "ThetaV": lambda p, x, q, y: _sp1((x.conj() * y).im()) if p == q > 0 else None,
    "Psi1V": lambda p, x, q, y: _sp1(y) if p == q == 0 and x.a else None,
    "Upsilon1V": lambda p, x, q, y: _sp1((x * y * 2).im()) if p == q == 0 and not x.a else None,
    "Xi": lambda p, x, q, y: (None, xi_operator(p, x, q, y)) if p > 0 else None,
}


@cache
def vertical_brackets(n: int) -> MappingProxyType:
    """Basis ThetaV, Psi1V, Upsilon1V, Xi of the h-valued brackets: ThetaV(x, y) =
    Im(conj(x) y) on H^{n-1}, Psi1V(1, v) = v, Upsilon1V(v, w) = 2 Im(v w), v, w
    in Im(H), in sp(1), and Xi(x, y) = y x^dagger - x y^dagger on H^{n-1}, in
    sp(n-1).  Each value is read in h off its action on H^n, by one echelon of
    isotropy_rep(n)'s matrices; built once per n, shared, not to be modified."""
    h, rho, _ = isotropy_rep(n)
    read = _algebra_reader(rho, "sp(1) + sp(n-1)")

    def table(rule) -> BilinearMap:
        return _bilinear(n, h.dim, lambda p, x, q, y: read(_action(n, *elt))
                         if (elt := rule(p, x, q, y)) else {})
    return MappingProxyType({name: table(rule) for name, rule in _VERTICAL_RULES.items()})


def _table_sum(tables, params) -> BilinearMap:
    """sum_i params_i * tables_i, summed table by table (tables a nonempty mapping)."""
    coeffs: dict[tuple[int, int], SparseVec] = {}
    for coeff, table in zip(params, tables.values()):
        if coeff:
            for ij, col in table.coeffs.items():
                accumulate(coeffs.setdefault(ij, {}), col, coeff)
    return BilinearMap(table.dim_in, table.dim_out, coeffs)


def bracket_from_params(n: int, alpha, beta1, beta2, gamma1, gamma2) -> BilinearMap:
    """B = alpha*Theta + beta1*Psi1 + beta2*Psi2 + gamma1*Upsilon1 + gamma2*Upsilon2
    (the five have disjoint supports)."""
    return _table_sum(horizontal_brackets(n), (alpha, beta1, beta2, gamma1, gamma2))


def vertical_from_params(n: int, theta_v, psi1_v, upsilon1_v, xi) -> BilinearMap:
    """The h-valued theta_v*ThetaV + psi1_v*Psi1V + upsilon1_v*Upsilon1V + xi*Xi."""
    return _table_sum(vertical_brackets(n), (theta_v, psi1_v, upsilon1_v, xi))


# --------------------------------------------------------------------------
# Jacobi families and normal forms
# --------------------------------------------------------------------------

def _jacobi_equations(h: LieAlgebra, rho: Representation, b_m: BilinearMap | None,
                      b_h: BilinearMap | None = None) -> tuple[Poly, ...]:
    """The one parameter-space Jacobi reader: sorted monic generators of the span
    of the jacobiator components of semidirect(h, rho, b_m, b_h), brackets over
    Poly parameters, on the triples with two m-indices (lie.semidirect says why)."""
    jac = semidirect(h, rho, b_m, b_h).structure.jacobiator(h.dim)
    seen = {val.monic(): None for comp in jac.values() for val in comp.values()}
    eqs = [Poly(row).monic() for row in rref([p.terms for p in seen])]
    return tuple(sorted(eqs, key=lambda p: sorted(p.terms)))


@cache
def jacobi_equations(n: int) -> tuple[Poly, ...]:
    """Canonical generators of the Jacobi obstruction of h + m with the bracket
    B(alpha..gamma2) at n; their zero set is the union of the four parameter
    families, and n = 2..5 give the same six."""
    h, rho, _ = isotropy_rep(n)
    return _jacobi_equations(h, rho, bracket_from_params(n, *map(Poly.var, PARAM_NAMES)))


_FAMILY_CONDITIONS = {
    "F1": lambda a, b1, b2, g1, g2: b1 == 2 * b2 and g1 == 0 and g2 == 0,
    "F2": lambda a, b1, b2, g1, g2: a == 0 and g1 == 0 and g2 == 0,
    "F3": lambda a, b1, b2, g1, g2: a == 0 and b1 == 0 and g1 == g2,
    "F4": lambda a, b1, b2, g1, g2: a == 0 and b1 == 0 and g2 == 0,
}


def in_families(params) -> set[str]:
    p = tuple(Fraction(x) for x in params)
    return {name for name, cond in _FAMILY_CONDITIONS.items() if cond(*p)}


def violated_equations(params) -> list[Poly]:
    point = dict(zip(PARAM_NAMES, (Fraction(x) for x in params)))
    return [eq for eq in jacobi_equations(3) if eq.eval(point) != 0]


class NormalForm(namedtuple("NormalForm", [
        "name",       # str: H1+, H1-, H2, H3, H4, H5, H6
        "canonical",  # tuple: normalized (alpha, beta1, beta2, gamma1, gamma2)
        "beta",       # Fraction | None: free parameter for H3, H5, H6
        "s",          # Fraction
        "t_sq",       # Fraction: the action only involves t^2, kept rational
        ])):
    __slots__ = ()


def apply_scaling(params, s: Fraction, t_sq: Fraction) -> tuple:
    a, b1, b2, g1, g2 = (Fraction(x) for x in params)
    return (t_sq / s * a, s * b1, s * b2, s * g1, s * g2)


def normalize(params) -> NormalForm:
    """Table representative of the A_{s,t}-orbit of a non-flat Jacobi point.

    A_{s,t} sends (alpha, b1, b2, g1, g2) to (t^2 s^-1 alpha, s b1, s b2,
    s g1, s g2); only t^2 enters, so the witness is returned as (s, t^2).
    In the alpha != 0 family the sign of alpha*beta2 is an orbit invariant
    and splits H1 into H1+/H1-.
    """
    p = tuple(Fraction(x) for x in params)
    bad = violated_equations(p)
    if bad:
        raise ValueError("not a Lie bracket; violated: "
                         + ", ".join(str(e) for e in bad))
    a, b1, b2, g1, g2 = p
    if not any(p):
        raise ValueError("flat bracket (all parameters zero) is excluded")
    beta, t_sq = None, Fraction(1)
    if a != 0 and b2 != 0:
        s = 1 / b2
        sign = 1 if a * b2 > 0 else -1
        name, t_sq = ("H1+" if sign > 0 else "H1-"), sign * s / a
    elif a != 0:  # beta's vanish, so s is free up to the alpha slot; fix t^2 = 1, s = alpha
        name, s = "H2", a
    elif g1 != 0:
        name, s, beta = ("H6" if g2 != 0 else "H5"), 1 / g1, b2 / g1
    elif b1 != 0:
        name, s, beta = "H3", 2 / b1, 2 * b2 / b1
    else:
        name, s = "H4", 1 / b2
    return NormalForm(name, table3_tuple(name, beta), beta, s, t_sq)


def table3_tuple(name: str, beta=None) -> tuple:
    """Parameters (alpha, beta1, beta2, gamma1, gamma2) of a table-3 normal
    form, as Fractions; beta, for H3, H5 and H6, is a rational or a Poly."""
    if name in ("H3", "H5", "H6"):
        if beta is None:
            raise ValueError(f"{name} needs a beta parameter")
        beta = beta if isinstance(beta, Poly) else Fraction(beta)
    rows = {"H1+": (1, 2, 1, 0, 0), "H1-": (-1, 2, 1, 0, 0), "H2": (1, 0, 0, 0, 0),
            "H3": (0, 2, beta, 0, 0), "H4": (0, 0, 1, 0, 0), "H5": (0, 0, beta, 1, 0),
            "H6": (0, 0, beta, 1, 1)}
    if name not in rows:
        raise ValueError(f"unknown normal-form name {name}")
    return tuple(x if isinstance(x, Poly) else Fraction(x) for x in rows[name])


# (Theta, Psi1, Psi2, Upsilon1, Upsilon2 | ThetaV, Psi1V, Upsilon1V, Xi) of the
# bundle models over HP^n and HH^n: the points eps = 1 and eps = -1 of the line
# (eps, 0, 0, 0, -1 | -eps, 0, 1, eps), on which Jacobi holds for every eps
_QH_ROWS = {"QHP": ((1, 0, 0, 0, -1), (-1, 0, 1, 1)),
            "QHH": ((-1, 0, 0, 0, -1), (1, 0, 1, -1))}


@cache
def certified_row(kind: str, n: int) -> tuple[tuple, tuple | None]:
    """(horizontal, vertical) row of the Table-4 kind's bracket, certified a
    Lie bracket at n: an H kind's table3_tuple (beta2 a Poly for H3 and H5)
    with no vertical part, by the vanishing of jacobi_equations(n) for every
    beta2, and QHP or QHH's row by one Jacobi pass of its semidirect(h, rho,
    b_m, b_h); raises otherwise.  The Jacobi certificate of every build of
    kind at n."""
    if kind in H_KINDS:
        row = (table3_tuple(kind, Poly.var("beta2") if kind in ("H3", "H5") else None), None)
        point = dict(zip(PARAM_NAMES, row[0]))
        ok = not any(p.eval(point) for p in jacobi_equations(n))
    else:
        row = _QH_ROWS[kind]
        h, rho, _ = isotropy_rep(n)
        b_m, b_h = bracket_from_params(n, *row[0]), vertical_from_params(n, *row[1])
        ok = semidirect(h, rho, b_m, b_h).verify_jacobi(start=h.dim)
    if not ok:
        raise AssertionError(f"the {kind} bracket fails the Jacobi identity at n={n}")
    return row


# --------------------------------------------------------------------------
# model specs and construction
# --------------------------------------------------------------------------

H_KINDS = ("H1+", "H1-", "H2", "H3", "H4", "H5")
TABLE4_KINDS = H_KINDS + ("QHP", "QHH")
MODEL_KINDS = TABLE4_KINDS + ("FlatMax", "MaxCurved", "TwistedTheta")


class ModelSpec(namedtuple("ModelSpec", "kind n c1 c2 beta c")):
    __slots__ = ()

    def __new__(cls, kind: str, n: int, c1: Fraction = Fraction(1), c2: Fraction = Fraction(1),
                beta: Fraction | Poly | None = None,  # a Poly beta2 gives the symbolic bracket
                c: Fraction | None = None):  # MaxCurved bracket scale
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        if kind in ("H3", "H5") and beta is None:
            raise ValueError(f"{kind} requires beta")
        if kind not in ("H3", "H5") and beta is not None:
            raise ValueError(f"{kind} takes no beta")
        if kind == "MaxCurved" and not c:
            raise ValueError("MaxCurved requires a nonzero c (c = 0 is FlatMax)")
        if kind != "MaxCurved" and c is not None:
            raise ValueError(f"{kind} takes no c")
        if n < 2:
            raise ValueError("n >= 2 required")
        if not (c1 > 0 and c2 > 0):
            raise ValueError("metric parameters must be positive")
        if kind in ("FlatMax", "MaxCurved") and c1 != c2:
            raise ValueError(f"{kind} needs c1 = c2: sp(1) + sp(n) acts irreducibly on H^n")
        return super().__new__(cls, kind, n, c1, c2, beta, c)

    def to_string(self) -> str:
        parts = [self.kind]
        if self.beta is not None:
            parts.append(f"beta={format_rat(self.beta)}")
        if self.c is not None:
            parts.append(f"c={format_rat(self.c)}")
        parts.append(f"n={self.n}")
        parts.append(f"c1={format_rat(self.c1)}")
        parts.append(f"c2={format_rat(self.c2)}")
        return ":".join(parts)

    @staticmethod
    def parse(text: str) -> "ModelSpec":
        chunks = text.split(":")
        kind = chunks[0].strip()
        aliases = {"H1plus": "H1+", "H1minus": "H1-", "Twisted": "TwistedTheta"}
        kind = aliases.get(kind, kind)
        fields: dict = {}
        for chunk in chunks[1:]:
            key, _, val = (part.strip() for part in chunk.partition("="))
            if key not in ("n", "c1", "c2", "beta", "c"):
                raise ValueError(f"unknown spec field {key!r}")
            if key in fields:
                raise ValueError(f"duplicate spec field {key!r}")
            fields[key] = int(val) if key == "n" else rat(val)
        return ModelSpec(kind, **{"n": 3, **fields})


class HomogeneousModel(namedtuple("HomogeneousModel", [
        "n",          # int
        "g",          # LieAlgebra
        "rho",        # Representation
        "bracket_m",  # BilinearMap
        "bracket_h",  # BilinearMap
        "triple",     # tuple[ColMat, ColMat, ColMat]
        "metric",     # list
        ])):
    """A reductive pair with chosen complement, brackets, triple and metric."""

    __slots__ = ()

    def with_metric(self, c1, c2) -> "HomogeneousModel":
        """The same verified skeleton with the metric g_{c1,c2} (Polys, or
        rationals taken as Fractions), certified isotropy invariant;
        _certified_triple made it Hermitian.  Matrices of isotropy_rep,
        certified for every metric once per n, are not checked again."""
        metric = metric_diag(self.n, *(c if isinstance(c, Poly) else Fraction(c) for c in (c1, c2)))
        if not all(op_is_skew(mat, metric) for mat in self.rho.mats
                   if _SKEW_FOR_EVERY_METRIC.get(id(mat)) is not mat):
            raise AssertionError("metric is not isotropy invariant")
        return self._replace(metric=metric)


def verify_model(model: HomogeneousModel) -> None:
    """The Jacobi pass of an assembled model (lie.semidirect says which triples),
    skipped when g comes verified, as a Table-4 kind's does; raises on failure."""
    if not model.g.verified and not model.g.verify_jacobi(start=model.rho.algebra.dim):
        raise AssertionError("assembled algebra fails the Jacobi identity")


def _restrict_rep(rep: Representation, sub: LieAlgebra, gens: list[int]) -> Representation:
    """rep on sub = subalgebra(gens), which raises unless gens span one; a
    representation restricted to a subalgebra is one, so verified as rep is."""
    return Representation(sub, rep.dim, [rep.mats[g] for g in gens], verified=rep.verified)


def _assemble(spec: ModelSpec, g: LieAlgebra, rho: Representation,
              b_m: BilinearMap | None, b_h: BilinearMap | None,
              triple: tuple[ColMat, ColMat, ColMat]) -> HomogeneousModel:
    """The verified model on g = h + m, assembled from h = rho's algebra, m = rho's
    module and [m,m] = b_m + b_h, with the spec's metric."""
    dh, dm = rho.algebra.dim, rho.dim
    b_m = b_m or BilinearMap.zero(dm, dm)
    b_h = b_h or BilinearMap.zero(dm, dh)
    model = HomogeneousModel(spec.n, g, rho, b_m, b_h, triple, [])
    verify_model(model)
    return model.with_metric(spec.c1, spec.c2)


def build_model(spec: ModelSpec) -> HomogeneousModel:
    """The verified model of spec; a Poly beta gives the symbolic H3/H5 bracket.
    A Table-4 kind is its row of the bracket table, certified once per n."""
    n = spec.n
    if spec.kind in TABLE4_KINDS:
        h, rho, _ = isotropy_rep(n)
        hz, vt = certified_row(spec.kind, n)  # raises unless the row is Jacobi at n
        if spec.kind in H_KINDS:  # the row at the spec's beta2
            hz = table3_tuple(spec.kind, spec.beta)
        b_m, b_h = bracket_from_params(n, *hz), vt and vertical_from_params(n, *vt)
        g = semidirect(h, rho, b_m, b_h)
        g.verified = True
        return _assemble(spec, g, rho, b_m, b_h, quaternionic_triple(n))
    if spec.kind in ("FlatMax", "MaxCurved"):
        k, rho_k, _ = ambient_rep(n)
        b_k = maximal_vertical_bracket(n, 2 * spec.c, spec.c) if spec.c is not None else None
        return _assemble(spec, semidirect(k, rho_k, None, b_k), rho_k, None, b_k,
                         ambient_triple(n))
    if spec.kind == "TwistedTheta":
        return _build_twisted_model(spec)
    raise ValueError(f"unhandled kind {spec.kind}")


def symbolic_model(spec: ModelSpec) -> HomogeneousModel:
    """The model of spec at the symbolic metric (c1, c2), whose one curvature
    holds over the whole metric cone (prop12); Hodge-dependent geometry
    requires rational points and is not available on it."""
    return build_model(spec).with_metric(Poly.var("c1"), Poly.var("c2"))


def maximal_vertical_bracket(n: int, c_theta, c_xi) -> BilinearMap:
    """c_theta * Theta + c_xi * Xi on all of H^n, valued in k = sp(1) + sp(n).

    Im(H) is identified with the sp(1) ideal via v -> -S_v, the sign fixed so
    that the Jacobi identity closes exactly on the c_theta = 2 c_xi locus.
    Each value is read in k off its action on H^n: Theta(x, y) acts by
    q -> q Im(conj(x) y) and Xi(x, y) by q -> Xi q.
    """
    k, rho_k, _ = ambient_rep(n)
    read = _algebra_reader(rho_k, "sp(1) + sp(n)")

    def rule(p: int, x: Quaternion, q: int, y: Quaternion) -> SparseVec:
        col: SparseVec = {}
        if p == q:
            accumulate(col, read(_action(n, -(x.conj() * y).im(), {})), c_theta)
        accumulate(col, read(_action(n, None, xi_operator(p, x, q, y))), c_xi)
        return dict(sorted(col.items()))
    return _bilinear(n, k.dim, rule)


# --------------------------------------------------------------------------
# twisted model
# --------------------------------------------------------------------------

def twisted_theta(n: int) -> BilinearMap:
    """Theta twisted by the complex structure I: (x, y) -> I(Theta(x, y))."""
    I = quaternionic_triple(n)[0]
    theta = horizontal_brackets(n)["Theta"]
    return BilinearMap(4 * n, 4 * n, {ij: op_apply(I, col) for ij, col in theta.coeffs.items()})


def _build_twisted_model(spec: ModelSpec) -> HomogeneousModel:
    """The twisted bracket over the centralizer Z_h(I) = so(2) + sp(n-1) (the
    generators commuting with I): it must be Z-equivariant, which the Jacobi
    certificate of its assembly checks, and must not be equivariant under all
    of h, so that the semidirect sum over h must fail Jacobi."""
    n = spec.n
    h, rho, _ = isotropy_rep(n)
    I = quaternionic_triple(n)[0]
    gens = [g for g, mat in enumerate(rho.mats)
            if op_is_zero(op_sub(op_compose(mat, I), op_compose(I, mat)))]
    z = h.subalgebra(gens)
    rho_z = _restrict_rep(rho, z, gens)
    b = twisted_theta(n)
    model = _assemble(spec, semidirect(z, rho_z, b), rho_z, b, None, quaternionic_triple(n))
    # Jacobi on m x m x m holds (certified above), so only h-equivariance can fail
    if semidirect(h, rho, b).verify_jacobi(start=h.dim):
        raise AssertionError("the twisted bracket is equivariant under all of h")
    return model


# --------------------------------------------------------------------------
# solvers specialised to the isotropy setting
# --------------------------------------------------------------------------

def bracket_space_dims(n: int) -> tuple[int, int]:
    """(horizontal, vertical) dimensions of the invariant-bracket space."""
    h, rho, order = isotropy_rep(n)
    lam2 = rho.exterior_power(2)
    horizontal = equivariant_hom(lam2, rho, order=order)
    vertical = equivariant_hom(lam2, h.adjoint(), order=order)
    return len(horizontal), len(vertical)


def inadmissible_hom_dim(n: int, which: str) -> int:
    """dim of equivariant maps Lambda^2 H^n -> H^n for a Cartan-torus isotropy.

    which = 'sp1' uses the Cartan direction of the sp(1) ideal, 'spn' the
    diagonal torus of sp(n): the heads of ambient_rep(n)'s solver order.
    """
    k, rho_k, order = ambient_rep(n)
    if which == "sp1":
        gens = list(order[:1])
    elif which == "spn":
        gens = list(order[1:n + 1])
    else:
        raise ValueError("which must be 'sp1' or 'spn'")
    sub = k.subalgebra(gens)
    if sub.brackets:
        raise AssertionError("torus generators do not commute")
    rho_sub = _restrict_rep(rho_k, sub, gens)
    lam2 = rho_sub.exterior_power(2)
    return len(equivariant_hom(lam2, rho_sub))


@cache
def maxmodel_equations(n: int) -> tuple[Poly, ...]:
    """The Jacobi obstruction of k + H^n with the vertical bracket c_theta * Theta
    + c_xi * Xi, c1 and c2 standing for c_theta and c_xi: (c1 - 2 c2,)."""
    k, rho_k, _ = ambient_rep(n)
    return _jacobi_equations(k, rho_k, None,
                             maximal_vertical_bracket(n, Poly.var("c1"), Poly.var("c2")))


def maxmodel_jacobi_holds(n: int, c_theta: Fraction, c_xi: Fraction) -> bool:
    """Jacobi for the bracket c_theta*Theta + c_xi*Xi on m = H^n (full algebra)."""
    point = {"c1": c_theta, "c2": c_xi}
    return all(eq.eval(point) == 0 for eq in maxmodel_equations(n))
