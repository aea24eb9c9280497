"""Exterior forms on the models: fundamental 4-form, invariant-form exterior
derivative, Hodge/codifferential machinery at rational metric points, and the
split of d(Omega) into the two invariant 5-form lines.

A form is the sparse dict of ``lie``, {sorted index tuple: scalar}, with no
zero entries; every sum goes through ``linalg.accumulate``.  The cached
invariant 5-forms and theta lines are handed out as read-only mappings.
Coefficients are exact rationals (an int when integral, as the tables they
are read from) or Polys in (c1, c2) and, for the beta families, beta2;
Hodge-dependent quantities require a rational metric point.

The form operators take tables (a bracket's one-form differentials, a
triple, a diagonal metric), not models; only first_order_tests unpacks one.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import isqrt
from types import MappingProxyType

# common_kernel is unused here; bench/test_bench.py pins the forms.common_kernel binding
from .lie import BilinearMap, ColMat, common_kernel, derivation, sort_sign
from .linalg import Echelon, accumulate, nullspace, sv_primitive
from .poly import Poly, proportionality
from .models import (HORIZONTAL_NAMES, HomogeneousModel, ambient_rep, ambient_triple,
                     basis_block, certified_row, horizontal_brackets, isotropy_rep,
                     metric_diag, quaternionic_triple)


def lincomb(*pairs) -> dict:
    """The form sum s * form over the (s, form) pairs."""
    out: dict = {}
    for s, form in pairs:
        accumulate(out, form, s)
    return out


def wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for S, u in a.items():
        img = {}
        for T, v in b.items():
            if ms := sort_sign(S + T):
                img[ms[0]] = v if ms[1] > 0 else -v
        accumulate(out, img, u)
    return out


def pullback_all_slots(form: dict, op: ColMat) -> dict:
    """(A* alpha)(X_1..X_k) = alpha(A X_1, ..., A X_k): e_S goes to the wedge
    of the images of its slots."""
    out: dict = {}
    for S, c in form.items():
        img = {(): Fraction(1)}
        for s in S:
            img = wedge(img, {(r,): v for r, v in op.get(s, {}).items()})
        accumulate(out, img, c)
    return out


# --------------------------------------------------------------------------
# model-level forms
# --------------------------------------------------------------------------

def one_form_differentials(bracket: BilinearMap) -> list[dict]:
    """d(e^s) = -sum_{i<j} c_{ij}^s e^i ^ e^j from an m-valued bracket table:
    a model's bracket_m, or a basis table that need not satisfy Jacobi."""
    terms: list[dict] = [{} for _ in range(bracket.dim_out)]
    for (i, j), col in bracket.coeffs.items():
        for s, c in col.items():
            if c:
                terms[s][(i, j)] = -c
    return terms


def ce_differential(form: dict, d1: list[dict]) -> dict:
    """Exterior derivative of an invariant form on a reductive model, from
    the one-form differentials d1 of its bracket's m-part.

    On h-invariant input this is the de Rham derivative (and d o d = 0
    there), otherwise it is just the algebraic differential.  Slot pos of
    e_S contributes (-1)^pos d(e^{S_pos}) ^ e_{S without pos}; the 2-form
    commutes, so it is wedged on the right of the single term.
    """
    out: dict = {}
    for S, c in form.items():
        for pos, x in enumerate(S):
            accumulate(out, wedge({S[:pos] + S[pos + 1:]: -c if pos % 2 else c}, d1[x]))
    return out


def fundamental_forms(triple, metric: list) -> tuple[dict, dict, dict, dict]:
    """(omega_I, omega_J, omega_K, Omega) for a triple and a diagonal metric;
    each A is skew for it, as models._certified_triple proves for every g_{c1,c2}."""
    omegas = [{(i, j): metric[i] * v for j, col in A.items() for i, v in col.items() if i < j and v}
              for A in triple]
    omega = lincomb(*((1, wedge(om, om)) for om in omegas))
    return omegas[0], omegas[1], omegas[2], omega


# --------------------------------------------------------------------------
# Hodge star and codifferential at a rational metric point
# --------------------------------------------------------------------------

def _sqrt_fraction(x: Fraction) -> Fraction:
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(f"{x} is not a perfect rational square")
    return Fraction(rn, rd)


def hodge_star(form: dict, metric: list[Fraction]) -> dict:
    """Star for the diagonal metric; vol = sqrt(det g) e^{0...N-1}, N = len(metric)."""
    det = Fraction(1)
    for gx in metric:
        det *= gx
    vol_scale = _sqrt_fraction(det)
    full = tuple(range(len(metric)))
    out: dict = {}
    for S, c in form.items():  # the complements of distinct S are distinct
        comp = tuple(i for i in full if i not in S)
        ms = sort_sign(S + comp)
        if ms is None:
            raise AssertionError("complement overlap")
        _, sign = ms
        scale = vol_scale * Fraction(sign)
        for i in S:
            scale /= metric[i]
        out[comp] = scale * c
    return out


def codifferential(form: dict, d1: list[dict], metric: list[Fraction]) -> dict:
    """delta = -(star d star) on even-dimensional models."""
    return lincomb((-1, hodge_star(ce_differential(hodge_star(form, metric), d1), metric)))


def contract_pair(gamma: dict, omega: dict, metric: list[Fraction]) -> dict:
    """1-form x -> sum_{a<b} gamma(x, e_a, e_b) omega(e_a, e_b) / (G_a G_b)."""
    if any(len(S) != 3 for S in gamma) or any(len(S) != 2 for S in omega):
        raise ValueError("expected a 3-form against a 2-form")
    out: dict = {}
    for S, c in gamma.items():
        img = {}
        for pos in range(3):
            rest = S[:pos] + S[pos + 1:]
            w = omega.get(rest)
            if w:  # gamma(x, a, b) with x = S[pos], (a, b) = rest
                w = w / (metric[rest[0]] * metric[rest[1]])
                img[(S[pos],)] = -w if pos % 2 else w
        accumulate(out, img, c)
    return out


# --------------------------------------------------------------------------
# invariant 5-forms and the isotypic split
# --------------------------------------------------------------------------

def _bidegree(S: tuple) -> tuple[int, int, int]:
    """How many indices of S lie in each block R / Im(H) / H^{n-1} of m."""
    blocks = [basis_block(i) for i in S]
    return (blocks.count(0), blocks.count(1), blocks.count(2))


@cache
def invariant_five_forms(n: int) -> tuple[dict, dict]:
    """The (1,0,4) and (1,2,2) block bi-degree parts p1, p2 of e^0 ^ Omega_k,
    an exact basis of the h-invariant 5-forms on m (dimension 2 for n >= 3).

    Omega_k is the fundamental 4-form of the ambient triple at the unit
    metric, certified killed by every generator of the ambient
    k = sp(1) + sp(n); each part is certified killed by every isotropy
    generator.  The matrices and the unit metric are integral, so the forms
    are int-valued.  That the invariant 5-forms are no more than these two
    is checked against the kernel of the derivations on Lambda^5 in the
    tests.
    """
    if n < 3:
        raise ValueError("the 5-form analysis requires n >= 3")
    _, _, _, omega_k = fundamental_forms(ambient_triple(n), metric_diag(n, 1, 1))
    if any(derivation(omega_k, mat) for mat in ambient_rep(n)[1].mats):
        raise AssertionError("Omega_k is not invariant under the ambient algebra")
    theta_eh = wedge({(0,): 1}, omega_k)
    parts = tuple({S: c for S, c in theta_eh.items() if _bidegree(S) == bd}
                  for bd in ((1, 0, 4), (1, 2, 2)))
    if any(derivation(p, mat) for mat in isotropy_rep(n)[1].mats for p in parts):
        raise AssertionError("a bi-degree part of e0 ^ Omega_k is not invariant")
    return tuple(MappingProxyType(p) for p in parts)


class IsotypicPair(namedtuple("IsotypicPair", "theta_eh theta_kh")):
    __slots__ = ()


@cache
def isotypic_split(n: int) -> IsotypicPair:
    """The theta_EH / theta_KH lines of the invariant 5-form plane.

    EH is the Lambda^1-type module Lambda^1 ^ Omega_k of the ambient k; its
    invariant line is theta_EH = e^0 ^ Omega_k = p1 + p2, the sum of the two
    pure parts of ``invariant_five_forms``.  theta_KH is the orthogonal
    complement of theta_EH in the plane under the unit metric, which k
    preserves.  Normalization is fixed downstream by the H4 calibration.  A
    change of metric parameters scales the two pure parts by c1^(1/2) c2^2
    and c1^(3/2) c2, so every metric-adapted line is rational in (c1, c2)
    when written in that basis.
    """
    p1, p2 = invariant_five_forms(n)
    theta_eh = lincomb((1, p1), (1, p2))
    # the unit-metric Gram row {0: <theta_EH, p1>, 1: <theta_EH, p2>}: as p1
    # and p2 have disjoint supports, both entries are squared norms, never 0
    (v,) = nullspace([{i: sum(theta_eh[S] * c for S, c in p.items())
                       for i, p in enumerate((p1, p2))}], 2)
    theta_kh = lincomb((v[0], p1), (v[1], p2))
    return IsotypicPair(MappingProxyType(theta_eh), MappingProxyType(theta_kh))


# --------------------------------------------------------------------------
# class coefficients (the dOmega expansion) and calibration
# --------------------------------------------------------------------------

# Calibration targets on the H4 row: the two quadratics the expansion of
# dOmega must reproduce once the theta scales are fixed.
_H4_F_EH = Poly.parse("c1*c2 - 2*c2^2")
_H4_F_KH = Poly.parse("c1*c2 + 5*c2^2")


class Calibration(namedtuple("Calibration", [
        "s_eh",                # Fraction
        "s_kh",                # Fraction
        "target_kh",           # Poly
        "target_eh",           # Poly
        "kh_matches_nominal",  # bool
        "eh_matches_nominal",  # bool
        ])):
    """Theta scales pinned on the H4 row, plus the targets used.

    The targets are the content-normalized H4 coefficients and the flags
    record whether they equal the nominal quadratics (both primitive with a
    positive leading term).  The KH column differs away from n = 3, where
    the observed shape is c2*(c1 + (2n-1) c2); the difference is reported
    rather than suppressed.
    """

    __slots__ = ()


@cache
def _plane(n: int) -> Echelon:
    """The one echelon of the invariant plane (p1, p2) at n; it is only read,
    through plane_coordinates, and never added to."""
    plane = Echelon(invariant_five_forms(n))
    if plane.rank != 2:
        raise AssertionError("degenerate plane basis")
    return plane


def plane_coordinates(n: int, form: dict):
    """Exact (x, y) with form = x p1 + y p2 in the basis of
    ``invariant_five_forms(n)``; the form may have Poly-valued coefficients."""
    coords = _plane(n).coordinates(form)
    if coords is None:
        raise AssertionError("form leaves the invariant plane")
    return coords.get(0, Fraction(0)), coords.get(1, Fraction(0))


@cache
def _symbolic_omega(n: int) -> tuple[dict, tuple]:
    """Omega of quaternionic_triple(n) at the symbolic metric (c1, c2), and the
    plane coordinates of e^0 ^ Omega: every Table-4 model carries that triple
    and metric, so all of them share the two."""
    _, _, _, omega = fundamental_forms(quaternionic_triple(n),
                                      metric_diag(n, Poly.var("c1"), Poly.var("c2")))
    return omega, plane_coordinates(n, wedge({(0,): 1}, omega))


@cache
def bracket_columns(n: int) -> MappingProxyType:
    """name -> the plane coordinates of dOmega for each basis bracket Theta,
    Psi1, Psi2, Upsilon1, Upsilon2 of horizontal_brackets(n), Omega shared.

    ce_differential reads only the m-part of the bracket, so dOmega is
    linear in it, and d^1 is read straight off each basis table: no model is
    built and no Jacobi pass runs, as a basis bracket alone need not satisfy
    Jacobi.
    """
    omega, _ = _symbolic_omega(n)
    return MappingProxyType({
        name: plane_coordinates(n, ce_differential(omega, one_form_differentials(b)))
        for name, b in horizontal_brackets(n).items()})


def column_sum(n: int, params) -> tuple[Poly, Poly]:
    """The plane coordinates of dOmega for the bracket
    sum_i params_i * basis_i, params (alpha, beta1, beta2, gamma1, gamma2)
    rationals or Polys: the matching sum of bracket_columns(n)."""
    cols = bracket_columns(n)
    return tuple(sum((p * cols[name][k] for p, name in zip(params, HORIZONTAL_NAMES)), Poly())
                 for k in (0, 1))


@cache
def _domega(kind: str, n: int) -> tuple[Poly, Poly]:
    """The plane coordinates of dOmega for the Table-4 model of kind at n,
    symbolic in (c1, c2) and, for H3/H5, beta2: the column sum at the
    horizontal part of the kind's certified row (dOmega reads only b_m).
    """
    return column_sum(n, certified_row(kind, n)[0])


def _isotypic_coordinates(kind: str, n: int) -> tuple[Poly, Poly]:
    """Raw (x, y) with dOmega = x theta_EH + y theta_KH, exact, from
    theta_EH = p1 + p2 and theta_KH = kx p1 + ky p2."""
    a, b = _domega(kind, n)
    kx, ky = plane_coordinates(n, isotypic_split(n).theta_kh)
    y = Poly.coerce(a - b) / (kx - ky)
    return a - y * kx, y


@cache
def _calibration_scales(n: int) -> Calibration:
    """Theta scales fixed once per n so the H4 row matches exactly."""
    x, y = _isotypic_coordinates("H4", n)
    if not (x and y):
        raise AssertionError("H4 row degenerated; cannot calibrate")
    target_kh, target_eh = _poly_primitive(x), _poly_primitive(y)
    return Calibration(proportionality(x, target_kh), proportionality(y, target_eh),
                       target_kh, target_eh, target_kh == _H4_F_KH, target_eh == _H4_F_EH)


class ClassReport(namedtuple("ClassReport", "f_eh f_kh")):
    """Class coefficients of a model: dOmega = f_KH theta_EH + f_EH theta_KH."""

    __slots__ = ()


def table4_row(kind: str, n: int) -> ClassReport:
    """Exact (f_EH, f_KH) of the Table-4 model of kind at n, symbolic in (c1,
    c2); the theta normalization is the single H4 calibration shared by all
    rows at this n."""
    cal = _calibration_scales(n)
    x, y = _isotypic_coordinates(kind, n)
    return ClassReport(y * (1 / cal.s_kh), x * (1 / cal.s_eh))


# --------------------------------------------------------------------------
# first-order class tests at rational metric points
# --------------------------------------------------------------------------

def solve_wedge_omega(targets: list[dict], omega: dict, dim: int) -> list[dict | None]:
    """Per target, the one-form zeta with zeta ^ Omega = target on a dim-dimensional
    m, or None when unsolvable; one echelon of the e^x ^ Omega serves them all."""
    span = Echelon(wedge({(x,): Fraction(1)}, omega) for x in range(dim))
    sols = map(span.coordinates, targets)
    return [None if sol is None else {(x,): v for x, v in sol.items()} for sol in sols]


class FirstOrderReport(namedtuple("FirstOrderReport", [
        "d_omega_zero",  # bool: QK condition
        "lcqk",          # bool: dOmega = zeta ^ Omega solvable
        "kh_identity",   # bool: dOmega = (1/3) sum i_A(delta Omega) ^ omega_A
        "xi_equal",      # bool: xi_I = xi_J = xi_K
        "qkt_identity",  # bool: dOmega = T - xi ^ Omega solvable
        "xi_ratio",      # Fraction | None: solved xi = ratio * formula xi when parallel
        ])):
    __slots__ = ()

    def satisfied_class(self) -> str:
        if self.d_omega_zero:
            return "QK"
        if self.lcqk:
            return "EH"
        if self.kh_identity and self.xi_equal:
            return "KH"
        if self.qkt_identity:
            return "KEH"
        return "UNRESOLVED"


def first_order_tests(model: HomogeneousModel) -> FirstOrderReport:
    """Exact evaluation of the structural differential identities.

    Operator conventions: A* pulls back through every slot; i_A is the
    slotwise derivation.  The identities themselves (not the constants in
    the xi formula) carry the acceptance weight; the observed ratio between
    the solved and formula xi is reported.
    """
    if model.n < 3:
        raise ValueError("class tests require n >= 3")
    n, dm = model.n, model.rho.dim
    # Fractions, as in geometry.curvature: an int metric point divided into
    # the int-coded tables would give floats
    metric = [Fraction(g) for g in model.metric]
    omI, omJ, omK, omega = fundamental_forms(model.triple, metric)
    d1 = one_form_differentials(model.bracket_m)
    dom = ce_differential(omega, d1)
    delta_om = codifferential(omega, d1, metric)
    triple = list(zip(model.triple, (omI, omJ, omK)))

    pair_forms = [contract_pair(pullback_all_slots(delta_om, A), omA, metric)
                  for A, omA in triple]
    xi = lincomb(*((Fraction(-1, 6 * (2 * n + 1)), p) for p in pair_forms))
    xi_a = [lincomb((Fraction(-3, 2 * (n - 1)), xi), (Fraction(-1, 4 * (n - 1)), p))
            for p in pair_forms]
    xi_equal = xi_a[0] == xi_a[1] == xi_a[2]

    torsion = lincomb(*((Fraction(1, 3), wedge(derivation(delta_om, A), omA))
                        for A, omA in triple))

    d_omega_zero = not dom
    zeta, xi_solved = solve_wedge_omega([dom, lincomb((1, torsion), (-1, dom))], omega, dm)
    kh_identity = dom == torsion
    ratio = None
    if xi_solved:
        coords = Echelon([xi]).coordinates(xi_solved)
        if coords is not None:
            ratio = coords[0]
    return FirstOrderReport(d_omega_zero, zeta is not None, kh_identity,
                            xi_equal, xi_solved is not None, ratio)


# --------------------------------------------------------------------------
# metric-adapted (moving) isotypic lines and genuine first-order loci
# --------------------------------------------------------------------------

class GenuineLoci(namedtuple("GenuineLoci", "p_eh p_kh")):
    """Exact polynomial conditions for the metric-adapted reductions.

    p_eh = 0 exactly where the structure is locally conformally QK
    (d Omega parallel to the moving EH line), p_kh = 0 where the intrinsic
    torsion sits in the KH module, both = 0 at QK points.
    """

    __slots__ = ()


def genuine_loci(kind: str, n: int) -> GenuineLoci:
    """The adapted-class loci of the Table-4 model of kind at n."""
    (x, y), (wx, wy) = _domega(kind, n), _symbolic_omega(n)[1]  # EH moves along e0 ^ Omega
    p_eh = Poly.coerce(x * wy - y * wx)
    # the KH line moves by the same diagonal rescaling that carries the fixed
    # theta_EH = p1 + p2 direction (1 : 1) to (wx : wy)
    kx, ky = plane_coordinates(n, isotypic_split(n).theta_kh)
    p_kh = Poly.coerce(x * (ky * wy) - y * (kx * wx))
    return GenuineLoci(_poly_primitive(p_eh), _poly_primitive(p_kh))


def _poly_primitive(p: Poly) -> Poly:
    """Scaled so content is 1 and the leading coefficient positive."""
    q = Poly(sv_primitive(p.terms))
    return -q if q and q.leading()[1] < 0 else q
