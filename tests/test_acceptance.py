"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  One test is knowingly red:
`test_criterion_06_table4_exact_match`, because the embedded reference rows
break two relations that bracket-linearity forces on any computation over the
table-3 normal forms (see its docstring).  A companion analysis test pins the
exact computed rows; see the README section on verification findings.
"""

import random
import time
from fractions import Fraction

import pytest

from qhlab import forms as FO
from qhlab import geometry as G
from qhlab import models as M
from qhlab.lie import op_is_skew
from qhlab.poly import Poly, proportionality
from oracles import class_at, quaternion, rotated_triple, substitute

F = Fraction


def _announce(tag, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {tag}: {state} {detail}")
    return ok


def _model(kind, n=3, c1=1, c2=1, beta=None):
    return M.build_model(M.ModelSpec(kind, n, c1=F(c1), c2=F(c2),
                                     beta=None if beta is None else F(beta)))


def test_criterion_01_invariant_bracket_dimensions():
    results = {}
    times = {}
    for n in (3, 4, 5):
        t0 = time.monotonic()
        results[n] = M.bracket_space_dims(n)
        times[n] = time.monotonic() - t0
    ok = all(results[n] == (5, 4) for n in (3, 4, 5))
    detail = "; ".join(f"n={n}: {results[n]} in {times[n]:.1f}s" for n in (3, 4, 5))
    assert _announce("1 (bracket space = 5 horizontal + 4 vertical)", ok, detail)


def test_criterion_02_inadmissible_isotropy():
    t0 = time.monotonic()
    vals = {(n, which): M.inadmissible_hom_dim(n, which)
            for n in (2, 3) for which in ("sp1", "spn")}
    ok = all(v == 0 for v in vals.values())
    assert _announce("2 (torus isotropy admits no equivariant bracket)", ok,
                     f"{vals} in {time.monotonic() - t0:.1f}s")


def test_criterion_03_jacobi_variety():
    eqs = M.jacobi_equations(3)
    a, b1, b2, g1, g2 = (Poly.var(v) for v in M.PARAM_NAMES)
    reference = [a * (b2 * 2 - b1), a * g1, a * g2, b1 * g1, b1 * g2,
                 g2 * (g1 - g2)]
    ok = len(eqs) == 6
    for eq in eqs:
        ok = ok and any(proportionality(eq, ref) for ref in reference)
    for ref in reference:
        ok = ok and any(proportionality(ref, eq) for eq in eqs)

    rng = random.Random(11)

    def rand():
        return F(rng.randint(-9, 9), rng.randint(1, 5))

    on_family = 0
    while on_family < 200:
        which = on_family % 4
        if which == 0:
            b2v = rand()
            p = (rand(), 2 * b2v, b2v, 0, 0)
        elif which == 1:
            p = (0, rand(), rand(), 0, 0)
        elif which == 2:
            gv = rand()
            p = (0, 0, rand(), gv, gv)
        else:
            p = (0, 0, rand(), rand(), 0)
        ok = ok and not M.violated_equations(p)
        on_family += 1
    off_family = 0
    while off_family < 200:
        p = tuple(rand() for _ in range(5))
        if M.in_families(p):
            continue
        ok = ok and bool(M.violated_equations(p))
        off_family += 1
    assert _announce("3 (six Jacobi generators; 200 + 200 point samples)", ok,
                     f"{len(eqs)} generators matched")


def test_criterion_04_maximal_bracket():
    rng = random.Random(4177)
    t0 = time.monotonic()
    samples = []
    while len(samples) < 40:
        cp = F(rng.randint(-8, 8), rng.randint(1, 4))
        c = F(rng.randint(-8, 8), rng.randint(1, 4))
        if (cp, c) not in samples:
            samples.append((cp, c))
    for _ in range(10):
        c = F(rng.randint(-8, 8), rng.randint(1, 4))
        samples.append((2 * c, c))
    ok = True
    for i, (cp, c) in enumerate(samples):
        n = 3 if i % 5 == 0 else 2
        ok = ok and (M.maxmodel_jacobi_holds(n, cp, c) == (cp == 2 * c))
    assert _announce("4 (Jacobi iff c' = 2c, 50 samples incl. 10 on locus)", ok,
                     f"in {time.monotonic() - t0:.1f}s")


def test_criterion_05_model_dimensions():
    t0 = time.monotonic()
    ok = True
    for n in (3, 4):
        d = M.dims(n)["d"]
        for kind, beta in (("H1+", None), ("H1-", None), ("H2", None),
                           ("H3", F(2)), ("H4", None), ("H5", F(1)),
                           ("QHP", None), ("QHH", None)):
            model = _model(kind, n, beta=beta)
            ok = ok and model.g.dim == d and model.g.verified
        twisted = _model("TwistedTheta", n)
        ok = ok and twisted.g.dim == d - 2
    assert _announce("5 (all models have dim d_n; twisted has d_n - 2)", ok,
                     f"n = 3, 4 in {time.monotonic() - t0:.1f}s")


def _table4_diff(n):
    from qhlab.cli import _load_data
    data = _load_data("expected_table4.json")["rows"]
    diffs = []
    for kind in ("H1+", "H1-", "H2", "H3", "H4", "H5", "QHP", "QHH"):
        row = FO.table4_row(kind, n)
        for col, got, want in (("f_EH", row.f_eh, Poly.parse(data[kind]["f_EH"])),
                               ("f_KH", row.f_kh, Poly.parse(data[kind]["f_KH"]))):
            if got != want:
                diffs.append(f"{kind}.{col}(n={n}): computed {got}, reference {want}")
    return diffs


def _reference_linearity_breaks():
    """The bracket-linearity relations that the reference rows violate.

    With the table-3 normal forms H1+- = (+-1, 2, 1, 0, 0), H2 = (1, 0, 0, 0, 0)
    and H3^beta = (0, 2, beta, 0, 0), linearity in the bracket forces
    H1+ - H2 = H3|beta2=1 and H1+ + H1- = 2 H3|beta2=1 on both columns.
    """
    from qhlab.cli import _load_data
    data = _load_data("expected_table4.json")["rows"]
    breaks = []
    for col in ("f_EH", "f_KH"):
        ref = {kind: Poly.parse(data[kind][col]) for kind in ("H1+", "H1-", "H2", "H3")}
        h3 = substitute(ref["H3"], {"beta2": 1})
        for relation, lhs, rhs in (
                ("H1+ - H2 = H3|beta2=1", ref["H1+"] - ref["H2"], h3),
                ("H1+ + H1- = 2*H3|beta2=1", ref["H1+"] + ref["H1-"], h3 * 2)):
            if lhs != rhs:
                breaks.append(f"{col}: {relation} fails: {lhs} vs {rhs}")
    return breaks


def test_criterion_06_table4_exact_match():
    """Every computed class-coefficient row equals the embedded reference.

    Knowingly red, and the fault is in the reference rows.  d Omega is linear
    in the bracket; the H-models are built from the table-3 normal forms
    H1+- = (+-1, 2, 1, 0, 0), H2 = (1, 0, 0, 0, 0), H3^beta = (0, 2, beta, 0, 0)
    over a theta basis fixed once per n.  So every correct set of rows obeys,
    on both columns,

        H1+ - H2 = H3|beta2=1    and    H1+ + H1- = 2 * H3|beta2=1.

    The reference gives twice the first right-hand side (f_EH: 6*c1*c2 -
    4*c2^2 against 3*c1*c2 - 2*c2^2; f_KH: 6*c1*c2 + 10*c2^2 against 3*c1*c2
    + 5*c2^2) and four times the second; the computed rows obey both.  The
    embedded table is declared for n = 3 and is compared here at n = 3 and
    n = 4 (at n = 4 the computed f_KH(H4) is c2*(c1 + 7*c2)).  Which rows are
    right, the theta-scale and Upsilon-sign conventions behind the H5 row,
    the QHP/QHH rows and the n = 4 question wait for the paper's Table 4;
    until then the comparisons and the reference file stay as they are.
    """
    t0 = time.monotonic()
    diffs = _table4_diff(3) + _table4_diff(4)
    cal4 = FO._calibration_scales(4)
    detail = (f"{len(diffs)} row/column mismatches in {time.monotonic() - t0:.1f}s; "
              f"n=4 KH calibration target observed: {cal4.target_kh}")
    ok = _announce("6 (reference class-coefficient table, exact)", not diffs, detail)
    assert ok, ("reference table row mismatches (the reference is declared for "
                "n = 3 and is compared at n = 3 and n = 4):\n" + "\n".join(diffs)
                + "\nthe reference rows break bracket-linearity over the "
                  "table-3 normal forms:\n"
                + "\n".join(_reference_linearity_breaks()))


def test_criterion_06_analysis_computed_relationships():
    """The exact relationships between computed and reference rows.

    The computation is linear in the bracket, which forces the alpha-channel
    rows to be exact halves of the reference with identical zero loci; the
    H5 row mirrors the reference in the sign of its free parameter; the
    bundle rows keep the qualitative reduction picture.  These are regression
    facts about the exact pipeline.
    """
    half = F(1, 2)
    from qhlab.cli import _load_data
    data = _load_data("expected_table4.json")["rows"]
    for kind in ("H1+", "H1-", "H2"):
        row = FO.table4_row(kind, 3)
        assert row.f_eh == Poly.parse(data[kind]["f_EH"]) * half
        assert row.f_kh == Poly.parse(data[kind]["f_KH"]) * half
    for kind in ("H3", "H4"):
        row = FO.table4_row(kind, 3)
        assert row.f_eh == Poly.parse(data[kind]["f_EH"])
        assert row.f_kh == Poly.parse(data[kind]["f_KH"])
    row = FO.table4_row("H5", 3)
    mirror = substitute(Poly.parse(data["H5"]["f_EH"]), {"beta2": Poly.var("beta2") * -1}) * -1
    assert row.f_eh == mirror
    # QHH admits no reduction in either account
    row = FO.table4_row("QHH", 3)
    for c1 in (1, 2, 3):
        for c2 in (1, 2, 3):
            assert class_at(row, c1, c2) == "KEH"
    _announce("6-analysis (exact relationships to the reference rows)", True, "")


_LOCI_POINTS = [
    ("H1- QK point", "H1-", None, [(2, 1), (4, 2), (1, F(1, 2))], "QK"),
    ("H3 EH locus (beta=2)", "H3", F(2), [(1, 1), (3, 1), (1, 2)], "EH"),
    ("H3 KH locus (beta=-1/3)", "H3", F(-1, 3), [(1, 1), (2, 1), (1, 3)], "KH"),
    ("H5 EH locus (beta=-1)", "H5", F(-1), [(1, 1), (2, 1), (1, 2)], "EH"),
    ("H5 KH locus (beta=1/6)", "H5", F(1, 6), [(1, 1), (3, 1), (2, 3)], "KH"),
    ("QHP EH locus (c1=4c2)", "QHP", None, [(4, 1), (8, 2), (2, F(1, 2))], "EH"),
    ("QHP KH locus (c2=2c1)", "QHP", None, [(1, 2), (2, 4), (F(1, 2), 1)], "KH"),
    ("H2 generic (no reductions)", "H2", None, [(1, 1), (2, 1), (2, 3)], "KEH"),
    ("H4 generic (no reductions)", "H4", None, [(1, 1), (2, 1), (1, 2)], "KEH"),
    ("QHH generic (no reductions)", "QHH", None, [(1, 1), (1, 3), (3, 1)], "KEH"),
    ("H1+ generic (no reductions)", "H1+", None, [(2, 1), (1, 1), (1, 2)], "KEH"),
]


def test_criterion_07_class_cross_validation():
    t0 = time.monotonic()
    failures = []
    for label, kind, beta, points, expect in _LOCI_POINTS:
        for c1, c2 in points:
            rpt = FO.first_order_tests(_model(kind, 3, c1, c2, beta))
            got = rpt.satisfied_class()
            if got != expect or not rpt.qkt_identity:
                failures.append(f"{label} at ({c1},{c2}): got {got}")
                continue
            # strictly stronger identities must fail off their own loci
            if expect == "EH" and (rpt.d_omega_zero or (rpt.kh_identity and rpt.xi_equal)):
                failures.append(f"{label} at ({c1},{c2}): stronger identity leaked")
            if expect == "KH" and (rpt.d_omega_zero or rpt.lcqk):
                failures.append(f"{label} at ({c1},{c2}): stronger identity leaked")
            if expect == "KEH" and (rpt.d_omega_zero or rpt.lcqk
                                    or (rpt.kh_identity and rpt.xi_equal)):
                failures.append(f"{label} at ({c1},{c2}): stronger identity leaked")
    ok = not failures
    assert _announce("7 (differential identities exact on every reduction locus)",
                     ok, f"{len(_LOCI_POINTS)} loci, 3 points each, "
                         f"{time.monotonic() - t0:.1f}s"), failures


def test_criterion_07_companion_fixed_basis_divergence():
    """Where the fixed-basis coefficient vanishes off the conformal line, the
    adapted first-order class stays generic; the identity tests and the
    fixed-basis table agree exactly on the conformal line."""
    row = FO.table4_row("H4", 3)
    assert class_at(row, 2, 1) == "EH"
    rpt = FO.first_order_tests(_model("H4", 3, 2, 1))
    assert rpt.satisfied_class() == "KEH" and not rpt.lcqk
    _announce("7-companion (fixed-basis vs adapted-class divergence recorded)",
              True, "H4 at (2,1): fixed-basis EH, adapted KEH")


def test_criterion_08_riemannian_classification():
    # the `reproduce prop12 --n 3` sweep: 12 models (H1+-, H2, H4 and
    # H3/H5 at beta = -1, 0, 1, 2) over the grid and the special points, each
    # compared with the embedded table through _prop12_expected
    from qhlab.cli import _GRID, _SPECIAL, _reproduce_prop12
    t0 = time.monotonic()
    points = _GRID + [p for p in _SPECIAL if p not in _GRID]
    checks = _reproduce_prop12(3)
    failures = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    ok = len(checks) == 12 and not failures
    assert _announce("8 (Einstein/CF/symmetric loci over grid + special points)",
                     ok, f"{len(checks)} models x {len(points)} points in "
                         f"{time.monotonic() - t0:.1f}s"), failures


def test_criterion_09_curvature_signatures_h32_h5():
    t0 = time.monotonic()
    ok = True
    for c1, c2 in ((1, 1), (2, 1), (1, 3)):
        cls = G.classify(G.curvature(G.GroupData.from_model(
            _model("H3", 3, c1, c2, beta=2))), M.model_groups(3))
        ok = ok and cls.constant_sectional == F(-4) / c1
    for beta in (1, 2, -1):
        cls = G.classify(G.curvature(G.GroupData.from_model(
            _model("H5", 3, 1, 2, beta=beta))), M.model_groups(3))
        sphere = [b for b in cls.product_blocks if b["size"] == 3]
        hyper = [b for b in cls.product_blocks if b["size"] == 9]
        ok = (ok and len(sphere) == 1 and len(hyper) == 1
              and sphere[0]["constant_sectional"] is not None
              and sphere[0]["constant_sectional"] > 0
              and hyper[0]["constant_sectional"] is not None
              and hyper[0]["constant_sectional"] < 0)
    assert _announce("9a (constant curvature of the beta=2 family; product "
                     "signature of the Levi-factor family)", ok,
                     f"in {time.monotonic() - t0:.1f}s")


def _curved_kind(block):
    """A curved product block described as in expected_riemannian.json."""
    k = block["constant_sectional"]
    if k is None:
        return "not constant"
    return "constant negative" if k < 0 else "constant positive"


def test_criterion_09_h30_stated_signature():
    """The beta=0 row's curvature signature agrees with the embedded reference.

    Curved blocks are compared exactly by size and by the sign of their
    constant sectional curvature, the flat part by its total dimension.
    """
    from qhlab.cli import _load_data, _prop12_expected
    stated = _load_data("expected_riemannian.json")["curvature_signatures"]["H3^0"]["blocks"]
    stated_curved = sorted((size, kind) for size, kind in stated if kind != "flat")
    stated_flat = sum(size for size, kind in stated if kind == "flat")
    c1, c2 = 1, 1
    cls = G.classify(G.curvature(G.GroupData.from_model(
        _model("H3", 3, c1, c2, beta=0))), M.model_groups(3))
    curved = [b for b in cls.product_blocks if not b["flat"]]
    computed_curved = sorted((b["size"], _curved_kind(b)) for b in curved)
    computed_flat = sum(b["size"] for b in cls.product_blocks if b["flat"])
    ok = (computed_curved == stated_curved and computed_flat == stated_flat
          and all(b["constant_sectional"] == F(-4) / c1 for b in curved)
          and cls.locally_symmetric == _prop12_expected("H3", F(0), c1, c2)[2])
    assert _announce("9b (stated block signature for the beta=0 row)", ok,
                     f"computed curved {computed_curved} + {computed_flat} flat, "
                     f"stated {stated_curved} + {stated_flat} flat"), \
        "H3^0 differs from expected_riemannian.json or from K = -4/c1"


@pytest.mark.parametrize("n", [3, 4])
def test_criterion_09_h50_stated_blocks(n):
    """H5^0 has exactly the reference's blocks: one per de Rham factor.

    The reference is stated at n = 3; at other n the flat factor takes the
    rest of the 4n dimensions.
    """
    from qhlab.cli import _load_data
    stated = _load_data("expected_riemannian.json")["curvature_signatures"]["H5^0"]["blocks"]
    curved = [(size, kind) for size, kind in stated if kind != "flat"]
    expected = sorted(curved + [(4 * n - sum(size for size, _ in curved), "flat")])
    cls = G.classify(G.curvature(G.GroupData.from_model(
        _model("H5", n, 1, 2, beta=0))), M.model_groups(n))
    computed = sorted((b["size"], "flat" if b["flat"] else _curved_kind(b))
                      for b in cls.product_blocks)
    assert _announce(f"9c (H5^0 block list at n={n})", computed == expected,
                     f"computed {computed}, stated {expected}"), computed


def test_criterion_09_h30_computed_signature():
    cls = G.classify(G.curvature(G.GroupData.from_model(
        _model("H3", 3, 2, 1, beta=0))), M.model_groups(3))
    neg = [b for b in cls.product_blocks if not b["flat"]]
    flat = [b for b in cls.product_blocks if b["flat"]]
    assert len(neg) == 1 and neg[0]["size"] == 4
    assert neg[0]["constant_sectional"] == F(-2)  # -4/c1 at c1 = 2
    assert sum(b["size"] for b in flat) == 8
    assert cls.locally_symmetric
    _announce("9b-companion (computed 4+8 signature pinned)", True,
              "H^4(-4/c1) x R^(4n-4), locally symmetric")


def test_criterion_10_structural_self_tests():
    t0 = time.monotonic()
    rng = random.Random(6)
    ok = True
    kinds = (("H1-", None), ("H2", None), ("H3", F(2)), ("H4", None),
             ("H5", F(1)), ("QHP", None), ("QHH", None))
    for kind, beta in kinds:
        model = _model(kind, 3, 2, 1, beta)
        d1 = FO.one_form_differentials(model.bracket_m)
        _, _, _, omega = FO.fundamental_forms(model.triple, model.metric)
        dom = FO.ce_differential(omega, d1)
        ok = ok and FO.ce_differential(dom, d1) == {}
        data = G.GroupData.from_model(model)
        cur = G.curvature(data)  # symmetry asserts inside
        # nabla g = 0: every Nomizu operator is metric-skew
        ok = ok and all(op_is_skew(op, data.metric) for op in cur.lam)
    model = _model("H3", 3, 2, 1, beta=2)
    _, _, _, omega = FO.fundamental_forms(model.triple, model.metric)
    rotations = 0
    while rotations < 50:
        q = quaternion(rng.randint(-5, 5), rng.randint(-5, 5),
                       rng.randint(-5, 5), rng.randint(-5, 5))
        if not q:
            continue
        clone = model.with_metric(F(2), F(1))._replace(triple=rotated_triple(model.triple, q))
        _, _, _, omega_rot = FO.fundamental_forms(clone.triple, clone.metric)
        ok = ok and omega_rot == omega
        rotations += 1
    assert _announce("10 (d^2 = 0, curvature symmetries, nabla g = 0, frame "
                     "independence x50)", ok,
                     f"in {time.monotonic() - t0:.1f}s")
