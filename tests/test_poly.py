import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhlab.poly import NVARS, VARS, Poly, proportionality

from oracles import FractionPoly, int_coded, substitute

rng = random.Random(97)


def rand_poly(nterms=4, maxdeg=2):
    p = Poly()
    for _ in range(nterms):
        mono = [0] * NVARS
        for _ in range(maxdeg):
            mono[rng.randrange(NVARS)] += rng.randint(0, 1)
        p = p + Poly({tuple(mono): Fraction(rng.randint(-5, 5), rng.randint(1, 3))})
    return p


def rand_point():
    return {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in VARS}


coef = st.integers(min_value=-6, max_value=6)


@given(coef, coef, coef)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    pa = Poly.var("alpha") * a + Poly.var("c1") * b
    pb = Poly.var("beta1") * c + Poly.const(a)
    pc = Poly.var("c2") * b - Poly.const(c)
    assert (pa + pb) + pc == pa + (pb + pc)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert pa * pb == pb * pa
    assert pa + 0 == pa
    assert pa * 1 == pa
    assert pa - pa == Poly()


def test_eval_is_ring_homomorphism():
    for _ in range(500):
        p, q = rand_poly(), rand_poly()
        pt = rand_point()
        assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)
        assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)


def test_substitute_partial():
    p = Poly.var("alpha") * Poly.var("c1") + Poly.var("c2") ** 2
    q = substitute(p, {"alpha": Fraction(2)})
    assert q == Poly.var("c1") * 2 + Poly.var("c2") ** 2
    r = substitute(p, {"alpha": Poly.var("beta1") + 1})
    assert r.eval({"beta1": Fraction(1), "c1": Fraction(3), "c2": Fraction(1)}) == 7


def test_eval_at_poly_values_is_the_substitution():
    # a Poly value is substituted, all variables at once; at a rational
    # point the value stays a Fraction
    c1, c2 = Poly.var("c1"), Poly.var("c2")
    for _ in range(200):
        p = rand_poly()
        point = {v: rng.choice([Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                c1 * rng.randint(1, 3) - c2, c2 ** 2]) for v in VARS}
        assert p.eval(point) == substitute(p, point)
    assert type(rand_poly().eval(rand_point())) is Fraction


def test_named_evaluations():
    # alpha*(2 beta2 - beta1) at (1, 2, 1) -> 0
    p = Poly.var("alpha") * (Poly.var("beta2") * 2 - Poly.var("beta1"))
    assert p.eval({"alpha": 1, "beta1": 2, "beta2": 1}) == 0
    # c2*(c1 - 2 c2) at (2, 1) -> 0
    q = Poly.var("c2") * (Poly.var("c1") - Poly.var("c2") * 2)
    assert q.eval({"c1": 2, "c2": 1}) == 0


def test_degree_and_leading():
    p = Poly.var("c1") * Poly.var("c2") + Poly.var("c2")
    mono, c = p.leading()
    assert c == 1 and sum(mono) == 2


def test_to_string_parse_roundtrip():
    for _ in range(50):
        p = rand_poly()
        assert Poly.parse(p.to_string()) == p
    assert Poly.parse("0") == Poly()
    assert Poly.parse("-3/2*c1^2 + c1*c2") == \
        Poly.var("c1") ** 2 * Fraction(-3, 2) + Poly.var("c1") * Poly.var("c2")


def test_laurent_monomial_division():
    c1, c2 = Poly.var("c1"), Poly.var("c2")
    m = c2 * c2 / c1 * Fraction(-3, 2)  # -3/2 c1^-1 c2^2
    assert m.terms == {(0, 0, 0, 0, 0, -1, 2): Fraction(-3, 2)}
    for _ in range(50):
        p = rand_poly()
        assert p * m / m == p
        assert p / m * m == p
    assert Fraction(1) / c1 * c1 == 1 and 2 - c1 == -(c1 - 2)
    assert c1 / 4 == c1 * Fraction(1, 4)


def test_eval_at_a_negative_exponent():
    p = Poly({(0, 0, 0, 0, 0, -2, 1): Fraction(3)}) + Poly.var("c1")
    assert p.eval({"c1": Fraction(2), "c2": Fraction(5)}) == Fraction(3 * 5, 4) + 2


def test_division_by_a_non_monomial_raises():
    c1, c2 = Poly.var("c1"), Poly.var("c2")
    with pytest.raises(ValueError, match=r"cannot divide by c1 \+ c2"):
        c1 / (c1 + c2)
    with pytest.raises(ValueError, match="cannot divide by c1 - 1"):
        Fraction(1) / (c1 - 1)
    with pytest.raises(ZeroDivisionError):
        c1 / Poly()


def test_to_string_refuses_a_negative_exponent():
    # c1^-1 * c2^2 would otherwise print as c2^2 and parse back as another poly
    with pytest.raises(ValueError, match="negative exponent"):
        Poly({(0, 0, 0, 0, 0, -1, 2): Fraction(1)}).to_string()


def test_proportionality():
    c1, c2 = Poly.var("c1"), Poly.var("c2")
    assert proportionality(c1 * c2 * 2, c1 * c2) == 2
    assert proportionality(c1 * c1, c1 * c2) is None
    assert proportionality((c1 * c1 + c1 * c2) * 3, c1 * c1 + c1 * c2) == 3
    assert proportionality(Poly(), c1) == 0
    assert proportionality(c1, Poly()) is None


def test_proportionality_exactness():
    for _ in range(100):
        q = rand_poly()
        if not q:
            continue
        lam = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
        p = q * lam
        got = proportionality(p, q)
        assert got == lam
        assert not (p - q * got)


# Laurent polynomials in beta2, c1, c2 with exponents in -2..2 and mixed
# coefficients: ints, non-integral Fractions and integral Fractions, which
# the int-coded Poly stores as ints
_scalar = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=4))
_mono = st.tuples(*[st.just(0)] * 2, st.integers(-2, 2), *[st.just(0)] * 2,
                  st.integers(-2, 2), st.integers(-2, 2))
_terms = st.dictionaries(_mono, _scalar, max_size=4)
_point = st.fixed_dictionaries({v: st.fractions(min_value=-3, max_value=3, max_denominator=3)
                                .filter(bool) for v in VARS})


@given(p=_terms, q=_terms, s=_scalar, mono=_mono, c=_scalar.filter(bool), k=st.integers(0, 3),
       point=_point)
@settings(max_examples=150, deadline=None)
def test_int_coded_ring_matches_the_fraction_oracle(p, q, s, mono, c, k, point):
    P, Q, M = Poly(p), Poly(q), Poly({mono: c})
    OP, OQ, OM = FractionPoly(p), FractionPoly(q), FractionPoly({mono: c})
    pairs = [(P + Q, OP + OQ), (P - Q, OP - OQ), (P * Q, OP * OQ), (-P, -OP),
             (P + s, OP + s), (s + P, OP + s), (P - s, OP - s), (s - P, FractionPoly.coerce(s) - OP),
             (P * s, OP * s), (s * P, OP * s), (P / M, OP / OM), (P ** k, OP ** k),
             (P.monic(), OP.monic()), (P / c, OP / c)]
    for got, want in pairs:
        assert got.terms == want.terms
        assert int_coded(got.terms.values())
        # the same value with every coefficient a Fraction: == and hash
        # cannot tell the two codings apart
        fraction_coded = Poly._of(dict(want.terms))
        assert got == fraction_coded and hash(got) == hash(fraction_coded)
    # a zero or constant Poly equals its scalar, so it hashes as that scalar
    for const, scalar in ((Poly.const(s), s), (Poly(), 0),
                          (Poly.const(Fraction(-3, 4)), Fraction(-3, 4))):
        assert const == scalar and hash(const) == hash(scalar) and {const: 1}.get(scalar) == 1
    value = P.eval(point)
    assert value == OP.eval(point) and type(value) is Fraction
    assert (P == s) == (OP.terms == FractionPoly.coerce(s).terms)
    assert (P == Q) == (OP.terms == OQ.terms)


def test_proportionality_is_a_fraction():
    # it feeds 1 / s in forms.table4_row, where an int would divide to a float
    c1, c2 = Poly.var("c1"), Poly.var("c2")
    for p, q in ((c1 * c2 * 2, c1 * c2), (Poly(), c1), (c1 * 3 + c2 * 6, c1 + c2 * 2),
                 (c1 * Fraction(1, 2), c1)):
        assert type(proportionality(p, q)) is Fraction


def test_a_float_operand_is_refused():
    c1 = Poly.var("c1")
    for op in (lambda p: p + 0.5, lambda p: 0.5 * p, lambda p: p - 0.5, lambda p: p / 0.5):
        with pytest.raises(TypeError):
            op(c1)
    assert c1 != 1.0
