import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qhlab.linalg import (Echelon, connected_components, nullspace, rref,
                          sparse_nullspace, sv_add_scaled, sv_primitive)
from qhlab.poly import NVARS, Poly

from oracles import coordinates_by_tagged_reduce, dense, invert, sparse

rng = random.Random(555)


def rand_matrix(rows, cols, density=1.0):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             if rng.random() < density else Fraction(0)
             for _ in range(cols)] for _ in range(rows)]


def rank(rows):
    return Echelon(sparse(r) for r in rows).rank


# --------------------------------------------------------------------------
# independent reference: textbook dense Gauss-Jordan
# --------------------------------------------------------------------------

def reference_rref(rows, ncols):
    """Dense Gauss-Jordan over Fraction: (nonzero RREF rows, pivot columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    piv = []
    for c in range(ncols):
        r = len(piv)
        sel = next((i for i in range(r, len(m)) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv.append(c)
    return m[:len(piv)], piv


def reference_kernel(rows, ncols):
    """One kernel vector per free column f: 1 at f, minus the RREF column at the pivots."""
    ech, piv = reference_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in piv:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(ech, piv):
            v[c] = -row[f]
        basis.append(v)
    return basis


# --------------------------------------------------------------------------
# examples
# --------------------------------------------------------------------------

def test_nullspace_examples():
    ident = [[Fraction(i == j) for j in range(3)] for i in range(3)]
    assert nullspace([sparse(r) for r in ident], 3) == []
    zero = [[Fraction(0)] * 3 for _ in range(2)]
    assert len(nullspace([sparse(r) for r in zero], 3)) == 3
    kern = nullspace([sparse([Fraction(1), Fraction(-1)])], 2)
    assert len(kern) == 1
    v = dense(kern[0], 2)
    assert v[0] == v[1] != 0


def test_nullspace_annihilates_and_rank_nullity():
    for _ in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        a = rand_matrix(m, n, density=0.7)
        kern = [dense(v, n) for v in nullspace([sparse(r) for r in a], n)]
        assert rank(a) + len(kern) == n
        for v in kern:
            for row in a:
                assert sum(x * y for x, y in zip(row, v)) == 0
        # kernel vectors are linearly independent: stack and re-rank
        if kern:
            assert rank(kern) == len(kern)


def test_solve_and_invert():
    for _ in range(30):
        n = rng.randint(1, 6)
        a = rand_matrix(n, n)
        if rank(a) < n:
            continue
        x_true = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        b = [sum(a[i][j] * x_true[j] for j in range(n)) for i in range(n)]
        columns = Echelon(sparse([a[i][j] for i in range(n)]) for j in range(n))
        x = columns.coordinates(sparse(b))
        assert [x.get(j, 0) for j in range(n)] == x_true
        inv = invert(a)
        prod = [[sum(a[i][t] * inv[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[Fraction(i == j) for j in range(n)] for i in range(n)]


def test_solve_inconsistent():
    columns = Echelon([{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}])
    assert columns.coordinates({1: Fraction(1)}) is None


def test_rref_idempotent():
    a = rand_matrix(4, 6, density=0.8)
    ech = rref([sparse(r) for r in a])
    again = rref(ech)
    assert ech == again
    assert ([dense(r, 6) for r in ech], [min(r) for r in ech]) == reference_rref(a, 6)


def test_sparse_matches_dense():
    for _ in range(40):
        m, n = rng.randint(1, 10), rng.randint(1, 10)
        a = rand_matrix(m, n, density=0.3)
        dense_kern = reference_kernel(a, n)
        rows = [sparse(row) for row in a]
        sparse_kern = sparse_nullspace([r for r in rows if r], n)
        assert len(sparse_kern) == len(dense_kern)
        for v in sparse_kern:
            for row in a:
                assert sum(row[j] * x for j, x in v.items()) == 0
        # spans agree: each reference vector reduces to zero against the sparse set
        basis = Echelon(sparse_kern)
        for v in dense_kern:
            assert not basis.reduce(sparse(v))


def test_sparse_components_split():
    # two independent blocks plus an untouched column
    rows = [{0: Fraction(1), 1: Fraction(-1)}, {2: Fraction(2), 3: Fraction(2)}]
    kern = sparse_nullspace(rows, 5)
    assert len(kern) == 3
    supports = [set(v) for v in kern]
    assert {4} in supports


def test_connected_components_roots_are_smallest_keys():
    roots = connected_components([(5, 3), (7,), (3, 9), (8, 7)])
    assert roots == {3: 3, 5: 3, 9: 3, 7: 7, 8: 7}


def test_sv_primitive_canonical():
    v = {3: Fraction(-2, 6), 7: Fraction(4, 6)}
    p = sv_primitive(v)
    assert p == {3: Fraction(1), 7: Fraction(-2)}
    w = sv_add_scaled({1: Fraction(1)}, {1: Fraction(-1), 2: Fraction(1)}, Fraction(1))
    assert w == {2: Fraction(1)}


# --------------------------------------------------------------------------
# properties of the engine against the reference
# --------------------------------------------------------------------------

entry = st.one_of(st.just(Fraction(0)),
                  st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


@st.composite
def matrices(draw, max_rows=6, max_cols=7, entries=entry):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)), n


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_kernel_is_the_reference_rref_kernel(mat):
    a, n = mat
    ref = reference_kernel(a, n)
    assert [dense(v, n) for v in nullspace([sparse(r) for r in a], n)] == ref
    kern = sparse_nullspace([sparse(r) for r in a], n)
    for v in kern:
        for row in a:
            assert sum(row[j] * x for j, x in v.items()) == 0
    assert kern == sorted((sv_primitive(sparse(v)) for v in ref), key=min)
    ech = rref([sparse(r) for r in a])
    assert ([dense(r, n) for r in ech], [min(r) for r in ech]) == reference_rref(a, n)


@given(matrices(), st.lists(st.tuples(*[st.integers(-2, 3)] * NVARS), min_size=7, max_size=7,
                            unique=True))
@settings(max_examples=80, deadline=None)
def test_rref_and_kernel_over_monomial_keys(mat, monos):
    # column j keyed by the j-th smallest monomial: the pivot order is the
    # column order, so the echelon is the reference one relabelled
    a, n = mat
    key = sorted(monos)[:n]
    rows = [{key[j]: x for j, x in sparse(r).items()} for r in a]
    ech, piv = reference_rref(a, n)
    assert rref(rows) == [{key[j]: x for j, x in sparse(r).items()} for r in ech]
    assert [min(r) for r in rref(rows)] == [key[c] for c in piv]
    kern = Echelon(rows).kernel(key)
    assert kern == [{key[j]: x for j, x in sparse(v).items()} for v in reference_kernel(a, n)]
    assert nullspace([sparse(r) for r in a], n) == [sparse(v) for v in reference_kernel(a, n)]


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_plus_nullity(mat):
    a, n = mat
    ech = Echelon(sparse(r) for r in a)
    assert ech.rank + len(ech.kernel(range(n))) == n
    assert ech.rank == len(reference_rref(a, n)[1])


@given(matrices(), st.lists(entry, min_size=6, max_size=6), st.lists(entry, min_size=7, max_size=7))
@settings(max_examples=80, deadline=None)
def test_coordinates_round_trip_and_none_off_the_span(mat, weights, probe):
    a, n = mat
    ech = Echelon(sparse(r) for r in a)
    v: dict = {}
    for w, row in zip(weights, a):
        v = sv_add_scaled(v, sparse(row), w)
    x = ech.coordinates(v)
    rebuilt: dict = {}
    for i, s in x.items():
        rebuilt = sv_add_scaled(rebuilt, sparse(a[i]), s)
    assert rebuilt == v
    if ech.rank == len(a):  # independent rows: the combination is unique
        assert x == {i: w for i, w in enumerate(weights[:len(a)]) if w}
    off = sparse(probe[:n])
    in_span = len(reference_rref(a + [probe[:n]], n)[1]) == ech.rank
    assert (ech.coordinates(off) is None) == (not in_span)


@given(st.lists(entry, min_size=8, max_size=8), st.lists(entry, min_size=8, max_size=8),
       st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_poly_target_in_a_rational_plane(p1, p2, a, b, c):
    plane = Echelon([sparse(p1), sparse(p2)])
    if plane.rank != 2:
        return
    x = Poly.var("c1") * a + Poly.const(b)
    y = Poly.var("c2") * c - Poly.var("c1") * Poly.var("c2")
    target = {k: x * p1[k] + y * p2[k] for k in range(8) if x * p1[k] + y * p2[k]}
    coords = plane.coordinates(target)
    assert coords.get(0, Poly()) == x and coords.get(1, Poly()) == y
    off = next(k for k in range(8) if plane.reduce({k: Fraction(1)}))
    target[off] = target.get(off, Poly()) + Poly.var("c1")
    if not target[off]:
        del target[off]
    assert plane.coordinates(target) is None


poly_weight = st.one_of(entry, st.builds(lambda a, b: Poly.var("c1") * a + Poly.var("c2") * b,
                                         entry, entry))


@given(matrices(), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), entry, entry),
                            max_size=3),
       st.lists(poly_weight, min_size=9, max_size=9), st.lists(entry, min_size=7, max_size=7))
@settings(max_examples=120, deadline=None)
def test_coordinates_equal_the_tagged_reduce(mat, combos, weights, probe):
    # the pivot read with its recombination certificate gives the tagged
    # reduce's values, value types and None cases: inserted vectors that are
    # combinations of earlier ones get no weight, targets may be Poly-valued
    a, n = mat
    rows = [sparse(r) for r in a]
    for i, j, s, t in combos:
        rows.append(sv_add_scaled(sv_add_scaled({}, rows[i % len(a)], s), rows[j % len(a)], t))
    ech = Echelon(rows)
    dependent = {i for i in range(len(rows))
                 if Echelon(rows[:i + 1]).rank == Echelon(rows[:i]).rank}
    target: dict = {}
    for w, row in zip(weights, rows):
        for k, x in row.items():
            target[k] = target.get(k, Fraction(0)) + w * x
    target = {k: x for k, x in target.items() if x}
    reference = coordinates_by_tagged_reduce(ech)
    for v in (target, sparse(probe[:n]), {**target, n: Fraction(1)}):
        x, ref = ech.coordinates(v), reference(v)
        assert x == ref
        if x is not None:
            assert {i: type(c) for i, c in x.items()} == {i: type(c) for i, c in ref.items()}
            assert not dependent & x.keys()
    assert ech.coordinates(target) is not None
    assert ech.coordinates({**target, n: Fraction(1)}) is None


def test_coordinates_reject_a_vector_that_is_zero_at_every_pivot():
    # the pivot read of {1: 1} against the span of e0 + e1 is x = {}, so only
    # the recombination tells it apart from the zero vector
    ech = Echelon([{0: Fraction(1), 1: Fraction(1)}])
    assert ech.coordinates({1: Fraction(1)}) is None
    reference = coordinates_by_tagged_reduce(ech)
    assert reference({1: Fraction(1)}) is None
    assert ech.coordinates({}) == {} == reference({})


@given(matrices(entries=st.integers(-3, 3)), st.lists(st.integers(-3, 3), min_size=6, max_size=6),
       st.lists(st.integers(-3, 3), min_size=7, max_size=7))
@settings(max_examples=80, deadline=None)
def test_int_input_gives_the_fraction_results(mat, weights, probe):
    # small int entries make +-1 pivots common, whose rows are normalised
    # without an inverse and stay int; every result equals the Fraction one
    a, n = mat
    ints = [{j: x for j, x in enumerate(r) if x} for r in a]
    fracs = [sparse(r) for r in a]
    assert rref(ints) == rref(fracs)
    assert nullspace(ints, n) == nullspace(fracs, n)
    assert sparse_nullspace(ints, n) == sparse_nullspace(fracs, n)
    target: dict = {}
    for w, row in zip(weights, ints):
        target = sv_add_scaled(target, row, w)
    for v in (target, {j: x for j, x in enumerate(probe[:n]) if x}):
        assert Echelon(ints).coordinates(v) == Echelon(fracs).coordinates(sparse(dense(v, n)))
