import random
from fractions import Fraction

import pytest

from qhlab.linalg import accumulate
from qhlab.quaternion import IM_UNITS, Q_I, Q_J, Q_K, Q_ONE, UNITS, Quaternion, rat, sp_basis

from oracles import commutator, hermitian_metric, qmatmul, quaternion, sp_coordinates, sparse

rng = random.Random(1214)


def rand_q():
    return quaternion(*(Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(4)))


def _dagger(m):
    """Conjugate transpose."""
    return {(c, r): e.conj() for (r, c), e in m.items()}


def _eta(p, q):
    """Signature matrix diag(I_p, -I_q)."""
    return {(i, i): Q_ONE if i < p else -Q_ONE for i in range(p + q)}


def _sp_defect(x, eta, n):
    """X^dagger eta + eta X, which vanishes exactly on sp(p,q)."""
    out = qmatmul(_dagger(x), eta, n)
    accumulate(out, qmatmul(eta, x, n))
    return out


def test_hamilton_table():
    assert Q_I * Q_J == Q_K
    assert Q_J * Q_K == Q_I
    assert Q_K * Q_I == Q_J
    assert Q_I * Q_I == -Q_ONE
    assert (Q_I * Q_J) * Q_K == -Q_ONE


def test_identity_and_bilinearity():
    q = rand_q()
    assert Q_ONE * q == q
    assert (Q_ONE + Q_I) * (Q_ONE + Q_J) == quaternion(1, 1, 1, 1)


def test_associativity_random():
    for _ in range(1000):
        a, b, c = rand_q(), rand_q(), rand_q()
        assert (a * b) * c == a * (b * c)


def test_conjugation_antihomomorphism():
    for _ in range(100):
        a, b = rand_q(), rand_q()
        assert (a * b).conj() == b.conj() * a.conj()
        assert not (a.conj() * a).im()
        assert sum(x * x for x in a.components()) == (a * a.conj()).a


def test_hermitian_metric_examples():
    e_i = (Q_I,)
    e_j = (Q_J,)
    assert hermitian_metric(e_i, e_i) == 1
    assert hermitian_metric(e_i, e_j) == 0
    v1 = (Q_ONE + Q_I, Quaternion())
    v2 = (Q_ONE - Q_I, Quaternion())
    assert hermitian_metric(v1, v2) == 0
    with pytest.raises(ValueError):
        hermitian_metric((Q_ONE,), (Q_ONE, Q_I))


def test_hermitian_metric_unit_invariance():
    for a in IM_UNITS:
        for _ in range(20):
            v = tuple(rand_q() for _ in range(3))
            w = tuple(rand_q() for _ in range(3))
            va = tuple(x * a for x in v)
            wa = tuple(x * a for x in w)
            assert hermitian_metric(va, wa) == hermitian_metric(v, w)


def test_zero_quaternion_is_falsy():
    assert not Quaternion()
    assert all(UNITS)
    assert not Q_I - Q_I


def test_sp_basis_counts():
    b10 = sp_basis(1, 0)
    assert len(b10) == 3
    assert all(list(m) == [(0, 0)] for m in b10)
    assert {m[(0, 0)] for m in b10} == set(IM_UNITS)
    assert len(sp_basis(3, 0)) == 21
    assert len(sp_basis(1, 2)) == 21
    assert len(sp_basis(2, 0)) == 10


@pytest.mark.parametrize("p,q", [(2, 0), (1, 1), (1, 2)])
def test_sp_basis_defining_equation_and_closure(p, q):
    basis = sp_basis(p, q)
    eta, n = _eta(p, q), p + q
    for m in basis:
        assert _sp_defect(m, eta, n) == {}
    # closure: every pairwise commutator must expand exactly in the basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            comm = commutator(basis[i], basis[j], n)
            coords = sp_coordinates(comm, p, q)
            assert list(coords) == sorted(coords) and all(coords.values())
            rebuilt = {}
            for k, c in coords.items():
                accumulate(rebuilt, {rc: e * c for rc, e in basis[k].items()})
            assert rebuilt == comm


@pytest.mark.parametrize("p,q", [(1, 0), (2, 0), (1, 1), (1, 2), (3, 0)])
def test_sp_basis_elements_read_back_as_unit_coordinates(p, q):
    for k, m in enumerate(sp_basis(p, q)):
        assert sp_coordinates(m, p, q) == {k: 1}


@pytest.mark.parametrize("m, pq, reason", [
    ({(0, 0): quaternion(1, 1)}, (2, 0), "real diagonal part"),
    ({(0, 1): Q_J}, (2, 0), "lower block mismatch"),  # an upper entry without its lower one
    ({(0, 1): Q_J, (1, 0): -Q_J}, (2, 0), "lower block mismatch"),  # wants -conj(j) = j
    ({(0, 1): Q_ONE, (1, 0): Q_ONE}, (2, 0), "lower block mismatch"),  # wants -1
    ({(0, 1): Q_ONE, (1, 0): -Q_ONE}, (1, 1), "lower block mismatch"),  # wants +1
    ({(1, 0): Q_K}, (2, 0), "lower entry without an upper one"),
])
def test_sp_coordinates_rejects_non_members(m, pq, reason):
    with pytest.raises(ValueError, match=reason):
        sp_coordinates(m, *pq)


def test_sp_rank_matches_dimension():
    # nullity of the defining linear system equals (p+q)(2(p+q)+1)
    from qhlab.linalg import nullspace
    for p, q in ((1, 2), (3, 0)):
        n = p + q
        eta = _eta(p, q)
        # unknowns: the 4 n^2 real coordinates of X in X^dagger eta + eta X = 0
        unknowns = []
        for a in range(n):
            for b in range(n):
                for unit in (Q_ONE, Q_I, Q_J, Q_K):
                    unknowns.append({(a, b): unit})
        defects = [_sp_defect(x, eta, n) for x in unknowns]
        eqrows = []
        for r in range(n):
            for c in range(n):
                for comp in range(4):
                    eqrows.append(sparse([d.get((r, c), Quaternion()).components()[comp]
                                          for d in defects]))
        kern = nullspace(eqrows, len(unknowns))
        assert len(kern) == n * (2 * n + 1)


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(-2) == Fraction(-2)
