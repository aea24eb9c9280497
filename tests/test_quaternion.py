import random
from fractions import Fraction

import pytest

from qhlab.quaternion import (IM_UNITS, Q_I, Q_J, Q_K, Q_ONE, QMatrix,
                              Quaternion, rat, sp_basis, sp_coordinates)

from oracles import commutator, hermitian_metric, qmatmul

rng = random.Random(1214)


def rand_q():
    return Quaternion.of(*(Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                           for _ in range(4)))


def _dagger(m):
    """Conjugate transpose."""
    return QMatrix([[m.entries[r][c].conj() for r in range(m.rows)]
                    for c in range(m.cols)])


def _eta(p, q):
    """Signature matrix diag(I_p, -I_q)."""
    n = p + q
    return QMatrix([[(Q_ONE if i < p else -Q_ONE) if i == j else Quaternion()
                     for j in range(n)] for i in range(n)])


def _sp_defect(x, eta):
    """The entries of X^dagger eta + eta X, which vanish exactly on sp(p,q)."""
    return [[a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(qmatmul(_dagger(x), eta).entries, qmatmul(eta, x).entries)]


def test_hamilton_table():
    assert Q_I * Q_J == Q_K
    assert Q_J * Q_K == Q_I
    assert Q_K * Q_I == Q_J
    assert Q_I * Q_I == -Q_ONE
    assert (Q_I * Q_J) * Q_K == -Q_ONE


def test_identity_and_bilinearity():
    q = rand_q()
    assert Q_ONE * q == q
    assert (Q_ONE + Q_I) * (Q_ONE + Q_J) == Quaternion.of(1, 1, 1, 1)


def test_associativity_random():
    for _ in range(1000):
        a, b, c = rand_q(), rand_q(), rand_q()
        assert (a * b) * c == a * (b * c)


def test_conjugation_antihomomorphism():
    for _ in range(100):
        a, b = rand_q(), rand_q()
        assert (a * b).conj() == b.conj() * a.conj()
        assert (a.conj() * a).im().is_zero()
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


def test_sp_basis_counts():
    b10 = sp_basis(1, 0)
    assert len(b10) == 3
    assert all(m.rows == 1 for m in b10)
    assert {m.entries[0][0] for m in b10} == set(IM_UNITS)
    assert len(sp_basis(3, 0)) == 21
    assert len(sp_basis(1, 2)) == 21
    assert len(sp_basis(2, 0)) == 10


@pytest.mark.parametrize("p,q", [(2, 0), (1, 1), (1, 2)])
def test_sp_basis_defining_equation_and_closure(p, q):
    basis = sp_basis(p, q)
    eta, n = _eta(p, q), p + q
    for m in basis:
        assert all(x.is_zero() for row in _sp_defect(m, eta) for x in row)
    # closure: every pairwise commutator must expand exactly in the basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            comm = commutator(basis[i], basis[j])
            coords = sp_coordinates(comm, p, q)
            rebuilt = tuple(
                tuple(sum((mat.entries[r][s] * c for c, mat in zip(coords, basis) if c),
                          Quaternion()) for s in range(n))
                for r in range(n))
            assert rebuilt == comm.entries


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
                for u, unit in enumerate((Q_ONE, Q_I, Q_J, Q_K)):
                    unknowns.append(QMatrix.from_entry(n, n, a, b, unit))
        eqrows = []
        for r in range(n):
            for c in range(n):
                for comp in range(4):
                    row = []
                    for x in unknowns:
                        row.append(_sp_defect(x, eta)[r][c].components()[comp])
                    eqrows.append(row)
        kern = nullspace(eqrows, len(unknowns))
        assert len(kern) == n * (2 * n + 1)


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(-2) == Fraction(-2)
