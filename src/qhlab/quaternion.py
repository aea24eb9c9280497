"""Exact quaternion arithmetic and quaternionic matrix algebra.

Components are exact: ints or :class:`fractions.Fraction`; nothing in this
package touches floating point.  The units have int components, so products
of units are int arithmetic; a quaternion's components enter a real vector
only through ``models._quat_to_slot``, which codes each as every exact table
is coded: an int when integral, a Fraction otherwise.
Quaternionic vectors are columns, matrices act on the left, and quaternion
scalars act on the right, so that right scalar multiplication commutes with
every matrix action.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


def rat(p, q=1) -> Fraction:
    """Exact rational, accepting ints, Fractions or 'p/q' strings."""
    if isinstance(p, str):
        return Fraction(p)
    return Fraction(p, q)


def format_rat(x: Fraction) -> str:
    """Canonical 'p/q' rendering (plain integer when q == 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Quaternion(namedtuple("Quaternion", "a b c d", defaults=(0, 0, 0, 0))):
    """A quaternion a + b*i + c*j + d*k with exact (int or Fraction) components.

    An immutable tuple of its components: equality and hashing are the
    tuple's.  The ring operators below replace the tuple's concatenation and
    repetition, and bool() is False only for the zero quaternion.
    """

    __slots__ = ()

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        """Hamilton product; also accepts a rational scalar, on either side."""
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.a * other, self.b * other, self.c * other, self.d * other)
        a1, b1, c1, d1 = self
        a2, b2, c2, d2 = other
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    # rationals are central, so a scalar on the left is the same product; the
    # alias keeps 2 * q from falling back to tuple repetition
    __rmul__ = __mul__

    def conj(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def im(self) -> "Quaternion":
        return Quaternion(0, self.b, self.c, self.d)

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    def components(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        parts = []
        for coef, sym in zip(self.components(), ("", "i", "j", "k")):
            if coef:
                parts.append(f"{format_rat(coef)}{'*' if sym else ''}{sym}")
        return " + ".join(parts) if parts else "0"


Q_ONE = Quaternion(1)
Q_I = Quaternion(0, 1)
Q_J = Quaternion(0, 0, 1)
Q_K = Quaternion(0, 0, 0, 1)
UNITS = (Q_ONE, Q_I, Q_J, Q_K)
IM_UNITS = (Q_I, Q_J, Q_K)

# A quaternionic matrix by its nonzero entries {(row, col): entry}.
QMat = dict[tuple[int, int], Quaternion]


def _lower(upper: Quaternion, s: int, t: int, p: int) -> Quaternion:
    """The (t, s) entry that the (s, t) entry forces on sp(p,q):
    -eta_s eta_t conj(upper), eta = diag(I_p, -I_q)."""
    return -upper.conj() if (s < p) == (t < p) else upper.conj()


def sp_basis(p: int, q: int) -> list[QMat]:
    """Basis of sp(p,q) = {X : X^dagger eta + eta X = 0}, eta = diag(I_p, -I_q).

    Layout: for each diagonal slot s the three imaginary units a*E_ss, then
    for each pair s < t the four elements a*E_st - eta_s*eta_t*conj(a)*E_ts,
    a in {1, i, j, k}.  The count is (p+q)(2(p+q)+1).
    """
    n = p + q
    if n < 1:
        raise ValueError("p + q must be >= 1")
    basis: list[QMat] = [{(s, s): a} for s in range(n) for a in IM_UNITS]
    for s in range(n):
        for t in range(s + 1, n):
            basis.extend({(s, t): a, (t, s): _lower(a, s, t, p)} for a in UNITS)
    return basis
