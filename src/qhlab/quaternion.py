"""Exact quaternion arithmetic and quaternionic matrix algebra.

Scalars are :class:`fractions.Fraction` throughout; nothing in this package
touches floating point.  Quaternionic vectors are columns, matrices act on
the left, and quaternion scalars act on the right, so that right scalar
multiplication commutes with every matrix action.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

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


@dataclass(frozen=True)
class Quaternion:
    """A quaternion a + b*i + c*j + d*k with exact rational components."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    c: Fraction = Fraction(0)
    d: Fraction = Fraction(0)

    @staticmethod
    def of(a=0, b=0, c=0, d=0) -> "Quaternion":
        return Quaternion(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        """Hamilton product; also accepts a rational scalar on the right."""
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return Quaternion(self.a * s, self.b * s, self.c * s, self.d * s)
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def conj(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def im(self) -> "Quaternion":
        return Quaternion(Fraction(0), self.b, self.c, self.d)

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        parts = []
        for coef, sym in zip(self.components(), ("", "i", "j", "k")):
            if coef:
                parts.append(f"{format_rat(coef)}{'*' if sym else ''}{sym}")
        return " + ".join(parts) if parts else "0"


Q_ZERO = Quaternion()
Q_ONE = Quaternion.of(1)
Q_I = Quaternion.of(0, 1)
Q_J = Quaternion.of(0, 0, 1)
Q_K = Quaternion.of(0, 0, 0, 1)
UNITS = (Q_ONE, Q_I, Q_J, Q_K)
IM_UNITS = (Q_I, Q_J, Q_K)


class QMatrix:
    """Dense quaternionic matrix with exact entries (immutable)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[Quaternion]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("QMatrix must be nonempty")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("QMatrix is immutable")

    @staticmethod
    def from_entry(rows: int, cols: int, r: int, c: int, q: Quaternion) -> "QMatrix":
        ent = [[Q_ZERO] * cols for _ in range(rows)]
        ent[r][c] = q
        return QMatrix(ent)

    def __repr__(self) -> str:
        return "QMatrix(" + "; ".join(
            ", ".join(repr(e) for e in row) for row in self.entries) + ")"


def sp_basis(p: int, q: int) -> list[QMatrix]:
    """Basis of sp(p,q) = {X : X^dagger eta + eta X = 0}, eta = diag(I_p, -I_q).

    Layout: for each diagonal slot s the three imaginary units a*E_ss, then
    for each pair s < t the four elements a*E_st - eta_s*eta_t*conj(a)*E_ts,
    a in {1, i, j, k}.  The count is (p+q)(2(p+q)+1).
    """
    n = p + q
    if n < 1:
        raise ValueError("p + q must be >= 1")
    signs = [1] * p + [-1] * q
    basis: list[QMatrix] = []
    for s in range(n):
        for a in IM_UNITS:
            basis.append(QMatrix.from_entry(n, n, s, s, a))
    for s in range(n):
        for t in range(s + 1, n):
            for a in UNITS:
                ent = [[Q_ZERO] * n for _ in range(n)]
                ent[s][t] = a
                ent[t][s] = a.conj() * Fraction(-signs[s] * signs[t])
                basis.append(QMatrix(ent))
    return basis


def sp_coordinates(m: QMatrix, p: int, q: int) -> list[Fraction]:
    """Coordinates of m in the sp_basis(p, q) layout (m must lie in sp(p,q))."""
    n = p + q
    signs = [1] * p + [-1] * q
    coords: list[Fraction] = []
    for s in range(n):
        e = m.entries[s][s]
        if e.a:
            raise ValueError("matrix not in sp(p,q): real diagonal part")
        coords.extend((e.b, e.c, e.d))
    for s in range(n):
        for t in range(s + 1, n):
            e = m.entries[s][t]
            coords.extend(e.components())
            # lower entry is determined; validated by reconstruction
            expect = e.conj() * Fraction(-signs[s] * signs[t])
            if m.entries[t][s] != expect:
                raise ValueError("matrix not in sp(p,q): lower block mismatch")
    return coords
