"""Sparse multivariate polynomials over exact rationals.

The variable set is fixed: (alpha, beta1, beta2, gamma1, gamma2, c1, c2).
Monomials are exponent tuples, negative exponents allowed (Laurent
monomials); the canonical order is graded lexicographic.  A coefficient is an
int when it is integral and a Fraction otherwise (``linalg.icode``); every
coefficient division goes through Fraction, so no float can arise.
Polynomials interoperate with int / Fraction scalars on either side of +, -,
* and /, so code downstream can be written once for both rational and
symbolic coefficients.  A Poly divides only by a single monomial.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Echelon, icode
from .quaternion import format_rat

VARS = ("alpha", "beta1", "beta2", "gamma1", "gamma2", "c1", "c2")
NVARS = len(VARS)
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}
_ZERO_MONO = (0,) * NVARS
# (m1, m2) -> the exponent sum m1 + m2, memoised for Poly x Poly: the
# computations meet few monomials (45 pairs over every CLI benchmark command).
_MONO_SUMS: dict[tuple, tuple[int, ...]] = {}


def _grlex_key(mono: tuple[int, ...]) -> tuple:
    return (sum(mono), mono)


class Poly:
    """Polynomial as a sparse map monomial -> coefficient, an int when
    integral and a Fraction otherwise (no stored zeros)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, ...], int | Fraction] | None = None):
        self.terms = {m: icode(c) for m, c in (terms or {}).items() if c}

    @staticmethod
    def _of(terms: dict) -> "Poly":
        """The Poly on terms, taken as is: terms must be zero-free and
        int-coded, as every ring operation's result is by construction."""
        p = object.__new__(Poly)
        p.terms = terms
        return p

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        return Poly({_ZERO_MONO: Fraction(c)})

    @staticmethod
    def var(name: str) -> "Poly":
        idx = _VAR_INDEX[name]
        return Poly._of({tuple(1 if i == idx else 0 for i in range(NVARS)): 1})

    @staticmethod
    def coerce(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        return Poly.const(x)

    # -- ring operations -------------------------------------------------
    # An int or Fraction operand acts on the coefficients or the constant
    # term directly; any other non-Poly operand, a float say, is refused.

    def __add__(self, other) -> "Poly":
        out = dict(self.terms)
        if isinstance(other, Poly):
            for m, c in other.terms.items():
                if m in out:
                    t = out[m] + c
                    if t:
                        out[m] = icode(t)
                    else:
                        del out[m]
                else:
                    out[m] = c
        elif isinstance(other, (int, Fraction)):
            t = out.get(_ZERO_MONO, 0) + other
            if t:
                out[_ZERO_MONO] = icode(t)
            else:
                out.pop(_ZERO_MONO, None)
        else:
            return NotImplemented
        return Poly._of(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + -other

    def __rsub__(self, other) -> "Poly":
        return -self + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            out: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = _MONO_SUMS.get((m1, m2))
                    if m is None:
                        m = _MONO_SUMS[(m1, m2)] = tuple(a + b for a, b in zip(m1, m2))
                    out[m] = out.get(m, 0) + c1 * c2
            return Poly._of({m: icode(c) for m, c in out.items() if c})
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly._of({})
            return Poly._of({m: icode(c * other) for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        """Division by a nonzero rational or by a single Laurent monomial;
        a zero divisor raises ZeroDivisionError, any other ValueError."""
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        if not isinstance(other, Poly):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("Poly division by zero")
        if len(other.terms) != 1:
            raise ValueError(f"cannot divide by {other}: not a single monomial")
        (m2, c2), = other.terms.items()
        inv = Fraction(1) / c2
        return Poly._of({tuple(a - b for a, b in zip(m1, m2)): icode(c1 * inv)
                         for m1, c1 in self.terms.items()})

    def __rtruediv__(self, other) -> "Poly":
        return Poly.coerce(other) / self

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = Poly._of({_ZERO_MONO: 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- queries ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def leading(self) -> tuple[tuple[int, ...], int | Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=_grlex_key)
        return m, self.terms[m]

    def monic(self) -> "Poly":
        """Scaled so the graded-lex leading coefficient is 1 (canonical rep)."""
        if not self.terms:
            return self
        _, c = self.leading()
        return self * (Fraction(1) / c)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.terms
            return len(self.terms) == 1 and self.terms.get(_ZERO_MONO) == other
        return False

    def __hash__(self):
        if self.terms.keys() <= {_ZERO_MONO}:  # a zero or constant Poly hashes as its scalar
            return hash(self.terms.get(_ZERO_MONO, 0))
        return hash(frozenset(self.terms.items()))

    # -- evaluation -------------------------------------------------------

    def eval(self, point: dict) -> "Fraction | Poly":
        """The value at point, {name: rational or Poly}, Poly values
        substituted: a Fraction when every value is rational.  Every variable
        occurring must be assigned."""
        vals = [None] * NVARS
        for name, v in point.items():
            vals[_VAR_INDEX[name]] = v if isinstance(v, Poly) else Fraction(v)
        total = Fraction(0)
        for m, c in self.terms.items():
            prod = c
            for i, e in enumerate(m):
                if e:
                    if vals[i] is None:
                        raise ValueError(f"unassigned variable {VARS[i]}")
                    prod *= vals[i] ** e
            total += prod
        return total

    # -- printing ----------------------------------------------------------

    def __repr__(self) -> str:
        return self.to_string()

    def to_string(self) -> str:
        """The text ``parse`` reads back; a negative exponent raises ValueError."""
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if e < 0:
                    raise ValueError(f"cannot print {VARS[i]}^{e}: negative exponent")
                if e == 1:
                    factors.append(VARS[i])
                elif e > 1:
                    factors.append(f"{VARS[i]}^{e}")
            if not factors:
                body = format_rat(c)
            elif c == 1:
                body = "*".join(factors)
            elif c == -1:
                body = "-" + "*".join(factors)
            else:
                body = format_rat(c) + "*" + "*".join(factors)
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    @staticmethod
    def parse(text: str) -> "Poly":
        """Inverse of to_string for the restricted syntax used in data files."""
        text = text.strip()
        if text == "0":
            return Poly()
        text = text.replace(" - ", " + -")
        total = Poly()
        for chunk in text.split(" + "):
            term = Poly.const(1)
            chunk = chunk.strip()
            if chunk.startswith("-"):
                term = term * -1
                chunk = chunk[1:]
            for factor in chunk.split("*"):
                factor = factor.strip()
                if "^" in factor:
                    name, exp = factor.split("^")
                    term = term * Poly.var(name) ** int(exp)
                elif factor in _VAR_INDEX:
                    term = term * Poly.var(factor)
                else:
                    term = term * Fraction(factor)
            total = total + term
        return total


def proportionality(p: Poly, q: Poly) -> Fraction | None:
    """lambda with p == lambda * q (0 when p = 0), as a Fraction, or None when
    there is none."""
    p, q = Poly.coerce(p), Poly.coerce(q)
    x = Echelon([q.terms]).coordinates(p.terms)
    return None if x is None else Fraction(x.get(0, 0))
