"""Exact linear algebra over the rationals.

One elimination engine, :class:`Echelon`: the sparse, incremental, fully
reduced row echelon form of the span of the vectors inserted so far.  Vectors
are zero-free dicts {key: scalar} whose keys only need an order (column ints,
form index tuples, monomials).  Inserted vectors are rational (int or
Fraction entries); vectors reduced against the echelon or written in its span
may carry Poly entries.

Scalars follow the package's one coding rule, an int when integral and a
Fraction otherwise: ``icode``, the one int-coder, codes what the engine and
Poly compute and every table where it is made (``models._quat_to_slot``,
``lie.BilinearMap``).  A row whose pivot is +-1 is normalised without an
inverse, so int rows stay int, and every division goes through
``Fraction``.  Int and Fraction entries of equal value compare and hash
equal, so the coding never changes a result.

Its front-ends take and return such sparse vectors: ``rref`` (the RREF rows),
``nullspace`` and ``sparse_nullspace`` (the kernel, made integer-primitive by
the latter).  None splits a system into connected components: independent
blocks already eliminate independently inside one RREF.

Every public routine returns exact results; callers are expected to verify
kernels post hoc (A.v == 0) where correctness matters.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

SparseVec = dict[int, Fraction]


def icode(x):
    """The rational x as an int when it is integral, else unchanged: the one
    int-coder, so integral entries cost int arithmetic."""
    return x.numerator if x.denominator == 1 else x


# --------------------------------------------------------------------------
# sparse vectors
# --------------------------------------------------------------------------

def sv_add_scaled(a: SparseVec, b: SparseVec, s) -> SparseVec:
    """a + s*b as a new sparse vector."""
    out = dict(a)
    accumulate(out, b, s)
    return out


def accumulate(acc: dict, b: dict, s=None) -> None:
    """acc += b, or acc += s*b when s is given, in place, dropping the
    entries that cancel.

    The one "add, drop if zero" loop: every sparse sum in the package (dicts
    keyed by ints, index tuples or monomials, with Fraction or Poly values)
    goes through here, one call per accumulated vector.
    """
    if s is not None and not s:
        return
    for k, v in b.items():
        if s is not None:
            v = s * v
        if k in acc:  # an absent key is stored as is: no addition to zero
            t = acc[k] + v
            if t:
                acc[k] = t
            else:
                del acc[k]
        elif v:
            acc[k] = v


def sv_primitive(a: SparseVec) -> SparseVec:
    """Integer-primitive rescaling with positive leading entry (canonical),
    as int entries."""
    if not a:
        return {}
    den = lcm(*(v.denominator for v in a.values()))
    ints = {k: v.numerator * (den // v.denominator) for k, v in a.items()}
    g = gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    return {k: v // g for k, v in ints.items()}


def connected_components(links) -> dict:
    """Map every key of ``links`` to the smallest key of its component.

    Each link is an iterable of keys and connects all of them.
    """
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for link in links:
        keys = list(link)
        for k in keys:
            parent.setdefault(k, k)
        for k in keys[1:]:
            a, b = find(keys[0]), find(k)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return {k: find(k) for k in parent}


# --------------------------------------------------------------------------
# the elimination engine
# --------------------------------------------------------------------------

class Echelon:
    """Fully reduced row echelon form of the span of the inserted vectors.

    Each row is keyed by its pivot, the smallest key of the row; it is 1
    there and 0 at every other pivot.  Whatever the insertion order, the
    rows are therefore the unique RREF of the span, and ``kernel`` gives the
    kernel basis that back-substitution from that RREF gives.
    """

    def __init__(self, vectors=()):
        self.rows: dict = {}       # pivot -> row
        self.inserted: list = []   # the vectors as given (not copied), in order
        self._touching: dict = {}  # key -> pivots whose row has a nonzero there
        self._tagged: dict | None = None  # pivot -> tag part t_p, for coordinates
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: dict) -> dict:
        """The remainder of v against the rows; empty exactly on the span."""
        out = dict(v)
        for p, s in [(p, out[p]) for p in v if p in self.rows]:
            accumulate(out, self.rows[p], -s)  # rows vanish at other pivots: one pass
        return out

    def add(self, v: dict) -> bool:
        """Insert v; True when it enlarged the span."""
        self.inserted.append(v)
        self._tagged = None
        red = self.reduce(v)
        if not red:
            return False
        pivot = min(red)
        lead = red[pivot]
        if lead == 1:
            row = red
        elif lead == -1:
            row = {k: -x for k, x in red.items()}
        else:
            inv = Fraction(1) / lead
            row = {k: icode(x * inv) for k, x in red.items()}
        for q in list(self._touching.get(pivot, ())):  # clear the new pivot column
            other = self.rows[q]
            accumulate(other, row, -other[pivot])
            for k in row:
                if k in other:
                    self._touching.setdefault(k, set()).add(q)
                else:
                    self._touching[k].discard(q)
        self.rows[pivot] = row
        for k in row:
            self._touching.setdefault(k, set()).add(pivot)
        return True

    def coordinates(self, v: dict) -> dict | None:
        """{insertion index: x} with v = sum of x * inserted vector, or None
        when v is off the span.  Unique when the inserted vectors are
        independent; vectors that did not enlarge the span get no weight.

        Read off the pivots: x = sum of v[p] * t_p over the pivots p of v,
        where t_p is the tag part of the pivot-p row of the echelon of the
        inserted vectors each extended by a unit tag, [B | I].  Tags sort
        after every key, later ones first, so a dependent vector's tag is a
        pivot and no t_p weighs it.  The read is certified by recombining
        the inserted vectors, which must give v exactly.
        """
        if self._tagged is None:
            tagged = Echelon({**{(0, k): x for k, x in b.items()}, (1, -i): 1}
                             for i, b in enumerate(self.inserted))
            self._tagged = {p: {-i: icode(x) for (side, i), x in row.items() if side}
                            for (side, p), row in tagged.rows.items() if not side}
        x: dict = {}
        for p, s in v.items():
            if p in self._tagged:
                accumulate(x, self._tagged[p], s)
        rebuilt: dict = {}
        for i, s in x.items():
            accumulate(rebuilt, self.inserted[i], s)
        return x if rebuilt == v else None

    def kernel(self, columns) -> list[SparseVec]:
        """Basis of {x : row . x = 0 for every row} on the given columns: one
        vector per free column f, 1 at f and minus the rows' entries at f."""
        return [{f: 1, **{p: -self.rows[p][f] for p in self._touching.get(f, ())}}
                for f in columns if f not in self.rows]


# --------------------------------------------------------------------------
# front-ends
# --------------------------------------------------------------------------

def rref(rows: list[dict]) -> list[dict]:
    """The nonzero rows of the reduced row echelon form, ordered by pivot."""
    ech = Echelon(rows)
    return [ech.rows[p] for p in sorted(ech.rows)]


def nullspace(rows: list[SparseVec], ncols: int) -> list[SparseVec]:
    """Exact kernel basis on the columns 0..ncols-1, one vector per free column."""
    return Echelon(rows).kernel(range(ncols))


def sparse_nullspace(rows: list[SparseVec], ncols: int) -> list[SparseVec]:
    """``nullspace`` made integer-primitive and sorted by smallest key, with the
    rows eliminated sparsest first: the large equivariance / invariance kernels."""
    ech = Echelon(sorted((r for r in rows if r), key=lambda r: (len(r), min(r))))
    return sorted((sv_primitive(v) for v in ech.kernel(range(ncols))), key=min)
