"""The dense elimination kernel and the column-pairing reduction as the
package ran them before `exactla.Echelon` became one sparse reducer and
`exactla.f_pairs` a loop over it.  Kept only here, verbatim, as the
oracles that the tests compare the package with.

`Echelon` keeps dense integer rows over Q (residue rows over F_p), each
labelled by its first nonzero column and reduced against the rows kept
before it; `f_pairs` reduces sparse columns left to right by their
lowest row with its own copy of the Q and F_p steps.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence


class Echelon:
    """An incrementally built semi-echelon basis of a row space over Q or
    F_p: ``add(v)`` keeps v and returns True exactly when v is independent
    of the rows added before it.

    Every kept row is reduced against the rows kept before it and is
    labelled by its pivot, its first nonzero column, so one pass over the
    basis reduces a new vector.  Over Q the rows are integers: a vector
    is scaled once by the lcm of its denominators, eliminated fraction-free
    (v <- a v - x r for a basis row r with pivot entry a and x = v[pivot],
    both divided by gcd(a, x); Bareiss, Math. Comp. 1968) and divided by
    the gcd of its entries, so no Fraction arithmetic happens.  Over F_p
    the rows are residues with pivot entry 1.
    """

    def __init__(self, field, rows: Iterable[Sequence] = ()):
        self.p: Optional[int] = getattr(field, "p", None)  # None over Q
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self.rows)

    def _reduce(self, v: Sequence) -> list[int]:
        """v reduced against the basis: integer over Q, residues over F_p;
        all zero exactly when v lies in the span."""
        p = self.p
        if p is None:
            d = lcm(*(x.denominator for x in v))
            row = [x.numerator * (d // x.denominator) for x in v]
        else:
            row = [x % p for x in v]
        for c, r in zip(self.pivots, self.rows):
            if row[c]:
                row = self._clear(row, c, r)
        return row

    def spans(self, v: Sequence) -> bool:
        """True when v lies in the span of the basis; the basis is left
        unchanged."""
        return not any(self._reduce(v))

    def add(self, v: Sequence) -> bool:
        """Reduce v against the basis; keep it and return True if it is
        independent of the basis, else return False."""
        row = self._reduce(v)
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            return False
        p = self.p
        if p is None:
            g = gcd(*row)
            if g != 1:
                row = [x // g for x in row]
        else:
            inv = pow(row[lead], -1, p)
            row = [x * inv % p for x in row]
        self.rows.append(row)
        self.pivots.append(lead)
        return True

    def _clear(self, row: list[int], c: int, r: list[int]) -> list[int]:
        """row minus a multiple of the basis row r, whose pivot is c, so
        that the entry in column c becomes 0; over Q row is first scaled
        by a / gcd(a, row[c]) for the pivot entry a, keeping integers."""
        x = row[c]
        if self.p is not None:
            return [(s - x * t) % self.p for s, t in zip(row, r)]
        a = r[c]
        g = gcd(a, x)
        a, x = a // g, x // g
        return [a * s - x * t for s, t in zip(row, r)]

    def reduced(self) -> tuple[list[list], list[int]]:
        """(rows, pivots) of the reduced row echelon form of the span:
        rows sorted by pivot, pivot entries 1 and every other entry in a
        pivot column 0; Fractions over Q, residues over F_p.  The form is
        determined by the span alone."""
        done: list[tuple[int, list[int]]] = []  # fully reduced, pivots descending
        for c, row in sorted(zip(self.pivots, self.rows), reverse=True):
            for c2, r2 in done:
                if row[c2]:
                    row = self._clear(row, c2, r2)
            done.append((c, row))
        done.reverse()
        if self.p is None:
            zero = Fraction(0)
            rows = [[Fraction(x, row[c]) if x else zero for x in row]
                    for c, row in done]
        else:
            rows = [row for _, row in done]
        return rows, [c for c, _ in done]

    def kernel(self, ncols: int) -> list[list]:
        """Basis of the vectors x with r . x = 0 for every row r, taken
        over the first ncols columns: one per non-pivot column f < ncols,
        with x_f = 1 and 0 at the other non-pivot columns.  For the rows
        [a | b] of a consistent system in ncols unknowns this is the
        kernel of a."""
        rows, pivots = self.reduced()
        p = self.p
        zero, one = (Fraction(0), Fraction(1)) if p is None else (0, 1)
        taken = set(pivots)
        basis = []
        for f in range(ncols):
            if f in taken:
                continue
            v = [zero] * ncols
            v[f] = one
            for row, c in zip(rows, pivots):
                v[c] = -row[f] if p is None else -row[f] % p
            basis.append(v)
        return basis

    def solution(self, ncols: int) -> Optional[list]:
        """For the rows [a | b] of a system a x = b in ncols unknowns: the
        solution with every free variable 0, or None when a pivot lies in
        the column of b, so that the system is inconsistent."""
        rows, pivots = self.reduced()
        if pivots and pivots[-1] == ncols:
            return None
        x = [Fraction(0) if self.p is None else 0] * ncols
        for row, c in zip(rows, pivots):
            x[c] = row[ncols]
        return x


def f_pairs(field, columns: Iterable[Sequence[tuple[int, int]]]) -> dict[int, int]:
    """The persistence pairs {lowest row: column} of a filtered complex
    (Edelsbrunner, Letscher and Zomorodian, "Topological persistence and
    simplification", 2002): columns[j] lists the integer entries (row,
    value) of the differential of generator j, generators in filtration
    order.  Left to right, while a column's lowest row (its last nonzero)
    is that of an earlier reduced column, a multiple of that column is
    subtracted; a column left nonzero pairs its lowest row with it.  Over
    Q columns stay integers: fraction-free steps as in `Echelon`, and a
    kept column divided by the gcd of its entries; over F_p residues."""
    p: Optional[int] = getattr(field, "p", None)  # None over Q
    reduced: dict[int, dict[int, int]] = {}  # lowest row -> reduced column
    pairs: dict[int, int] = {}
    for j, entries in enumerate(columns):
        col = {i: y for i, x in entries if (y := x if p is None else x % p)}
        while col and (other := reduced.get(low := max(col))) is not None:
            x, a = col[low], other[low]
            if p is not None:
                x = x * pow(a, -1, p) % p
            elif x % a:
                g = gcd(a, x)
                col = {i: a // g * v for i, v in col.items()}
                x //= g
            else:
                x //= a
            for i, v in other.items():
                w = col.get(i, 0) - x * v
                if p is not None:
                    w %= p
                if w:
                    col[i] = w
                else:
                    del col[i]
        if col:
            if p is None and (g := gcd(*col.values())) != 1:
                col = {i: v // g for i, v in col.items()}
            low = max(col)
            reduced[low], pairs[low] = col, j
    return pairs
