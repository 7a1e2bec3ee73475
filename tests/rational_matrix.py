"""Rational matrix arithmetic on Fractions, as the package computed Gram
forms, projectors and block scalings before every form became an integer
matrix over one denominator.  Kept only here, as the oracle that the
tests compare the package with.  A package view such as
`GramForm.matrix` becomes an oracle matrix as `RatMatrix(view.entries)`,
and `int_scaled` gives the (numerator, denominator) pair a `GramForm`
must hold for a matrix.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


@dataclass(frozen=True)
class RatMatrix:
    entries: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "RatMatrix":
        ent = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if ent and any(len(r) != len(ent[0]) for r in ent):
            raise ValueError("ragged rows")
        return RatMatrix(ent)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        one, zero = Fraction(1), Fraction(0)
        return RatMatrix(tuple(tuple(one if i == j else zero for j in range(n))
                               for i in range(n)))

    @staticmethod
    def zeros(m: int, n: int) -> "RatMatrix":
        zero = Fraction(0)
        return RatMatrix(tuple(tuple(zero for _ in range(n)) for _ in range(m)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(tuple(zip(*self.entries))) if self.entries else self

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(tuple(tuple(a + b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(tuple(tuple(a - b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(tuple(tuple(-a for a in r) for r in self.entries))

    def scale(self, c) -> "RatMatrix":
        c = Fraction(c)
        return RatMatrix(tuple(tuple(c * a for a in r) for r in self.entries))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = other.transpose().entries
        return RatMatrix(tuple(tuple(sum(a * b for a, b in zip(row, col))
                                     for col in ot)
                               for row in self.entries))

    def matvec(self, v: Sequence) -> tuple[Fraction, ...]:
        return tuple(sum(a * Fraction(x) for a, x in zip(row, v))
                     for row in self.entries)

    def is_symmetric(self) -> bool:
        return self.entries == self.transpose().entries

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for r in self.entries for a in r)

    def to_int(self) -> tuple[tuple[int, ...], ...]:
        if not self.is_integral():
            raise ValueError("matrix is not integral")
        return tuple(tuple(a.numerator for a in r) for r in self.entries)


def int_scaled(a: RatMatrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(M, D) with a = M / D: D > 0 is the lcm of the denominators of the
    entries and M an integer matrix."""
    den = lcm(*(x.denominator for row in a.entries for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                 for row in a.entries), den
