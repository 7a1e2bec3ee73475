"""Gauss-Jordan elimination in field arithmetic, as the package computed
ranks, determinants, inverses and solutions before `exactla.Echelon`
became its one elimination kernel.  Kept only here, as the oracle that
the tests compare the package with.

Matrices are sequences of rows, or matrices with `.entries` (the oracle
`RatMatrix` or a package view); p is None for the rationals, where
entries become Fractions, and a prime for F_p, where they become
residues in [0, p).
"""

from fractions import Fraction
from typing import Optional

from rational_matrix import RatMatrix


def _rows(m):
    return getattr(m, "entries", m)


def rref(p, a):
    """(rows, pivot columns) of the reduced row echelon form, zero rows
    dropped."""
    if p is None:
        norm, inv = Fraction, lambda x: 1 / x
    else:
        norm, inv = (lambda x: x % p), (lambda x: pow(x, -1, p))
    a = [[norm(x) for x in row] for row in _rows(a)]
    m, n = len(a), len(a[0]) if a else 0
    pivots = []
    r = 0
    for j in range(n):
        piv = next((i for i in range(r, m) if a[i][j] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        f = inv(a[r][j])
        a[r] = [norm(x * f) for x in a[r]]
        for i in range(m):
            if i != r and a[i][j] != 0:
                f = a[i][j]
                a[i] = [norm(x - f * y) for x, y in zip(a[i], a[r])]
        pivots.append(j)
        r += 1
        if r == m:
            break
    return a[:r], pivots


def rank(p, a) -> int:
    return len(rref(p, a)[1])


def solve(a, b, p=None, ncols=None) -> Optional[list]:
    """The solution x of a x = b whose free variables are 0, or None when
    a pivot lands in the column of b."""
    a = _rows(a)
    n = len(a[0]) if ncols is None else ncols
    rows, pivots = rref(p, [[*row, y] for row, y in zip(a, b)])
    if n in pivots:
        return None
    x = [Fraction(0) if p is None else 0] * n
    for row, c in zip(rows, pivots):
        x[c] = row[n]
    return x


def inverse(m) -> RatMatrix:
    """The inverse over Q, from the reduced form of [m | I]."""
    m = _rows(m)
    n = len(m)
    rows, pivots = rref(None, [[*r, *(int(i == j) for j in range(n))]
                               for i, r in enumerate(m)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return RatMatrix(tuple(tuple(row[n:]) for row in rows))


def det(m) -> Fraction:
    """The determinant over Q by elimination with row swaps."""
    a = [[Fraction(x) for x in row] for row in _rows(m)]
    n = len(a)
    result = Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if a[i][j] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            a[j], a[piv] = a[piv], a[j]
            result = -result
        result *= a[j][j]
        for i in range(j + 1, n):
            if a[i][j] != 0:
                f = a[i][j] / a[j][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    return result
