"""The two-phase simplex over Fractions, as the package solved its LPs
before `exactla.lp` kept an integer tableau over one denominator.  Kept
only here, as the oracle that the tests compare `exactla.lp` with.

The code is the package's old `_simplex` and `lp`, except in two
points.  The pivot step is the one helper `_pivot`, shared by both
phases and by the step that drives artificials out of the basis, so that
a test can log the pivot sequence (leaving row, entering column) by
wrapping it.  And it starts from the basis `exactla.lp` starts from: a
>= row whose right-hand side is <= 0 is negated so that its slack has
coefficient +1 and is basic; only the other rows get an artificial
column, and phase 1 runs only when some row has one.
"""

from fractions import Fraction
from typing import Sequence

from wellround.exactla import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult


def _pivot(tab: list[list[Fraction]], leaving: int, entering: int) -> None:
    """Scale row `leaving` to a 1 in column `entering` and clear that
    column from every other row."""
    piv = tab[leaving][entering]
    if piv != 1:
        tab[leaving] = [x / piv for x in tab[leaving]]
    pivot_row = tab[leaving]
    for i in range(len(tab)):
        if i != leaving:
            f = tab[i][entering]
            if f != 0:
                tab[i] = [x - f * y for x, y in zip(tab[i], pivot_row)]


def _simplex(tab: list[list[Fraction]], basis: list[int], cost: list[Fraction]) -> str:
    """Maximize cost over the tableau (rhs in the last column), Bland's rule.

    Mutates tab/basis; returns OPTIMAL or UNBOUNDED.  The reduced-cost
    row is maintained incrementally through the pivots.
    """
    nrows = len(tab)
    ncols = len(tab[0]) - 1
    zero = Fraction(0)
    obj = list(cost) + [zero]
    for i in range(nrows):
        cb = cost[basis[i]]
        if cb != 0:
            obj = [x - cb * y for x, y in zip(obj, tab[i])]
    while True:
        entering = -1
        for j in range(ncols):
            if obj[j] > 0:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
        leaving = -1
        best = None
        for i in range(nrows):
            if tab[i][entering] > 0:
                ratio = tab[i][-1] / tab[i][entering]
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return UNBOUNDED
        _pivot(tab, leaving, entering)
        f = obj[entering]
        if f != 0:
            obj = [x - f * y for x, y in zip(obj, tab[leaving])]
        basis[leaving] = entering


def lp(c: Sequence, eq_lhs: Sequence[Sequence] = (), eq_rhs: Sequence = (),
       ge_lhs: Sequence[Sequence] = (), ge_rhs: Sequence = ()) -> LPResult:
    """Maximize c.x subject to eq_lhs.x = eq_rhs and ge_lhs.x >= ge_rhs.

    Variables are free rationals.  Exact two-phase simplex; Bland's rule
    guarantees termination.  When the status is OPTIMAL the returned point
    satisfies every constraint exactly.
    """
    c = [Fraction(x) for x in c]
    nx = len(c)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    nge = len(ge_lhs)
    for row, b in zip(eq_lhs, eq_rhs):
        rows.append([Fraction(x) for x in row] + [Fraction(0)] * nge)
        rhs.append(Fraction(b))
    for k, (row, b) in enumerate(zip(ge_lhs, ge_rhs)):
        slack = [Fraction(0)] * nge
        slack[k] = Fraction(-1)
        rows.append([Fraction(x) for x in row] + slack)
        rhs.append(Fraction(b))
    nrows = len(rows)

    # x = u - w with u, w >= 0; then slack columns
    def structural(row: list[Fraction]) -> list[Fraction]:
        xpart = row[:nx]
        return xpart + [-x for x in xpart] + row[nx:]

    ncols = 2 * nx + nge
    neq = len(eq_lhs)
    arts = [i for i in range(nrows) if i < neq or rhs[i] > 0]
    tab: list[list[Fraction]] = []
    basis = []
    for i in range(nrows):
        r = structural(rows[i])
        b = rhs[i]
        if i in arts:
            basis.append(ncols + arts.index(i))
        else:  # a >= row with b <= 0: its slack starts basic
            basis.append(2 * nx + i - neq)
        if b < 0 or i not in arts:
            r = [-x for x in r]
            b = -b
        art = [Fraction(int(j == i)) for j in arts]
        tab.append(r + art + [b])

    if arts:
        cost1 = [Fraction(0)] * ncols + [Fraction(-1)] * len(arts)
        _simplex(tab, basis, cost1)
        if any(tab[i][-1] != 0 and basis[i] >= ncols for i in range(nrows)):
            return LPResult(INFEASIBLE)
        # drive artificials out of the basis, dropping redundant rows
        keep = []
        for i in range(len(tab)):
            if basis[i] >= ncols:
                j = next((j for j in range(ncols) if tab[i][j] != 0), None)
                if j is None:
                    continue  # redundant row
                _pivot(tab, i, j)
                basis[i] = j
            keep.append(i)
        tab = [tab[i][:ncols] + [tab[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]

    cost2 = c + [-x for x in c] + [Fraction(0)] * nge
    status = _simplex(tab, basis, cost2)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    vals = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        vals[b] = tab[i][-1]
    x = tuple(vals[j] - vals[nx + j] for j in range(nx))
    obj = sum(ci * xi for ci, xi in zip(c, x))
    return LPResult(OPTIMAL, x, obj)
