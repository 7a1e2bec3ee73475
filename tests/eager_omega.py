"""The coset space Gamma \\ SL_n(Z) as `flags.Omega` built it before an
element moved every point through one reduced move table: `act` moves
one point, transposing its matrix on each call, and the transversal and
the paths of the parabolic orbits are multiplied out eagerly, as each
point is reached.  Kept only here, as the oracle that the tests compare
the move tables, the transversal and the parabolic orbits with."""

from math import gcd
from operator import mul
from typing import Sequence

from wellround.exactla import IntMatrix, int_identity, int_matmul, int_transpose
from wellround.lattice import GroupSpec

Point = tuple[tuple[int, ...], ...]


def _matrix(n: int, entries: dict[tuple[int, int], int]) -> IntMatrix:
    """The identity with the given entries replaced."""
    return tuple(tuple(entries.get((r, s), int(r == s)) for s in range(n))
                 for r in range(n))


def _spanning_tree(omega: "Omega", root: Point, gens: Sequence[IntMatrix],
                   paths: dict[Point, IntMatrix]) -> list[Point]:
    """The points reachable from root under gens, in BFS order, each
    entered into paths with an integral p such that root . p = point."""
    paths[root] = int_identity(omega.n)
    order = [root]
    for w in order:
        for g in gens:
            v = omega.act(w, g)
            if v not in paths:
                paths[v] = int_matmul(paths[w], g)
                order.append(v)
    return order


class Omega:
    """The coset space Gamma \\ SL_n(Z), with SL_n(Z) acting on the right.

    A point is the data of h mod N that Gamma h determines: for Gamma_0(N)
    the bottom row up to a unit (a point of P^{n-1}(Z/N)), for Gamma_1(N)
    the bottom row, for Gamma(N) the whole matrix.  A group of level 1
    (GL_n(Z) included, whose flag orbits are those of SL_n(Z)) has the
    single point ().  The base point w0 = Gamma has stabilizer
    Gamma cap SL_n(Z), and `transversal` maps each point w, in BFS order
    from w0 under the signed transpositions and the elementary matrices,
    to t(w) in SL_n(Z) with w0 . t(w) = w.  The flags of a type are
    SL_n(Z)/P(Z), h.F_std <-> h P(Z), so their group orbits are the
    P(Z)-orbits on Omega: a flag with adapted basis b lies over w0 . b.
    """

    def __init__(self, group: GroupSpec):
        n = self.n = group.n
        self.level = group.level if group.is_congruence else 1
        self.rows = {"gamma": n}.get(group.family, 1) if self.level > 1 else 0
        # Gamma_0(N): per residue x, the units u minimizing u x mod N
        self._scalers: list[list[int]] = []
        if self.level > 1 and group.family == "gamma0":
            mod = self.level
            units = [u for u in range(1, mod) if gcd(u, mod) == 1]
            self._scalers = [[u for u in units
                              if u * x % mod == gcd(x, mod) % mod]
                             for x in range(mod)]
        self.base = self.point(int_identity(n))
        # the signed transpositions come first, so that an orbit holding
        # a coordinate flag one transposition away, as the cusp 0 of
        # Gamma_0(N) in SL_2(Z), is represented by that flag
        swaps = [_matrix(n, {(i, i + 1): -1, (i + 1, i): 1, (i, i): 0,
                             (i + 1, i + 1): 0}) for i in range(n - 1)]
        self.transversal: dict[Point, IntMatrix] = {}
        _spanning_tree(self, self.base,
                       swaps + [_matrix(n, {(i, j): c}) for i in range(n)
                                for j in range(n) for c in (1, -1) if i != j],
                       self.transversal)
        self._parabolic: dict[tuple[int, ...], tuple] = {}

    def __len__(self) -> int:
        return len(self.transversal)

    def _normal(self, rows: Point) -> Point:
        """For Gamma_0(N), the least multiple of the row by a unit."""
        if not self._scalers:
            return rows
        mod = self.level
        (row,) = rows
        units = None
        for x in row:
            if units is None:
                if x:
                    units = self._scalers[x]
            elif len(units) > 1:
                least = min(u * x % mod for u in units)
                units = [u for u in units if u * x % mod == least]
        return (tuple(units[0] * x % mod for x in row),)

    def point(self, h: IntMatrix) -> Point:
        """w0 . h: the bottom rows of h mod N."""
        return self._normal(tuple(tuple(x % self.level for x in row)
                                  for row in h[self.n - self.rows:]))

    def act(self, w: Point, h: IntMatrix) -> Point:
        """w . h, row by row mod N."""
        cols = int_transpose(h)
        return self._normal(tuple(tuple(sum(map(mul, row, col)) % self.level
                                        for col in cols) for row in w))

    def parabolic_orbits(self, dims: tuple[int, ...]):
        """(roots, orbit, paths) for the orbits on Omega of the stabilizer
        P(Z) of the standard flag of type dims: orbit[w] is the orbit of
        w, roots[k] the root of orbit k, and paths[w] an integral s(w) in
        P(Z) with roots[orbit[w]] . s(w) = w.  A BFS over the generators
        of P(Z): e_ij for block(i) <= block(j), and the sign changes of
        the first coordinates of consecutive blocks.  Roots are taken in
        the order of the transversal, so w0 is the root of orbit 0."""
        if dims not in self._parabolic:
            n = self.n
            block = [sum(1 for d in dims if d <= i) for i in range(n)]
            gens = [_matrix(n, {(i, j): c}) for i in range(n) for j in range(n)
                    for c in (1, -1) if i != j and block[i] <= block[j]]
            gens += [_matrix(n, {(a, a): -1, (b, b): -1})
                     for a, b in zip((0, *dims), dims)]
            roots, orbit, paths = [], {}, {}
            for w in self.transversal:
                if w not in paths:
                    for v in _spanning_tree(self, w, gens, paths):
                        orbit[v] = len(roots)
                    roots.append(w)
            self._parabolic[dims] = roots, orbit, paths
        return self._parabolic[dims]
