"""Reference answers that do not come from the wellround package.

* Brute-force shortest vectors of a rational positive-definite form, by
  enumerating the box |x_i|^2 <= m (A^-1)_ii that contains every vector of
  value <= m, in integer arithmetic after clearing denominators.
* Classical invariants of congruence subgroups of SL_2(Z): index in
  PSL_2(Z), elliptic points, cusps and genus, from the standard formulas.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm, prod


def _inverse_diagonal(a: list[list[Fraction]]) -> list[Fraction]:
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n + i] for i in range(n)]


def rank(vectors: list[tuple[int, ...]]) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def shortest_vectors(a: list[list[Fraction]]) -> tuple[Fraction, list[tuple[int, ...]]]:
    """Arithmetic minimum of the form and its minimal vectors up to sign."""
    n = len(a)
    bound = min(a[i][i] for i in range(n))
    den = lcm(*(x.denominator for row in a for x in row))
    ints = [[int(x * den) for x in row] for row in a]
    radii = [isqrt(int(bound * d)) for d in _inverse_diagonal(a)]
    best = None
    found: list[tuple[int, ...]] = []
    for x in product(*(range(-r, r + 1) for r in radii)):
        first = next((c for c in x if c), 0)
        if first <= 0:       # skip zero and keep one of each +-pair
            continue
        val = sum(x[i] * sum(ints[i][j] * x[j] for j in range(n))
                  for i in range(n))
        if best is None or val < best:
            best, found = val, [x]
        elif val == best:
            found.append(x)
    return Fraction(best, den), found


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _phi(n: int) -> int:
    out = n
    for p in _prime_factors(n):
        out = out // p * (p - 1)
    return out


def _kronecker_minus(d: int, p: int) -> int:
    """Legendre symbol (-d/p) for d in (1, 3), with (-1/2) = 0 and
    (-3/2) = -1 as in the elliptic-point formulas for Gamma_0(N)."""
    if p == 2:
        return 0 if d == 1 else -1
    if p == 3 and d == 3:
        return 0
    return 1 if pow(-d % p, (p - 1) // 2, p) == 1 else -1


def modular_curve(family: str, level: int) -> dict:
    """Index mu in PSL_2(Z), cusps c and genus g of Gamma_0(N) or
    Gamma(N) (N >= 3)."""
    primes = _prime_factors(level)
    if family == "gamma0":
        mu = level
        for p in primes:
            mu = mu * (p + 1) // p
        nu2 = 0 if level % 4 == 0 else prod(1 + _kronecker_minus(1, p) for p in primes)
        nu3 = 0 if level % 9 == 0 else prod(1 + _kronecker_minus(3, p) for p in primes)
        cusps = sum(_phi(gcd(d, level // d)) for d in range(1, level + 1)
                    if level % d == 0)
    elif family == "gamma" and level >= 3:
        mu = level ** 3
        for p in primes:
            mu = mu * (p * p - 1) // (p * p)
        mu //= 2
        nu2 = nu3 = 0
        cusps = mu // level
    else:
        raise ValueError(f"no reference for {family}({level})")
    twelve_g = 12 + mu - 3 * nu2 - 4 * nu3 - 6 * cusps
    if twelve_g % 12:
        raise ValueError("genus formula gave a non-integer")
    return {"mu": mu, "cusps": cusps, "genus": twelve_g // 12}

