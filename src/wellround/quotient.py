"""Finite simplicial models of cell-complex quotients and their homology.

Simplices of the first barycentric subdivision are strictly increasing
chains of cells; the group permutes chains, and a chain is anchored at
the orbit representative of its top cell, with the residual ambiguity
killed by the top cell's finite stabilizer.  An element stabilizing a
chain fixes each member (their dimensions differ), so simplices never
fold onto themselves and the orbit complex computes the homology of the
quotient space with any coefficients.  Boundary matrices are integer
matrices; homology is exact (Smith normal form for torsion over Z,
the fraction-free `exactla.Echelon` for ranks and representatives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cells import OrbitComplex, cell_dimension, cell_faces
from .exactla import (
    CertificateError, Echelon, IntMatrix, PrimeField, QQ, f_kernel, f_rank,
    int_matmul, int_matvec, snf,
)
from .flags import RationalFlag
from .lattice import VectorConfig, canonical_config, config_equiv, config_stabilizer

Chain = tuple[VectorConfig, ...]  # cell configs, dimension-increasing


def _apply(u: IntMatrix, config: VectorConfig) -> VectorConfig:
    return canonical_config(tuple(int_matvec(u, v)) for v in config)


def _apply_chain(u: IntMatrix, chain: Chain) -> Chain:
    return tuple(_apply(u, c) for c in chain)


@dataclass(frozen=True)
class SimplexOrbit:
    dim: int
    chain: Chain          # canonical representative, top cell last
    top_orbit: int        # orbit id of the top cell (-1 in the double model)


@dataclass(frozen=True)
class QuotientComplex:
    """Simplex orbits per dimension with integer boundary matrices.

    boundaries[k] maps k-chains to (k-1)-chains; rows are indexed by the
    (k-1)-simplices.  boundaries[0] is the empty matrix.
    """

    group: object
    constraint: Optional[RationalFlag]
    simplices: tuple[tuple[SimplexOrbit, ...], ...]
    boundaries: tuple[IntMatrix, ...]

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.simplices)

    def boundary(self, k: int) -> IntMatrix:
        return self.boundaries[k]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(s) for k, s in enumerate(self.simplices))

    def locate(self, chain: Chain) -> tuple[int, int]:
        """(dimension, index) of the simplex orbit containing the chain."""
        return self._locate(chain)  # type: ignore[attr-defined]


class _ChainIndexer:
    """Canonicalization of cell chains under the group action."""

    def __init__(self, complex: OrbitComplex):
        self.complex = complex
        self.group = complex.group
        self.constraint = complex.constraint
        self._stab: dict[int, tuple[IntMatrix, ...]] = {}
        self._closure: dict[int, list[VectorConfig]] = {}
        self._top: dict[VectorConfig, tuple[int, IntMatrix]] = {}

    def stabilizer(self, oid: int) -> tuple[IntMatrix, ...]:
        if oid not in self._stab:
            rep = self.complex.cell_by_id(oid)
            self._stab[oid] = config_stabilizer(
                rep.config, self.group, flag=self.constraint).elements
        return self._stab[oid]

    def closure_configs(self, oid: int) -> list[VectorConfig]:
        if oid not in self._closure:
            rep = self.complex.cell_by_id(oid)
            seen = {rep.config: rep}
            frontier = [rep]
            while frontier:
                cur = frontier.pop()
                for f in cell_faces(cur):
                    if f.config not in seen:
                        seen[f.config] = f
                        frontier.append(f)
            self._closure[oid] = sorted(seen)
        return self._closure[oid]

    def canonical_chain(self, oid: int, chain: Chain) -> Chain:
        return min(_apply_chain(g, chain) for g in self.stabilizer(oid))

    def locate_top(self, config: VectorConfig) -> tuple[int, IntMatrix]:
        """Orbit id of a cell config and a witness carrying it onto the
        representative configuration."""
        if config in self._top:
            return self._top[config]
        d = cell_dimension(config)
        for oc in self.complex.cells:
            if oc.cell.dim != d:
                continue
            u = config_equiv(config, oc.cell.config, self.group,
                             flag=self.constraint)
            if u is not None:
                self._top[config] = (oc.id, u)
                return oc.id, u
        raise KeyError(f"cell not found in complex: {config}")


def _enumerate_chains(poset: Sequence[VectorConfig], top: VectorConfig):
    """All strictly nested chains of configs ending at `top`; a face
    carries a strictly larger configuration than its cofaces."""
    chains: list[Chain] = [(top,)]
    pool = [c for c in poset if c != top and set(c) > set(top)]

    def grow(prefix: Chain):
        first = prefix[0]
        for c in pool:
            if set(c) > set(first):
                chain = (c,) + prefix
                chains.append(chain)
                grow(chain)

    grow((top,))
    return chains


def barycentric_quotient(complex: OrbitComplex,
                         double: bool = False) -> QuotientComplex:
    """The quotient of the first barycentric subdivision by the group.

    double=True subdivides a second time (fallback only; one subdivision
    suffices because chain stabilizers fix chains pointwise, which the
    construction verifies via its canonical-labeling checks)."""
    qc = _first_subdivision(complex)
    if double:
        qc = _second_subdivision(complex, qc)
    return qc


def _first_subdivision(complex: OrbitComplex) -> QuotientComplex:
    indexer = _ChainIndexer(complex)
    by_dim: dict[int, list[SimplexOrbit]] = {}
    seen: set[Chain] = set()
    for oc in complex.cells:
        closure = indexer.closure_configs(oc.id)
        for chain in _enumerate_chains(closure, oc.cell.config):
            canon = indexer.canonical_chain(oc.id, chain)
            if canon in seen:
                continue
            seen.add(canon)
            k = len(canon) - 1
            by_dim.setdefault(k, []).append(SimplexOrbit(k, canon, oc.id))

    max_dim = max(by_dim) if by_dim else 0
    simplices = tuple(tuple(sorted(by_dim.get(k, ()), key=lambda s: s.chain))
                      for k in range(max_dim + 1))
    ids: dict[Chain, tuple[int, int]] = {}
    for k, level in enumerate(simplices):
        for i, s in enumerate(level):
            ids[s.chain] = (k, i)

    def locate(chain: Chain) -> tuple[int, int]:
        oid, u = indexer.locate_top(chain[-1])
        moved = _apply_chain(u, chain[:-1]) + \
            (complex.cell_by_id(oid).config,)
        return ids[indexer.canonical_chain(oid, moved)]

    boundaries: list[IntMatrix] = [()]
    for k in range(1, max_dim + 1):
        rows = len(simplices[k - 1])
        mat = [[0] * len(simplices[k]) for _ in range(rows)]
        for j, s in enumerate(simplices[k]):
            for i in range(k + 1):
                kk, idx = locate(s.chain[:i] + s.chain[i + 1:])
                if kk != k - 1:
                    raise CertificateError("face chain has the wrong dimension")
                mat[idx][j] += (-1) ** i
        boundaries.append(tuple(tuple(r) for r in mat))
    qc = QuotientComplex(complex.group, complex.constraint,
                         simplices, tuple(boundaries))
    _check_boundary_squares_to_zero(qc)
    object.__setattr__(qc, "_locate", locate)
    object.__setattr__(qc, "_indexer", indexer)
    return qc


def _second_subdivision(complex: OrbitComplex,
                        first: QuotientComplex) -> QuotientComplex:
    """Chains of chains, anchored at the canonical top chain."""
    indexer: _ChainIndexer = first._indexer  # type: ignore[attr-defined]
    stab_cache: dict[Chain, tuple[IntMatrix, ...]] = {}

    def chain_stab(chain: Chain) -> tuple[IntMatrix, ...]:
        if chain not in stab_cache:
            oid, _ = indexer.locate_top(chain[-1])
            stab_cache[chain] = tuple(
                g for g in indexer.stabilizer(oid)
                if _apply_chain(g, chain) == chain)
        return stab_cache[chain]

    def canonical_top_chain(chain: Chain) -> tuple[Chain, IntMatrix]:
        oid, u = indexer.locate_top(chain[-1])
        moved = _apply_chain(u, chain[:-1]) + \
            (complex.cell_by_id(oid).config,)
        best, best_g = None, None
        for g in indexer.stabilizer(oid):
            cand = _apply_chain(g, moved)
            if best is None or cand < best:
                best, best_g = cand, g
        return best, int_matmul(best_g, u)

    by_dim: dict[int, list[tuple[Chain, ...]]] = {}
    seen: set[tuple[Chain, ...]] = set()
    for level in first.simplices:
        for s in level:
            top = s.chain
            stab = chain_stab(top)
            for flagchain in _nested_chain_flags(_all_subchains(top), top):
                canon = min(tuple(_apply_chain(g, t) for t in flagchain)
                            for g in stab)
                if canon not in seen:
                    seen.add(canon)
                    by_dim.setdefault(len(canon) - 1, []).append(canon)
    max_dim = max(by_dim) if by_dim else 0
    levels = tuple(tuple(sorted(by_dim.get(k, ())))
                   for k in range(max_dim + 1))
    ids = {}
    for k, level in enumerate(levels):
        for i, t in enumerate(level):
            ids[t] = (k, i)

    def locate2(flagchain: tuple[Chain, ...]) -> tuple[int, int]:
        top, g = canonical_top_chain(flagchain[-1])
        moved = tuple(_apply_chain(g, t) for t in flagchain[:-1]) + (top,)
        canon = min(tuple(_apply_chain(h, t) for t in moved)
                    for h in chain_stab(top))
        return ids[canon]

    boundaries: list[IntMatrix] = [()]
    for k in range(1, max_dim + 1):
        mat = [[0] * len(levels[k]) for _ in range(len(levels[k - 1]))]
        for j, t in enumerate(levels[k]):
            for i in range(k + 1):
                kk, idx = locate2(t[:i] + t[i + 1:])
                if kk != k - 1:
                    raise CertificateError("face chain has the wrong dimension")
                mat[idx][j] += (-1) ** i
        boundaries.append(tuple(tuple(r) for r in mat))
    simplices = tuple(tuple(SimplexOrbit(k, t[-1], -1) for t in level)
                      for k, level in enumerate(levels))
    qc = QuotientComplex(complex.group, complex.constraint,
                         simplices, tuple(boundaries))
    _check_boundary_squares_to_zero(qc)
    object.__setattr__(qc, "_locate", locate2)
    object.__setattr__(qc, "_indexer", indexer)
    return qc


def _all_subchains(chain: Chain) -> list[Chain]:
    from itertools import combinations
    out = []
    for k in range(1, len(chain) + 1):
        out.extend(tuple(sub) for sub in combinations(chain, k))
    return out


def _nested_chain_flags(subchains: Sequence[Chain], top: Chain):
    flags = [(top,)]

    def grow(prefix):
        first = set(prefix[0])
        for t in subchains:
            if set(t) < first:
                flag = (t,) + prefix
                flags.append(flag)
                grow(flag)

    grow((top,))
    return flags


def _check_boundary_squares_to_zero(qc: QuotientComplex):
    for k in range(2, qc.dim + 1):
        prod = _mat_mul(qc.boundaries[k - 1], qc.boundaries[k])
        if any(x for row in prod for x in row):
            raise CertificateError("boundary squared is nonzero")


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeHomology:
    betti: int
    torsion: tuple[int, ...]             # invariant factors > 1 (Z only)
    representatives: tuple[tuple, ...]   # cycles in simplex coordinates


@dataclass(frozen=True)
class HomologyResult:
    coeff: str
    degrees: tuple[DegreeHomology, ...]

    def betti_numbers(self) -> tuple[int, ...]:
        return tuple(d.betti for d in self.degrees)

    def torsion(self) -> tuple[tuple[int, ...], ...]:
        return tuple(d.torsion for d in self.degrees)


def parse_coeff(text: str):
    """"Z", "Q" or "Fp:<prime>" to a coefficient descriptor."""
    text = text.strip()
    if text.upper() == "Z":
        return "Z"
    if text.upper() == "Q":
        return QQ
    if text.lower().startswith("fp:"):
        return PrimeField(int(text.split(":", 1)[1]))
    raise ValueError(f"unknown coefficients {text!r}")


def _nonempty(m: IntMatrix) -> bool:
    return bool(m) and bool(m[0])


def homology(qc: QuotientComplex, coeff="Z") -> HomologyResult:
    """Homology of the quotient complex over Z, Q or F_p."""
    if isinstance(coeff, str) and coeff != "Z":
        coeff = parse_coeff(coeff)
    field = QQ if coeff == "Z" else coeff  # ranks over Z are ranks over Q
    dims = [len(level) for level in qc.simplices]
    top = qc.dim
    degrees = []
    for k in range(top + 1):
        dk = qc.boundaries[k] if k >= 1 else ()
        dk1 = qc.boundaries[k + 1] if k + 1 <= top else ()
        betti = dims[k] - f_rank(field, dk) - f_rank(field, dk1)
        torsion: tuple[int, ...] = ()
        if coeff == "Z" and _nonempty(dk1):
            torsion = tuple(int(d) for d in snf(dk1).diag if d not in (0, 1))
        reps = cycle_reps(field, dk, dk1, dims[k])
        degrees.append(DegreeHomology(betti, torsion, reps[:betti]))
    name = "Z" if coeff == "Z" else coeff.name
    return HomologyResult(name, tuple(degrees))


def dualize(qc: QuotientComplex) -> QuotientComplex:
    """Reverse the grading so that cochains become chains: level k of the
    dual holds the (top-k)-simplices and its boundary is the transposed
    coboundary."""
    top = qc.dim
    simplices = tuple(qc.simplices[top - k] for k in range(top + 1))
    boundaries: list[IntMatrix] = [()]
    for k in range(1, top + 1):
        # rows of the dual boundary: (k-1)-simplices of the dual =
        # (top-k+1)-simplices of qc; entries transpose the boundary there
        m = qc.boundaries[top - k + 1]
        rows = len(qc.simplices[top - k + 1])
        cols = len(qc.simplices[top - k])
        dual = [[0] * cols for _ in range(rows)]
        if _nonempty(m):
            for i in range(len(m)):
                for j in range(len(m[0])):
                    dual[j][i] = m[i][j]
        boundaries.append(tuple(tuple(r) for r in dual))
    return QuotientComplex(qc.group, qc.constraint, simplices,
                           tuple(boundaries))


def cohomology(qc: QuotientComplex, coeff="Z") -> HomologyResult:
    """Cohomology via the dualized complex: degree q of the result reads
    H^q (= homology of the dual in degree top - q, relabelled)."""
    res = homology(dualize(qc), coeff)
    return HomologyResult(res.coeff, tuple(reversed(res.degrees)))


def cycle_reps(field, d_out, d_in, dim: int) -> tuple[tuple, ...]:
    """Cycles spanning the homology at a chain group of dimension dim:
    the kernel vectors of d_out (dim columns) that are independent modulo
    the image of d_in (dim rows) and of the kernel vectors before them."""
    if dim == 0:
        return ()
    basis = Echelon(field, zip(*d_in))
    return tuple(tuple(v) for v in f_kernel(field, d_out, dim) if basis.add(v))


# ---------------------------------------------------------------------------
# Chain maps
# ---------------------------------------------------------------------------

class IncompatibleComplexes(ValueError):
    pass


@dataclass(frozen=True)
class ChainMap:
    source: QuotientComplex
    target: QuotientComplex
    matrices: tuple[IntMatrix, ...]   # per dimension: target x source

    def matrix(self, k: int) -> IntMatrix:
        if 0 <= k < len(self.matrices):
            return self.matrices[k]
        return ()


def induced_map(sub: QuotientComplex, sup: QuotientComplex,
                twist: Optional[IntMatrix] = None) -> ChainMap:
    """The chain map sending a simplex orbit of `sub` to the orbit of
    its (optionally twisted) representative chain in `sup`; commutes
    with the boundaries exactly (checked)."""
    if sub.dim > sup.dim:
        raise IncompatibleComplexes("source complex exceeds target dimension")
    mats = []
    for k in range(sub.dim + 1):
        rows = len(sup.simplices[k])
        mat = [[0] * len(sub.simplices[k]) for _ in range(rows)]
        for j, s in enumerate(sub.simplices[k]):
            chain = s.chain if twist is None else _apply_chain(twist, s.chain)
            try:
                kk, idx = sup.locate(chain)
            except KeyError as exc:
                raise IncompatibleComplexes(str(exc)) from exc
            if kk != k:
                raise CertificateError("chain map changes the dimension")
            mat[idx][j] += 1
        mats.append(tuple(tuple(r) for r in mat))
    cm = ChainMap(sub, sup, tuple(mats))
    for k in range(1, sub.dim + 1):
        left = _mat_mul(cm.matrix(k - 1), sub.boundaries[k])
        right = _mat_mul(sup.boundaries[k], cm.matrix(k))
        if left != right:
            raise CertificateError("chain map does not commute with boundaries")
    return cm


def _mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if not _nonempty(a) or not _nonempty(b):
        rows = len(a)
        cols = len(b[0]) if b and b[0] else 0
        return tuple(tuple(0 for _ in range(cols)) for _ in range(rows))
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)
