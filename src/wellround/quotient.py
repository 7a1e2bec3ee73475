"""Finite simplicial models of cell-complex quotients and their homology.

Simplices of the first barycentric subdivision are strictly increasing
chains of cells; the group permutes chains, and a chain is anchored at
the orbit representative of its top cell, with the residual ambiguity
killed by the top cell's finite stabilizer.  The top cell's orbit and
the element carrying it onto the representative come from the orbit
complex's own index (`OrbitComplex.locate`).  A chain is moved onto
the representative through per-element image tables
(`lattice.move_each`), and by the stabilizer through its permutations
of the representative's closure, made once; each orbit of chains is
moved once: its least image is the representative, and its other
chains are not moved again.  The least
image of a chain anchored at its top cell's representative is found
once per quotient, however many chains anchor to it.  The
chains run through cell closures, which the orbit complex carries over
from its representatives (`OrbitComplex.closure`); the member below a
chain's top, the top cell of its last face, is filed in the index from
the top cell's closure, so no cell is searched for.  The stabilizers
are the complex's too: the quotient computes no face, solves no LP and
searches no stabilizer of its own.  Those stabilizers are checked by
Gauss-Bonnet: the orbifold Euler characteristic of the quotient must be
that of the group (0 for a flag subcomplex).  An element
stabilizing a chain fixes each member (their dimensions differ), so it
fixes the simplex pointwise: simplices never fold onto themselves, and
this one subdivision computes the homology of the quotient space with
any coefficients.  Boundary matrices and chain maps are integer matrices
in sparse rows (`exactla.SparseRows`); homology is exact: torsion over Z
is read from the Smith invariants that `exactla.snf` computes by
alternating Hermite forms, and ranks and representatives from the sparse
rows themselves, by the fraction-free `exactla.Echelon`.  The quotients
by a congruence group, and the chain maps between them, are also read off
the level-1 ones and the coset space, with no chain of their own
(`CosetLift`); so are the quotients of the flag subcomplexes W_F and
their chain maps, off W's simplex orbits and the flags of flats of their
top cells (`FlagLift`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

from .cells import OrbitComplex, _FlagDecoration, _FlatTable, _positions
from .exactla import (
    CertificateError, Echelon, IntMatrix, PrimeField, QQ, SparseRows,
    dense_view, int_identity, int_inverse, int_matmul, snf, sparse_matmul,
    sparse_transpose,
)
from .flags import RationalFlag, coset_space
from .lattice import GroupSpec, VectorConfig, move_each

Chain = tuple[VectorConfig, ...]  # cell configs, dimension-increasing


class IncompatibleComplexes(ValueError):
    pass


@dataclass(frozen=True)
class SimplexOrbit:
    dim: int
    chain: Chain          # canonical representative, top cell last
    top_orbit: int        # orbit id of the top cell


@dataclass(frozen=True)
class QuotientComplex:
    """Simplex orbits per dimension with sparse integer boundary matrices.

    boundaries[k] maps k-chains to (k-1)-chains, as sparse rows indexed by
    the (k-1)-simplices, of width len(simplices[k]).  boundaries[0] has no
    rows.  A quotient of
    an orbit complex keeps the indexer of its chains, which `locate`
    reads, and a flag lift its own chain data, which locates no chain;
    complexes built from matrices alone have none.
    """

    group: object
    constraint: Optional[RationalFlag]
    simplices: tuple[tuple[SimplexOrbit, ...], ...]
    boundaries: tuple[SparseRows, ...]
    chains: Optional[_ChainIndexer] = field(default=None, compare=False,
                                            repr=False)

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.simplices)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(s) for k, s in enumerate(self.simplices))

    def locate(self, chain: Chain) -> tuple[int, int]:
        """(dimension, index) of the simplex orbit containing the chain."""
        return self.carry(chain)[0]

    def carry(self, chain: Chain) -> tuple[tuple[int, int], IntMatrix]:
        """`locate`, with an element e of the group carrying the chain onto
        the representative chain of its orbit."""
        return self._index().carry(chain)

    @property
    def located_faces(self) -> tuple[tuple[tuple[tuple[int, IntMatrix], ...],
                                           ...], ...]:
        """Per dimension k and k-simplex, its faces i = 0, ..., k (the
        chain without member i) as (index among the (k-1)-simplices,
        element carrying the face onto that representative), as the
        boundary pass carried them."""
        return self._index().faces

    @cached_property
    def stabilizers(self) -> tuple[tuple[tuple[IntMatrix, ...], ...], ...]:
        """Per dimension and simplex, the elements of the group fixing its
        representative chain, which fix it pointwise."""
        index = self._index()
        return tuple(tuple(index.stabilizer(s) for s in level)
                     for level in self.simplices)

    def _index(self) -> _ChainIndexer:
        if self.chains is None:
            raise IncompatibleComplexes("the quotient complex has no chain "
                                        "index (it was built from matrices)")
        return self.chains


class _ChainIndexer:
    """The simplex orbit of a chain: its top cell is located through the
    orbit complex's index, the chain is moved so that the top cell is the
    representative, and the top cell's stabilizer, which the complex
    carries, picks the least image.

    A chain is moved onto the representative by `lattice.move_each`, and
    the orbit index remembers the element u of each located
    configuration.  A stabilizer only permutes its representative's
    closure, so it moves an anchored chain by its permutations of the
    closure (`closure`), made once per representative.  The least image
    of an anchored chain is found once: many chains anchor to one, and
    `least` keeps its simplex id and the index of the stabilizer element
    giving it.  `faces` keeps the faces of each simplex as the boundary
    pass carried them."""

    def __init__(self, complex: OrbitComplex):
        self.complex = complex
        self.ids: dict[Chain, tuple[int, int]] = {}
        self.least: dict[Chain, tuple[tuple[int, int], int]] = {}
        self.identity = int_identity(complex.group.n)
        self.faces: tuple = ()
        self._closures: dict[int, tuple] = {}

    def closure(self, oid: int):
        """(configs, positions, perms): the closure of representative oid,
        sorted, the position of each of its configurations, and each
        stabilizer element's permutation of them (`lattice._Action`, the
        one the complex's index keeps), in the stabilizer's order.  A
        chain anchored at oid is the tuple of its members' positions,
        which compare as the chains do."""
        if oid not in self._closures:
            configs = _closure_configs(self.complex, oid)
            self._closures[oid] = configs, \
                {c: i for i, c in enumerate(configs)}, \
                self.complex.index.action(oid).permutations(configs,
                                                            "closure")
        return self._closures[oid]

    def _anchored(self, chain: Chain):
        """(oid, u, moved): the chain moved by u so that its top cell is
        the representative oid."""
        oid, u = self.complex.locate(chain[-1])
        return oid, u, move_each(u, chain[:-1]) + \
            (self.complex.cell_by_id(oid).config,)

    def carry(self, chain: Chain):
        """(ids, g u): g the first stabilizer element giving the least
        image."""
        oid, u, moved = self._anchored(chain)
        stabilizer = self.complex.stabilizers[oid]
        hit = self.least.get(moved)
        if hit is None:
            configs, pos, perms = self.closure(oid)
            chain = [pos[c] for c in moved]
            image, i = min(([p[j] for j in chain], i)
                           for i, p in enumerate(perms))
            hit = self.least[moved] = \
                self.ids[tuple(map(configs.__getitem__, image))], i
        ids, i = hit
        if u == self.identity:
            return ids, stabilizer[i]
        return ids, int_matmul(stabilizer[i], u)

    def stabilizer(self, simplex: SimplexOrbit) -> tuple[IntMatrix, ...]:
        """The top cell's stabilizer elements that fix the chain."""
        _, pos, perms = self.closure(simplex.top_orbit)
        chain = [pos[c] for c in simplex.chain]
        return tuple(g for g, p in zip(
            self.complex.stabilizers[simplex.top_orbit], perms)
            if list(map(p.__getitem__, chain)) == chain)


def _closure_configs(complex: OrbitComplex, oid: int) -> list[VectorConfig]:
    """The configs of the closure of orbit representative oid, sorted."""
    return sorted(complex.closure(oid))


def _enumerate_chains(poset: Sequence[VectorConfig], top: VectorConfig):
    """All strictly nested chains of configs ending at `top`; a face
    carries a strictly larger configuration than its cofaces, and each
    config's faces in the poset are listed once."""
    chains: list[Chain] = [(top,)]
    below = frozenset(top)
    pool = [(c, frozenset(c)) for c in poset]
    pool = [(c, vectors) for c, vectors in pool if vectors > below]
    faces = {c: [d for d, others in pool if others > vectors]
             for c, vectors in pool}

    def grow(prefix: Chain, members: list[VectorConfig]):
        for c in members:
            chain = (c,) + prefix
            chains.append(chain)
            grow(chain, faces[c])

    grow((top,), [c for c, _ in pool])
    return chains


def barycentric_quotient(complex: OrbitComplex) -> QuotientComplex:
    """The quotient of the first barycentric subdivision by the group."""
    _check_gauss_bonnet(complex)
    indexer = _ChainIndexer(complex)
    by_dim: dict[int, list[SimplexOrbit]] = {}
    for oc in complex.cells:
        # the stabilizer permutes the chains of this top cell, so each
        # orbit is moved once, from the first of its chains met
        closure, pos, perms = indexer.closure(oc.id)
        met: set[tuple[int, ...]] = set()
        for chain in _enumerate_chains(closure, oc.cell.config):
            chain = tuple(map(pos.__getitem__, chain))
            if chain in met:
                continue
            orbit = {tuple(map(p.__getitem__, chain)) for p in perms}
            met |= orbit
            canon = tuple(map(closure.__getitem__, min(orbit)))
            k = len(canon) - 1
            by_dim.setdefault(k, []).append(SimplexOrbit(k, canon, oc.id))

    max_dim = max(by_dim) if by_dim else 0
    simplices = tuple(tuple(sorted(by_dim.get(k, ()), key=lambda s: s.chain))
                      for k in range(max_dim + 1))
    for k, level in enumerate(simplices):
        for i, s in enumerate(level):
            indexer.ids[s.chain] = (k, i)
            if k:   # the top of the last face, which the closure locates
                _, cid, u = complex.closure(s.top_orbit)[s.chain[-2]]
                complex.index.file(s.chain[-2], cid, u)

    boundaries: list[SparseRows] = [()]
    faces = [tuple(() for _ in simplices[0])]
    for k in range(1, max_dim + 1):
        rows: list[dict[int, int]] = [{} for _ in simplices[k - 1]]
        located = []
        for j, s in enumerate(simplices[k]):  # columns ascending in each row
            carried = []
            for i in range(k + 1):
                (kk, idx), e = indexer.carry(s.chain[:i] + s.chain[i + 1:])
                if kk != k - 1:
                    raise CertificateError("face chain has the wrong dimension")
                rows[idx][j] = rows[idx].get(j, 0) + (-1) ** i
                carried.append((idx, e))
            located.append(tuple(carried))
        faces.append(tuple(located))
        boundaries.append(tuple(tuple((j, x) for j, x in row.items() if x)
                                for row in rows))
    indexer.faces = tuple(faces)
    qc = QuotientComplex(complex.group, complex.constraint,
                         simplices, tuple(boundaries), indexer)
    _check_boundary_squares_to_zero(qc)
    return qc


def group_euler_characteristic(group: GroupSpec) -> Fraction:
    """chi(Gamma) = [SL_n(Z) : Gamma cap SL_n(Z)] chi(SL_n(Z)), halved
    for GL_n(Z), with chi(SL_2(Z)) = -1/12 and chi(SL_n(Z)) = 0 for
    n >= 3 (Harder).  The index is the size of the coset space
    Gamma \\ SL_n(Z)."""
    chi = Fraction(-1, 12) if group.n == 2 else Fraction(0)
    chi *= len(coset_space(group))
    return chi / 2 if group.family == "gl" else chi


def orbifold_euler_characteristic(complex: OrbitComplex) -> Fraction:
    """The sum over orbit cells of (-1)^dim / |stabilizer|."""
    return sum((Fraction((-1) ** oc.cell.dim, len(complex.stabilizers[oc.id]))
                for oc in complex.cells), Fraction(0))


def _check_gauss_bonnet(complex: OrbitComplex):
    """Gauss-Bonnet: the orbifold Euler characteristic of the quotient is
    chi(Gamma) for W, and 0 for a flag subcomplex W_F (Gamma_F has a
    normal unipotent subgroup of infinite order)."""
    total = orbifold_euler_characteristic(complex)
    want = (Fraction(0) if complex.constraint is not None
            else group_euler_characteristic(complex.group))
    if total != want:
        raise CertificateError(f"Gauss-Bonnet sum {total} != {want}")


def _check_boundary_squares_to_zero(qc: QuotientComplex):
    for k in range(2, qc.dim + 1):
        if any(sparse_matmul(qc.boundaries[k - 1], qc.boundaries[k])):
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


def parse_coeff(text):
    """"Z", "Q" or "Fp:<prime>" to a coefficient descriptor; a descriptor
    is returned as it is."""
    if not isinstance(text, str):
        return text
    text = text.strip()
    if text.upper() == "Z":
        return "Z"
    if text.upper() == "Q":
        return QQ
    if text.lower().startswith("fp:"):
        return PrimeField(int(text.split(":", 1)[1]))
    raise ValueError(f"unknown coefficients {text!r}")


def _ranked(coeff, d_out: SparseRows, d_in_cols: SparseRows, dim: int):
    """(betti, torsion, out, image): the echelon bases of the rows of d_out
    and of the columns of d_in, and the betti number and torsion read from
    them."""
    field = QQ if coeff == "Z" else coeff
    out = Echelon(field, d_out)
    image = Echelon(field, d_in_cols)
    torsion = tuple(d for d in snf(dense_view(d_in_cols, dim)) if d > 1) \
        if coeff == "Z" else ()
    return dim - len(out) - len(image), torsion, out, image


def betti_at(coeff, d_out: SparseRows, d_in_cols: SparseRows,
             dim: int) -> tuple[int, tuple[int, ...]]:
    """(betti, torsion) of the homology at a chain group of dimension dim,
    given the rows of the map d_out out of it and the columns of the map
    d_in into it, both sparse rows of width dim; a cochain complex passes
    its coboundaries the same way.

    The betti number is dim - rank d_out - rank d_in; over Z the torsion
    is read from the Smith invariants of d_in (ranks over Z are ranks over
    Q)."""
    return _ranked(coeff, d_out, d_in_cols, dim)[:2]


def homology_at(coeff, d_out: SparseRows, d_in_cols: SparseRows,
                dim: int) -> DegreeHomology:
    """`betti_at` with representatives: the kernel vectors of d_out that
    are independent modulo the image of d_in and of the kernel vectors
    before them; the two echelon bases that give the ranks give them too.
    The kernel vectors are reduced by their nonzero entries, and only the
    representatives are made dense."""
    betti, torsion, out, image = _ranked(coeff, d_out, d_in_cols, dim)
    zero = Fraction(0) if out.p is None else 0
    reps = tuple(tuple(dict(v).get(j, zero) for j in range(dim))
                 for v in out.kernel_entries(dim) if image.add(v))
    return DegreeHomology(betti, torsion, reps)


def coboundary(qc: QuotientComplex, q: int) -> SparseRows:
    """The coboundary d^q from q- to (q+1)-cochains, the transpose of
    boundaries[q + 1]: its rows are the columns of that boundary."""
    if not 0 <= q < qc.dim:
        return ()
    return sparse_transpose(qc.boundaries[q + 1], len(qc.simplices[q + 1]))


def homology(qc: QuotientComplex, coeff="Z") -> HomologyResult:
    """Homology of the quotient complex over Z, Q or F_p."""
    coeff = parse_coeff(coeff)
    degrees = tuple(homology_at(coeff, qc.boundaries[k], coboundary(qc, k),
                                len(level))
                    for k, level in enumerate(qc.simplices))
    return HomologyResult("Z" if coeff == "Z" else coeff.name, degrees)


def cohomology(qc: QuotientComplex, coeff="Z") -> HomologyResult:
    """Cohomology of the quotient complex over Z, Q or F_p: degree q sits
    between the coboundaries d^{q-1} and d^q, the transposed boundaries;
    representatives are cocycles in simplex coordinates."""
    coeff = parse_coeff(coeff)
    degrees = tuple(homology_at(coeff, coboundary(qc, q), qc.boundaries[q],
                                len(level))
                    for q, level in enumerate(qc.simplices))
    return HomologyResult("Z" if coeff == "Z" else coeff.name, degrees)


# ---------------------------------------------------------------------------
# Chain maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainMap:
    source: QuotientComplex
    target: QuotientComplex
    matrices: tuple[SparseRows, ...]  # per dimension: target x source
    # carry(k, j): the element carrying source simplex j of dimension k
    # onto its image's representative chain; none when lifted over Omega
    carry: Optional[Callable[[int, int], IntMatrix]] = field(
        default=None, compare=False, repr=False)

    def matrix(self, k: int) -> SparseRows:
        if 0 <= k < len(self.matrices):
            return self.matrices[k]
        return ()

    @cached_property
    def elements(self) -> tuple[tuple[IntMatrix, ...], ...]:
        """Per dimension and source simplex, the element `carry` gives,
        multiplied out on the first read."""
        if self.carry is None:
            return ()
        return tuple(tuple(map(self.carry, [k] * len(level), range(len(level))))
                     for k, level in enumerate(self.source.simplices[
                         :len(self.matrices)]))


# ---------------------------------------------------------------------------
# Quotients of flag subcomplexes, lifted from W's chain orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlagSimplex:
    """The simplex orbit of W_F mod Gamma_F of the chain g.tau: tau a
    simplex orbit of W, y a numbered flag of flats of its top cell
    (`cells._FlatTable`), g = w s^-1 for
    the witness w carrying the root s^-1.y of y's orbit onto F, and
    `fixing` = Stab(tau) cap Stab(y).  The witness is found, and the
    element g and the stabilizer g fixing g^-1 are multiplied out, on the
    first read; a level-1 group carries every flag of F's type onto F, so
    no witness is missing (checked)."""

    tau: SimplexOrbit
    flag: tuple[int, ...]
    root: tuple[Callable[[], Optional[IntMatrix]], IntMatrix]   # (w(), s)
    fixing: tuple[IntMatrix, ...]

    @property
    def dim(self) -> int:
        return self.tau.dim

    @property
    def chain(self) -> Chain:
        return move_each(self.element, self.tau.chain)

    @cached_property
    def element(self) -> IntMatrix:
        w = self.root[0]()
        if w is None:
            raise CertificateError("no element carries a root flag onto F")
        return int_matmul(w, int_inverse(self.root[1]))

    @cached_property
    def inverse(self) -> IntMatrix:
        return int_inverse(self.element)

    @cached_property
    def stabilizer(self) -> tuple[IntMatrix, ...]:
        return tuple(int_matmul(int_matmul(self.element, r), self.inverse)
                     for r in self.fixing)


def _carried(target: FlagSimplex, r: IntMatrix, e: IntMatrix,
             source: FlagSimplex) -> IntMatrix:
    """g' r^-1 e g^-1: it carries source's chain g.tau (or its face) onto
    target's g'.tau' if e carries tau (or its face) onto tau' and r
    carries target's flag onto the image of source's."""
    return int_matmul(int_matmul(target.element, int_inverse(r)),
                      int_matmul(e, source.inverse))


class _FlagChains:
    """The chain data of a lifted W_F: per dimension, the simplex t of W
    under each simplex, the labels of W's simplices (flag -> (index, r),
    r carrying the simplex's flag onto it), and the faces as (index, r,
    e), multiplied out (`_carried`) on the first read.  It locates no
    chain."""

    def __init__(self, simplices, owners, labels, raw):
        self.simplices, self.owners, self.labels = simplices, owners, labels
        self.raw = raw

    def stabilizer(self, simplex: FlagSimplex) -> tuple[IntMatrix, ...]:
        return simplex.stabilizer

    @cached_property
    def faces(self):
        return tuple(tuple(tuple((f, _carried(self.simplices[q - 1][f], r, e, s))
                                 for f, r, e in faces)
                           for s, faces in zip(self.simplices[q], level))
                     for q, level in enumerate(self.raw))

    def carry(self, chain: Chain):
        raise IncompatibleComplexes("a flag lift locates no chain")


class _CarriedFlats(dict):
    """The flat numbers of a cell sigma mapped to those of a cell sigma',
    given the position perm[j] in sigma' of an element's image of
    sigma's vector j: flat x goes to the flat of sigma' of its dimension
    holding the images of its vectors (None if none does), found on the
    first read of x."""

    def __init__(self, perm: Sequence[int], source: _FlatTable,
                 target: _FlatTable):
        self.perm, self.source, self.target = perm, source, target

    def __missing__(self, x: int) -> Optional[int]:
        image = self[x] = self.target.holding(
            self.source.dims[x], {self.perm[j] for j in self.source.sets[x]})
        return image


class FlagLift:
    """The quotients of the flag subcomplexes W_F mod Gamma_F and their
    deletion maps, read off W mod Gamma's simplex orbits: induction over
    flags, as `CosetLift` is over cosets.  No chain of W_F is enumerated,
    moved or located.

    A chain h.tau of W_F, tau a representative chain of W, has its top
    cell in W_F, so tau's top cell sigma respects h^-1.F, a flag y of
    flats of sigma (`cells._FlagDecoration`); h.tau and h'.tau are
    Gamma_F-equivalent exactly when their flags lie in one
    Stab(tau)-orbit.  So the simplex orbits of W_F are the pairs (tau,
    Stab(tau)-orbit of y), y Gamma-equivalent to F (`FlagSimplex`).  The
    group is of level 1, where P(Z) is transitive on Omega: every flag of
    F's type is Gamma-equivalent to F, so the orbits are those of the
    flags of flats of that type, and the witness of an orbit's root is
    found only when an element of its simplices is first read.  Flags
    are numbered flags of flats, which a stabilizer moves by its
    permutation of the flat numbers (`cells._FlatTable`).  Face i of (tau,
    y) is (tau', e.y) for W's face tau' of tau and e carrying the face
    onto it, with W's sign, e.y read through the face's map of flat
    numbers (`_face_flats`); a deletion map drops member i of y,
    and the inclusion into W forgets y.  Stabilizers and elements are
    those of the chains g.tau, so `CosetLift` lifts the quotients over
    Omega.  Checked: every face and image keeps its flag type, and each
    W_F's orbifold Euler characteristic is 0 (Gauss-Bonnet); D^2 = 0 of
    the double complex certifies the boundaries and the maps."""

    def __init__(self, w_qc: QuotientComplex):
        self.w_qc = w_qc
        self.complex = w_qc._index().complex
        if self.complex.group.is_congruence or \
                self.complex.constraint is not None:
            raise IncompatibleComplexes("the flag lift reads W mod a group "
                                        "of level 1")
        self.quotients: dict[tuple[int, ...], QuotientComplex] = {}
        self.flat_maps = [[self._face_flats(q, t) for t in range(len(level))]
                          for q, level in enumerate(w_qc.located_faces)]

    def _face_flats(self, q: int, t: int) -> list:
        """Per face i of W's simplex t of dimension q, the map of the flat
        numbers of its top cell sigma onto those of the face's top cell,
        which carries a numbered flag of sigma onto the face.  A face
        that keeps sigma, i < q, is located by an element of Stab(sigma),
        which maps the numbers by its permutation of them; the last face
        has another top cell sigma', and its element maps sigma's flats
        by the positions of their vectors' images in sigma'
        (`_CarriedFlats`)."""
        w_qc, index = self.w_qc, self.complex.index
        oid = w_qc.simplices[q][t].top_orbit
        table = index.flats(oid)
        maps: list = []
        for i, (f, e) in enumerate(w_qc.located_faces[q][t]):
            if i < q:
                maps.append(table.perms[e])
            else:
                top = w_qc.simplices[q - 1][f].top_orbit
                maps.append(_CarriedFlats(_positions(
                    e, self.complex.cells[oid].cell.config,
                    self.complex.cells[top].cell.config), table,
                    index.flats(top)))
        return maps

    def _roots(self, decoration: _FlagDecoration, oid: int) -> dict:
        """The flags of flats y of F's type of representative oid, as y ->
        (w, s): y = s.x for the root x of its Stab(sigma)-orbit, which w()
        carries onto F."""
        stabilizer = self.complex.stabilizers[oid]
        act = decoration.action(oid, stabilizer)
        out: dict = {}
        for x in decoration.points(oid):
            if x not in out:
                witness = partial(decoration.witness, oid, x)
                for s, image in zip(stabilizer, act(x)):
                    out.setdefault(image, (witness, s))
        return out

    def quotient(self, flag: RationalFlag) -> QuotientComplex:
        """W_F mod Gamma_F for the flag F, lifted from W mod Gamma."""
        w_qc, dims = self.w_qc, flag.dims
        decoration = _FlagDecoration(self.complex, flag)
        roots: dict[int, dict] = {}
        simplices, owners, labels = [], [], []
        # Gauss-Bonnet: the sum of (-1)^q / |fixing|, as (-1)^q by |fixing|
        euler: Counter[int] = Counter()
        for q, level in enumerate(w_qc.simplices):
            simplices.append([])
            owners.append([])
            labels.append([])
            for t, (tau, stabilizer) in enumerate(zip(level,
                                                      w_qc.stabilizers[q])):
                oid = tau.top_orbit
                if oid not in roots:
                    roots[oid] = self._roots(decoration, oid)
                act = decoration.action(oid, stabilizer)
                label: dict = {}
                for y, root in roots[oid].items():
                    if y not in label:
                        images = act(y)
                        for r, image in zip(stabilizer, images):
                            label.setdefault(image, (len(simplices[q]), r))
                        fixing = tuple(r for r, image in zip(stabilizer, images)
                                       if image == y)
                        euler[len(fixing)] += (-1) ** q
                        simplices[q].append(FlagSimplex(tau, y, root, fixing))
                        owners[q].append(t)
                labels[q].append(label)
        total = sum(Fraction(c, k) for k, c in euler.items())
        if total:
            raise CertificateError(f"Gauss-Bonnet sum {total} != 0")
        boundaries: list[SparseRows] = [()]
        raw = [tuple(() for _ in simplices[0])]
        for q in range(1, len(simplices)):
            rows: list[dict[int, int]] = [{} for _ in simplices[q - 1]]
            located = []
            for j, (s, t) in enumerate(zip(simplices[q], owners[q])):
                located.append([])
                for i, ((f, e), flats) in enumerate(zip(
                        w_qc.located_faces[q][t], self.flat_maps[q][t])):
                    hit = labels[q - 1][f].get(
                        tuple(map(flats.__getitem__, s.flag)))
                    if hit is None:
                        raise CertificateError("a face leaves its flag type")
                    rows[hit[0]][j] = rows[hit[0]].get(j, 0) + (-1) ** i
                    located[-1].append(hit + (e,))
            raw.append(located)
            boundaries.append(tuple(tuple((j, x) for j, x in row.items() if x)
                                    for row in rows))
        simplices = tuple(map(tuple, simplices))
        qc = self.quotients[dims] = QuotientComplex(
            w_qc.group, flag, simplices, tuple(boundaries),
            _FlagChains(simplices, owners, labels, raw))
        return qc

    def deletion(self, dims: tuple[int, ...], i: int) -> ChainMap:
        """The chain map of the lifted W_F of type dims into that of the
        type without member i, or into W if none is left: (tau, y) goes to
        (tau, y without member i)."""
        source = self.quotients[dims]
        short = dims[:i] + dims[i + 1:]
        target = self.quotients[short] if short else self.w_qc
        mats, hits = [], []
        for q, level in enumerate(source.simplices):
            hits.append([target.chains.labels[q][t].get(s.flag[:i] +
                                                        s.flag[i + 1:])
                         if short else (t, None)
                         for s, t in zip(level, source.chains.owners[q])])
            if None in hits[q]:
                raise CertificateError("a chain map leaves its flag type")
            rows: list[list[tuple[int, int]]] = \
                [[] for _ in target.simplices[q]]
            for j, (idx, _) in enumerate(hits[q]):
                rows[idx].append((j, 1))
            mats.append(tuple(map(tuple, rows)))

        def carry(k: int, j: int) -> IntMatrix:
            s, (idx, r) = source.simplices[k][j], hits[k][j]
            return _carried(target.simplices[k][idx], r, int_identity(
                len(r)), s) if short else s.inverse

        return ChainMap(source, target, tuple(mats), carry)


# ---------------------------------------------------------------------------
# Quotients by a congruence group, lifted from level 1
# ---------------------------------------------------------------------------

class CosetLift:
    """The quotients of level-1 complexes by a subgroup Gamma of finite
    index, and the chain maps between them, read off level 1 and the
    coset space Omega = Gamma \\ SL_n(Z) alone: the level-1 chains with
    coefficients in Z[Omega] (Shapiro's lemma on the chains; Brown,
    Cohomology of Groups, III.5).

    A simplex of the subdivision is g.tau for a level-1 representative
    chain tau, and lies over the point w0 . g; g.tau and g'.tau are
    Gamma-equivalent exactly when w0 . g' lies in (w0 . g) . S, S the
    stabilizer of tau (`QuotientComplex.stabilizers`).  So the simplex
    orbits of Gamma are the pairs of tau and an S-orbit on Omega, listed
    as (tau, w), w the orbit's first point, tau by tau.  A face (or an
    image) of tau that e carries onto the representative tau' is
    e^-1.tau' (`QuotientComplex.carry`), so that of (tau, w) is the orbit
    of (tau', w . e^-1), with the level-1 sign.  The level-1 complex of a
    flag type, W_F mod P(Z) for the standard flag F, lifts to the flag
    subcomplexes of all the flags of that type at once: the points of one
    P(Z)-orbit on Omega, a part, give the summand of that orbit's flag,
    and faces and images of flag subcomplexes stay in their part
    (checked).  The orbit counts are checked by Gauss-Bonnet: each part's
    orbifold Euler characteristic, the sum of (-1)^q |orbit| / |S|, is
    that of the group for W and 0 for a W_F."""

    def __init__(self, omega):
        self.omega = omega
        self.points = tuple(omega.transversal)
        self.index = {w: i for i, w in enumerate(self.points)}
        self._table = omega.tables(self.points)
        self._moves: dict[IntMatrix, list[int]] = {}
        # per lifted level-1 complex: (labels, parts, generators, quotients)
        self._lifts: dict = {}

    def _move(self, e: IntMatrix) -> list[int]:
        """The permutation w -> w . e^-1 of the points, by index, made
        once per element and lift."""
        perm = self._moves.get(e)
        if perm is None:
            perm = self._moves[e] = self._table(int_inverse(e))
        return perm

    @staticmethod
    def _orbits(moves: Sequence[list[int]]) -> list[tuple[int, set[int]]]:
        """The orbits of the points under a group given by its
        permutations, each as (first point, orbit), by first point."""
        seen = [False] * len(moves[0])
        out = []
        for w, done in enumerate(seen):
            if not done:
                orbit = {move[w] for move in moves}
                for v in orbit:
                    seen[v] = True
                out.append((w, orbit))
        return out

    def quotients(self, key, qc: QuotientComplex, group: GroupSpec,
                  flags: Sequence[Optional[RationalFlag]] = (None,),
                  parts: Optional[Sequence[int]] = None
                  ) -> list[QuotientComplex]:
        """The quotients by the group lifted from the level-1 quotient qc,
        one per part, filed under key: part s is constrained by flags[s],
        and point i lies in part parts[i] (all in part 0 by default).  A
        simplex is listed as (level-1 simplex orbit, point).  Each
        stabilizer element and each located face moves the points once."""
        if len(self.points) == 1:   # level 1: the lift is the identity
            out = [QuotientComplex(group, flags[0], tuple(
                tuple((s, self.points[0]) for s in level)
                for level in qc.simplices), qc.boundaries)]
            self._lifts[key] = (None, [0], None, out)
            return out
        parts = parts or [0] * len(self.points)
        generators = [[[] for _ in qc.simplices] for _ in flags]
        # Gauss-Bonnet per part: the sum of (-1)^q |orbit| / |S|, as the
        # signed orbit sizes summed per stabilizer order |S|
        euler: list[Counter[int]] = [Counter() for _ in flags]
        labels = []
        for q, level in enumerate(qc.stabilizers):
            per_simplex = []
            for t, stabilizer in enumerate(level):
                label = [-1] * len(self.points)
                for w, orbit in self._orbits(list(map(self._move,
                                                      stabilizer))):
                    part = parts[w]
                    listed = generators[part][q]
                    for v in orbit:
                        label[v] = len(listed)
                    listed.append((t, w))
                    euler[part][len(stabilizer)] += (-1) ** q * len(orbit)
                per_simplex.append(label)
            labels.append(per_simplex)
        for flag, counts in zip(flags, euler):
            want = group_euler_characteristic(group) if flag is None \
                else Fraction(0)
            total = sum((Fraction(c, k) for k, c in counts.items()),
                        Fraction(0))
            if total != want:
                raise CertificateError(f"Gauss-Bonnet sum {total} != {want}")
        faces = qc.located_faces
        # per level-1 simplex, its faces' (sign, move, labels), read once
        moved: list[dict[int, list]] = [{} for _ in qc.simplices]
        out = []
        for s, flag in enumerate(flags):
            boundaries: list[SparseRows] = [()]
            for q in range(1, len(qc.simplices)):
                rows: list[dict[int, int]] = [{} for _ in generators[s][q - 1]]
                read = moved[q]
                for j, (t, w) in enumerate(generators[s][q]):
                    if t not in read:
                        read[t] = [((-1) ** i, self._move(e), labels[q - 1][f])
                                   for i, (f, e) in enumerate(faces[q][t])]
                    for sign, move, label in read[t]:
                        v = move[w]
                        if parts[v] != s:
                            raise CertificateError(
                                "a face leaves its flag subcomplex")
                        row = rows[label[v]]
                        row[j] = row.get(j, 0) + sign
                boundaries.append(tuple([tuple([(j, x) for j, x in row.items()
                                                if x]) for row in rows]))
            simplices = tuple(tuple((qc.simplices[q][t], self.points[w])
                                    for t, w in level)
                              for q, level in enumerate(generators[s]))
            out.append(QuotientComplex(group, flag, simplices,
                                       tuple(boundaries)))
        self._lifts[key] = (labels, parts, generators, out)
        return out

    def chain_map(self, cm: ChainMap, source, part: int,
                  target) -> tuple[int, ChainMap]:
        """(b, lifted): the level-1 chain map cm lifted to part `part` of
        the lift filed under source, into part b of the lift filed under
        target, the part of its first vertex's image."""
        _, _, generators, sources = self._lifts[source]
        labels, parts, _, targets = self._lifts[target]
        if len(self.points) == 1:
            return 0, ChainMap(sources[0], targets[0], cm.matrices)
        generators = generators[part]
        b = parts[self._move(cm.elements[0][generators[0][0][0]])
                  [generators[0][0][1]]]
        mats = []
        for k, m in enumerate(cm.matrices):
            image = {j: (r, x) for r, row in enumerate(m) for j, x in row}
            rows: list[list[tuple[int, int]]] = \
                [[] for _ in targets[b].simplices[k]]
            moves: dict[int, list[int]] = {}   # per level-1 simplex, once
            for j, (t, w) in enumerate(generators[k]):
                r, x = image[t]
                if t not in moves:
                    moves[t] = self._move(cm.elements[k][t])
                v = moves[t][w]
                if parts[v] != b:
                    raise CertificateError(
                        "a chain map leaves its flag subcomplex")
                rows[labels[k][r][v]].append((j, x))
            mats.append(tuple(map(tuple, rows)))
        return b, ChainMap(sources[part], targets[b], tuple(mats))
