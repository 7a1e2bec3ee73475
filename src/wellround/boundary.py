"""Boundary cohomology via the double complex of flag subcomplexes.

Column p collects the simplicial cochains of the quotients of the flag
subcomplexes W_F for flags with p+2 members (the full space included);
vertical differentials are signed coboundaries, horizontal ones are
Cech-signed restrictions to the subcomplexes of the one-member
deletions.  The total complex computes the
cohomology of the boundary of the bordified quotient.  With the cochains
of the whole retract quotient as column -1, joined to column 0 by the
inclusions, the augmented double complex is the mapping cone of the
restriction into the total complex; it is laid out, assembled and
certified (D^2 = 0) once.  At level 1, W is walked and subdivided once,
and the quotients of the flag subcomplexes and their chain maps are
lifted off W's simplex orbits (`quotient.FlagLift`); every block of a
congruence group Gamma is then lifted from level 1 through the coset
space Omega = Gamma \\ SL_n(Z) (`quotient.CosetLift`).  Over a field
every answer (spectral pages,
betti numbers, restriction and face-map ranks) is read off one
persistence pairing (`exactla.f_pairs`) of it or of the total complex,
its prefix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .cells import OrbitComplex, enumerate_W
from .exactla import (
    QQ, CertificateError, SparseRows, f_pairs, sparse_matmul,
    sparse_transpose,
)
from .flags import (
    Point, RationalFlag, adapted_basis, check_dimension, coset_space,
    flag_orbits, flag_types, standard_flag,
)
from .lattice import GroupSpec
from .quotient import (
    ChainMap, CosetLift, FlagLift, QuotientComplex, barycentric_quotient,
    betti_at, parse_coeff,
)


@dataclass(frozen=True)
class Summand:
    flag: RationalFlag
    point: Point         # the root of the flag's P(Z)-orbit on Omega
    qc: QuotientComplex


@dataclass(frozen=True)
class HorizontalPiece:
    source: int          # summand index in column p
    target: int          # summand index in column p+1
    sign: int
    chain_map: ChainMap  # chains of the target's subcomplex into the source's


@dataclass(frozen=True)
class DoubleComplex:
    """The augmented double complex, laid out and assembled once.

    Column -1 is C*(W/Gamma), its one summand w_qc, joined to column 0 by
    the inclusions; columns p >= 0 are Tot.  Total degree k of Tot lists
    the blocks (p, s, q) with p + q = k, by column p and then by summand
    s; block (p, s, q) holds the q-cochains of summand s of column p from
    coordinate offsets[p, s, q] on.  generators lists every generator as
    (column p, total degree k, coordinate) in cone order, and cone[g] is
    its column: the entries (generator, value) of its image under D
    (`_layout`).  Tot is the prefix of the first sum(dims) generators.
    w_complex is W mod the level-1 group that the quotients are lifted
    from."""

    group: GroupSpec
    columns: tuple[tuple[Summand, ...], ...]
    pieces: tuple[tuple[HorizontalPiece, ...], ...]  # per column p: maps p -> p+1
    w_complex: OrbitComplex
    w_qc: QuotientComplex
    inclusions: tuple[ChainMap, ...]  # column-0 summands into W/Gamma
    offsets: dict[tuple[int, int, int], int]
    dims: tuple[int, ...]
    generators: tuple[tuple[int, int, int], ...]
    cone: SparseRows

    @property
    def num_columns(self) -> int:
        return len(self.columns)


class _LevelOne(NamedTuple):
    """The level-1 double complex: W mod the level-1 group, the quotients
    of W (type None) and of the flag subcomplex of the standard flag of
    every type (by its P(Z)), and per type the chain maps out of it, one
    per member deleted, as (deleted type, sign, chain map).  Deleting the
    only member of a flag gives W, along the inclusion with sign +1.  The
    flag quotients and the maps are lifted off W's (`FlagLift`)."""

    w_complex: OrbitComplex
    quotients: dict[Optional[tuple[int, ...]], QuotientComplex]
    deletions: dict[tuple[int, ...], tuple[tuple[Optional[tuple[int, ...]],
                                                 int, ChainMap], ...]]


def _level_group(group: GroupSpec) -> GroupSpec:
    """GL_n(Z) for a group of the gl family, SL_n(Z) for every other."""
    return GroupSpec(group.n, "gl" if group.family == "gl" else "sl")


@lru_cache(maxsize=4)
def _level_one(group: GroupSpec, variant: int) -> _LevelOne:
    """The level-1 double complex of a level-1 group, kept for the few
    used last.  At level 1 every deletion of a standard flag is the
    standard flag of the smaller type, so no chain map is twisted."""
    n = group.n
    w_complex = enumerate_W(group, variant=variant)
    lift = FlagLift(barycentric_quotient(w_complex))
    quotients = {None: lift.w_qc}
    for p in range(n - 1):
        for dims in flag_types(n, p + 2):
            quotients[dims] = lift.quotient(standard_flag(n, dims))
    deletions = {dims: tuple((dims[:i] + dims[i + 1:] or None,
                              -1 if i % 2 else 1, lift.deletion(dims, i))
                             for i in range(len(dims)))
                 for dims in quotients if dims is not None}
    return _LevelOne(w_complex, quotients, deletions)


def build_double_complex(group: GroupSpec, variant: int = 0) -> DoubleComplex:
    """Assemble the flag-subcomplex double complex for the group.

    Every quotient and chain map is lifted from the level-1 double
    complex, built once (`_level_one`), through the coset space Omega
    (`quotient.CosetLift`); a level-1 group is the case of one point.
    Column p holds one summand per orbit of flags with p+1 proper
    members, in the order of `flag_orbits`: per type, the P(Z)-orbits on
    Omega.  The piece out of a summand's deletion goes to the summand of
    the deleted type whose orbit holds the same points, with the sign
    (-1)^i of the deleted member i; for column 0, to W/Gamma in column -1.
    `variant` reseeds the enumeration of W at level 1.
    """
    n = group.n
    level = _level_one(_level_group(group), variant)
    omega = coset_space(group)
    lift = CosetLift(omega)
    (w_qc,) = lift.quotients(None, level.quotients[None], group)
    starts: dict[Optional[tuple[int, ...]], int] = {None: 0}
    columns: list[tuple[Summand, ...]] = []
    pieces: list[tuple[HorizontalPiece, ...]] = []  # pieces[p + 1] out of p
    for p in range(n - 1):
        summands: list[Summand] = []
        into: list[HorizontalPiece] = []
        for dims in flag_types(n, p + 2):
            orbits = flag_orbits(group, dims)
            _, orbit, _ = omega.parabolic_orbits(dims)
            part = {orbit[w]: s for s, w in enumerate(orbits.roots)}
            qcs = lift.quotients(dims, level.quotients[dims], group,
                                 orbits.reps, [part[orbit[w]]
                                               for w in lift.points])
            starts[dims] = len(summands)
            for s, summand in enumerate(map(Summand, orbits.reps,
                                            orbits.roots, qcs)):
                for deleted, sign, cm in level.deletions[dims]:
                    b, lifted = lift.chain_map(cm, dims, s, deleted)
                    into.append(HorizontalPiece(starts[deleted] + b,
                                                len(summands), sign, lifted))
                summands.append(summand)
        columns.append(tuple(summands))
        pieces.append(tuple(into))
    pieces.append(())
    layout = _layout([(w_qc,)] + [tuple(s.qc for s in col) for col in columns],
                     pieces)
    return DoubleComplex(group, tuple(columns), tuple(pieces[1:]),
                         level.w_complex, w_qc,
                         tuple(piece.chain_map for piece in pieces[0]),
                         *layout)


# ---------------------------------------------------------------------------
# The augmented double complex
# ---------------------------------------------------------------------------

def _including(inclusions: Sequence[ChainMap]) -> tuple[HorizontalPiece, ...]:
    """The horizontal pieces from column -1, its one summand, into the
    column-0 summands, each along its inclusion with sign +1."""
    return tuple(HorizontalPiece(0, s, 1, cm) for s, cm in enumerate(inclusions))


def _layout(columns: Sequence[Sequence[QuotientComplex]],
            pieces: Sequence[Sequence[HorizontalPiece]]):
    """(offsets, dims, generators, cone) of the augmented double complex
    with the quotients columns[p + 1] in column p, from p = -1 on, and
    the horizontal pieces pieces[p + 1] out of column p.

    offsets and dims lay out Tot, the columns p >= 0 (see `DoubleComplex`),
    up to the first degree above the top, which is 0; column -1 has one
    summand, coordinate i its i-th simplex.  The generators (p, k,
    coordinate), k = p + q, run in cone order: columns descending, then
    degree descending, then summand, then coordinate, so Tot and every
    F^p are prefixes and every prefix is a subcomplex.  The column of a
    q-cochain i of summand s of column p is read off rows i of its
    boundary and of its chain maps: (-1)^p times its coboundary (so -δ in
    column -1), plus each piece out of s, signed, restricting it to the
    piece's target.  Every block a column hits comes before it, and
    D^2 = 0 is checked over the whole complex: for column -1 that says
    the restriction into Tot is a cochain map, D∘R = R∘δ."""
    top = len(columns) - 2 + max((qc.dim for col in columns[1:] for qc in col),
                                 default=0)
    offsets: dict[tuple[int, int, int], int] = {}
    dims = []
    for k in range(top + 2):
        size = 0
        for p, column in enumerate(columns[1:]):
            for s, qc in enumerate(column):
                if 0 <= k - p <= qc.dim:
                    offsets[p, s, k - p] = size
                    size += len(qc.simplices[k - p])
        dims.append(size)
    start: dict[tuple[int, int, int], int] = {}
    generators: list[tuple[int, int, int]] = []
    cone: list[tuple[tuple[int, int], ...]] = []
    for p in reversed(range(-1, len(columns) - 1)):
        sign = -1 if p % 2 else 1
        for q in reversed(range(max((qc.dim for qc in columns[p + 1]),
                                    default=-1) + 1)):
            for s, qc in enumerate(columns[p + 1]):
                if q > qc.dim:
                    continue
                start[p, s, q] = len(generators)
                off = offsets.get((p, s, q), 0)
                maps = [(piece.sign, start[p + 1, piece.target, q],
                         piece.chain_map.matrix(q))
                        for piece in pieces[p + 1] if piece.source == s
                        and (p + 1, piece.target, q) in start]
                up = start.get((p, s, q + 1))
                for i in range(len(qc.simplices[q])):
                    generators.append((p, p + q, off + i))
                    col: dict[int, int] = {}
                    if up is not None:
                        for j, x in qc.boundaries[q + 1][i]:
                            col[up + j] = sign * x
                    for y, row0, m in maps:
                        for j, x in m[i]:
                            col[row0 + j] = col.get(row0 + j, 0) + y * x
                    cone.append(tuple(sorted((r, x) for r, x in col.items() if x)))
    cone = tuple(cone)
    _check_total_differential_squares_to_zero(cone)
    return offsets, tuple(dims), tuple(generators), cone


def _check_total_differential_squares_to_zero(cone: SparseRows):
    # row g of cone·cone, the columns read as rows, is the column D(Dg)
    if any(sparse_matmul(cone, cone)):
        raise CertificateError("total differential fails D*D=0")


def total_dims(dc: DoubleComplex) -> list[int]:
    """The dimension of every total degree; the last one, above the top,
    is 0."""
    return list(dc.dims)


def _tot_columns(dc: DoubleComplex) -> list[list[tuple[tuple[int, int], ...]]]:
    """Per total degree k of Tot, the columns of D^k by coordinate, their
    rows the coordinates of degree k + 1."""
    cols = [[()] * d for d in dc.dims]
    gens = dc.generators
    for (p, k, c), col in zip(gens, dc.cone):
        if p >= 0:
            cols[k][c] = tuple((gens[r][2], x) for r, x in col)
    return cols


def total_differential(dc: DoubleComplex, k: int) -> SparseRows:
    """D = vertical + horizontal from total degree k to k+1, as sparse
    rows of width dims[k], transposed from the stored columns; no rows
    outside the degrees of the complex."""
    if not 0 <= k < len(dc.dims) - 1:
        return ()
    return sparse_transpose(_tot_columns(dc)[k], dc.dims[k + 1])


def _field(coeff, job: str):
    field = parse_coeff(coeff)
    if field == "Z":
        raise ValueError(f"{job} need field coefficients")
    return field


def _pairs(field, generators, cone) -> dict[int, int]:
    """The persistence pairs of a prefix of an augmented complex, cleared
    by total degree (`exactla.f_pairs`)."""
    return f_pairs(field, cone, [k for _, k, _ in generators])


def _tot_pairs(dc: DoubleComplex, field):
    """(labels, pairs): Tot's generators and the pairs of its reduction."""
    n = sum(dc.dims)
    labels = dc.generators[:n]
    return labels, _pairs(field, labels, dc.cone[:n])


def _betti(labels, pairs, retract: bool) -> Counter:
    """dim H^q per degree q of Tot, or with `retract` of column -1 in its
    own degrees q = k + 1: the generators of that part in no pair within
    the part."""
    paired = {i for low, col in pairs.items()
              if (labels[low][0] < 0) == (labels[col][0] < 0) for i in (low, col)}
    return Counter(k - min(p, 0) for i, (p, k, _) in enumerate(labels)
                   if (p < 0) == retract and i not in paired)


def _ranks(labels, pairs) -> Counter:
    """The rank of the restriction in cohomology, per degree: the pairs
    from a column -1 generator into Tot, each a class of Tot that the
    restriction hits, in the degree of its lowest row."""
    return Counter(labels[low][1] for low, col in pairs.items()
                   if labels[col][0] < 0 <= labels[low][0])


def total_cohomology(dc: DoubleComplex, coeff="Q"):
    """Cohomology of the total complex: over a field the dimensions, read
    off the reduction of Tot; over Z also the torsion (the Smith
    invariants of `exactla.snf`), from the columns of D^k and D^{k-1}:
    neither the rank nor the Smith invariants change under transposition."""
    coeff = parse_coeff(coeff)
    if coeff == "Z":
        cols = _tot_columns(dc)
        degrees = [betti_at(coeff, cols[k], cols[k - 1] if k else (), dc.dims[k])
                   for k in range(len(dc.dims) - 1)]
    else:
        betti = _betti(*_tot_pairs(dc, coeff), False)
        degrees = [(betti[k], ()) for k in range(len(dc.dims) - 1)]
    out = [{"degree": k, "betti": betti, "torsion": torsion}
           for k, (betti, torsion) in enumerate(degrees)]
    while out and out[-1]["betti"] == 0 and not out[-1]["torsion"]:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# Spectral sequence of the column filtration (field coefficients)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralPage:
    r: int
    entries: dict
    differentials: dict  # (p, q) -> d_r out of E_r^{p,q}, pairing basis

    def dim(self, p: int, q: int) -> int:
        return self.entries.get((p, q), 0)


def spectral_sequence(dc: DoubleComplex, coeff="Q", r_stop: Optional[int] = None):
    """Pages E_1, E_2, ... of the column filtration, with differentials,
    until stabilization; returns (pages, abutment dims per degree).

    Read off the reduction of Tot (Basu and Parida, "Spectral sequences,
    exact couples and persistent homology of filtrations", 2017): a pair
    across a column gap g lies on E_1, ..., E_g and is one rank of d_g,
    from its column to its lowest row; an unpaired generator lies on
    every page.  On the basis of its generators in cone order, each d_r
    is a 0/1 partial identity."""
    field = _field(coeff, "spectral pages")
    labels, pairs = _tot_pairs(dc, field)
    gap = {i: labels[low][0] - labels[col][0]
           for low, col in pairs.items() for i in (low, col)}
    partner = {col: low for low, col in pairs.items()}
    pages = []
    for r in range(1, (dc.num_columns + 1 if r_stop is None else r_stop) + 1):
        basis: dict[tuple[int, int], list[int]] = {}
        for i, (p, k, _) in enumerate(labels):
            if gap.get(i, r) >= r:
                basis.setdefault((p, k - p), []).append(i)
        diffs = {(p, q): tuple(tuple(int(partner.get(j) == i) for j in src)
                               for i in basis[p + r, q - r + 1])
                 for (p, q), src in basis.items() if (p + r, q - r + 1) in basis}
        pages.append(SpectralPage(r, dict(sorted((pq, len(v)) for pq, v
                                                 in basis.items())), diffs))
    betti = _betti(labels, pairs, False)
    return pages, [betti[k] for k in range(max(betti, default=-1) + 1)]


def e1_page(dc: DoubleComplex, coeff="Q") -> SpectralPage:
    return spectral_sequence(dc, coeff, r_stop=1)[0][0]


# ---------------------------------------------------------------------------
# Restriction map and its homology dual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictionDegree:
    degree: int
    dim_retract: int      # dim H^q(W/Gamma)
    dim_total: int        # dim H^q of the total complex
    rank: int             # rank of the restriction on cohomology
    interior: int         # kernel dimension


@dataclass(frozen=True)
class RestrictionReport:
    coeff: str
    degrees: tuple[RestrictionDegree, ...]

    def homology(self) -> BoundaryHomologyReport:
        """The `boundary_homology` report of the same cone: these degrees,
        trailing empty ones dropped (the adjoint map has equal rank)."""
        degrees = [BoundaryHomologyDegree(d.degree, d.dim_total,
                                          d.dim_retract, d.rank)
                   for d in self.degrees]
        while degrees and degrees[-1].dim_boundary == 0 \
                and degrees[-1].dim_retract == 0:
            degrees.pop()
        return BoundaryHomologyReport(self.coeff, tuple(degrees))


def restriction(dc: DoubleComplex, coeff="Q") -> RestrictionReport:
    """Cochain-level restriction from the retract quotient into column 0,
    composed into total cohomology; ranks and interior dimensions, read
    off the reduction of the whole augmented complex, its mapping cone."""
    field = _field(coeff, "restriction ranks")
    pairs = _pairs(field, dc.generators, dc.cone)
    total = _betti(dc.generators, pairs, False)
    retract = _betti(dc.generators, pairs, True)
    ranks = _ranks(dc.generators, pairs)
    degrees = [RestrictionDegree(q, retract[q], total[q], ranks[q],
                                 retract[q] - ranks[q])
               for q in range(max(dc.w_qc.dim, len(dc.dims) - 2) + 1)]
    if field == QQ and dc.group.family != "gl":
        _check_boundary_duality(dc.group.n, degrees)
    if field == QQ and dc.group.is_congruence:
        _check_transfer(degrees, _level_one_restriction(_level_group(dc.group)))
    return RestrictionReport(field.name, tuple(degrees))


@lru_cache(maxsize=4)
def _level_one_restriction(group: GroupSpec) -> tuple[RestrictionDegree, ...]:
    return restriction(build_double_complex(group), QQ).degrees


def _check_transfer(degrees: Sequence[RestrictionDegree],
                    level_one: Sequence[RestrictionDegree]):
    """The transfer certificate: over Q, Q[Omega] holds the trivial module
    as a direct summand, so in every degree H^q(W/Gamma), H^q(Tot), the
    restriction's rank and the interior are at least those of level 1."""
    for got, least in zip(degrees, level_one):
        if any(x < y for x, y in zip(
                (got.dim_retract, got.dim_total, got.rank, got.interior),
                (least.dim_retract, least.dim_total, least.rank,
                 least.interior))):
            raise CertificateError(
                f"transfer certificate fails in degree {got.degree}: "
                f"{got} below level 1's {least}")


def _check_boundary_duality(n: int, degrees: Sequence[RestrictionDegree]):
    """Over Q and for Gamma in SL_n(Z), the Borel-Serre boundary is an
    orientable orbifold of dimension d - 1, d = n(n+1)/2 - 1 the dimension
    of the symmetric space: dim H^k(boundary) = dim H^{d-1-k}(boundary),
    and the image of the restriction is half of H^*(boundary)."""
    d = n * (n + 1) // 2 - 1
    dims = [deg.dim_total for deg in degrees] + [0] * d
    ranks = sum(deg.rank for deg in degrees)
    if any(dims[d:]) or dims[:d] != dims[d - 1::-1] or 2 * ranks != sum(dims):
        raise CertificateError(f"boundary cohomology {dims[:d]} and "
                               f"restriction rank {ranks} break duality")


@dataclass(frozen=True)
class BoundaryHomologyDegree:
    degree: int
    dim_boundary: int     # dim H_q of the total chain complex
    dim_retract: int      # dim H_q(W/Gamma)
    rank: int             # rank of the inclusion-induced map


@dataclass(frozen=True)
class BoundaryHomologyReport:
    coeff: str
    degrees: tuple[BoundaryHomologyDegree, ...]


def boundary_homology(dc: DoubleComplex, coeff="Q") -> BoundaryHomologyReport:
    """Homology of the dual total complex and the rank of its map into
    the homology of the retract quotient: the `restriction` report read
    in homology (`RestrictionReport.homology`)."""
    return restriction(dc, coeff).homology()


# ---------------------------------------------------------------------------
# Single-face maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceMapReport:
    flag: RationalFlag
    coeff: str
    homology_ranks: tuple[int, ...]     # H_q(W_F/..) -> H_q(W/Gamma)
    cohomology_ranks: tuple[int, ...]   # H^q(W/Gamma) -> H^q(W_F/..)
    matrices: tuple[SparseRows, ...]    # chain-level inclusion per degree


def face_map(dc: DoubleComplex, flag: RationalFlag,
             coeff="Q") -> FaceMapReport:
    """Maps induced by one flag subcomplex inclusion: ranks read off the
    cone of C*(W/Gamma) -> C*(W_F/Gamma_F), the augmented complex of W/Gamma
    in column -1 and W_F/Gamma_F alone in column 0; equal in homology.
    The summand is found by one lookup in Omega: the flag's orbit is the
    P(Z)-orbit of w0 . b, b an adapted basis (as in `flag_equivalent`)."""
    field = _field(coeff, "face maps")
    check_dimension(flag, dc.group)
    omega = coset_space(dc.group)
    roots, orbit, _ = omega.parabolic_orbits(flag.dims)
    root = roots[orbit[omega.point(adapted_basis(flag))]]
    hit = next((i for i, s in enumerate(dc.columns[0])
                if s.flag.dims == flag.dims and s.point == root), None)
    if hit is None:
        raise ValueError("flag is not equivalent to a column-0 representative")
    summand = dc.columns[0][hit]
    cm = dc.inclusions[hit]
    w = dc.w_qc
    _, _, generators, cone = _layout([(w,), (summand.qc,)],
                                     [_including([cm]), ()])
    ranks = _ranks(generators, _pairs(field, generators, cone))
    hom_ranks = tuple(ranks[q] for q in range(w.dim + 1))
    return FaceMapReport(summand.flag, field.name, hom_ranks, hom_ranks,
                         tuple(cm.matrix(q) for q in range(w.dim + 1)))
