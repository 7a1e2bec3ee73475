"""Boundary cohomology via the double complex of flag subcomplexes.

Column p collects the simplicial cochains of the quotients of the flag
subcomplexes W_F for flags with p+2 members (the full space included);
vertical differentials are signed coboundaries, horizontal ones are
Cech-signed restrictions twisted by group elements carrying a deleted
flag onto its orbit representative.  The total complex computes the
cohomology of the boundary of the bordified quotient; the restriction
map from the cohomology of the whole retract quotient is realized at the
cochain level.  Over a field every answer (spectral pages, betti
numbers, restriction and face-map ranks) is read off one persistence
pairing (`exactla.f_pairs`) of a mapping cone of the restriction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .cells import OrbitComplex, enumerate_W, subcomplex_WF
from .exactla import (
    QQ, CertificateError, IntMatrix, SparseRows, f_pairs, sparse_matmul,
    sparse_transpose,
)
from .flags import (
    RationalFlag, check_dimension, flag_equivalent, flag_orbits, flag_types,
    subflags_with_signs,
)
from .lattice import GroupSpec
from .quotient import (
    ChainMap, QuotientComplex, barycentric_quotient, betti_at, induced_map,
    parse_coeff,
)


@dataclass(frozen=True)
class Summand:
    flag: RationalFlag
    complex: OrbitComplex
    qc: QuotientComplex


@dataclass(frozen=True)
class HorizontalPiece:
    source: int          # summand index in column p
    target: int          # summand index in column p+1
    sign: int
    chain_map: ChainMap  # chains of the target's subcomplex into the source's


@dataclass(frozen=True)
class DoubleComplex:
    """The double complex and its total complex, assembled once.

    Total degree k lists the blocks (p, s, q) with p + q = k, by column p
    and then by summand s; block (p, s, q) holds the q-cochains of summand
    s of column p from coordinate offsets[p, s, q] on.  differentials[k]
    is D^k from degree k to k + 1: dims[k + 1] sparse rows of width dims[k]."""

    group: GroupSpec
    columns: tuple[tuple[Summand, ...], ...]
    pieces: tuple[tuple[HorizontalPiece, ...], ...]  # per column p: maps p -> p+1
    w_complex: OrbitComplex
    w_qc: QuotientComplex
    inclusions: tuple[ChainMap, ...]  # column-0 summands into W/Gamma
    offsets: dict[tuple[int, int, int], int]
    dims: tuple[int, ...]
    differentials: tuple[SparseRows, ...]

    @property
    def num_columns(self) -> int:
        return len(self.columns)


def build_double_complex(group: GroupSpec, variant: int = 0) -> DoubleComplex:
    """Assemble the flag-subcomplex double complex for the group.

    Column p holds one summand per orbit of flags with p+1 proper
    members, its flag subcomplex derived from the orbit data of W
    (`subcomplex_WF`, no walk of its own); the horizontal maps pair each
    flag with its one-member deletions, located among the representatives
    by an exact equivalence search whose witness twists the restriction.
    `variant` reseeds the enumeration of W.
    """
    n = group.n
    w_complex = enumerate_W(group, variant=variant)
    w_qc = barycentric_quotient(w_complex)
    columns = []
    for p in range(n - 1):
        summands = []
        for dims in flag_types(n, p + 2):
            orbits = flag_orbits(group, dims)
            for flag in orbits.reps:
                sub = subcomplex_WF(w_complex, flag)
                summands.append(Summand(flag, sub, barycentric_quotient(sub)))
        columns.append(tuple(summands))
    pieces: list[tuple[HorizontalPiece, ...]] = []
    for p in range(len(columns) - 1):
        col_pieces = []
        for t_idx, tgt in enumerate(columns[p + 1]):
            for deleted, sign in subflags_with_signs(tgt.flag):
                hit = _locate_flag(columns[p], deleted, group)
                if hit is None:
                    raise CertificateError(
                        "deleted flag matches no representative")
                s_idx, witness = hit
                cm = induced_map(tgt.qc, columns[p][s_idx].qc, twist=witness)
                col_pieces.append(HorizontalPiece(s_idx, t_idx, sign, cm))
        pieces.append(tuple(col_pieces))
    pieces.append(())
    inclusions = tuple(induced_map(s.qc, w_qc) for s in columns[0])
    offsets, dims = _layout(columns)
    differentials = tuple(_assemble(columns, pieces, offsets, dims, k)
                          for k in range(len(dims) - 1))
    dc = DoubleComplex(group, tuple(columns), tuple(pieces), w_complex, w_qc,
                       inclusions, offsets, dims, differentials)
    _check_total_differential_squares_to_zero(dc)
    return dc


def _locate_flag(column: Sequence[Summand], flag: RationalFlag,
                 group: GroupSpec) -> Optional[tuple[int, IntMatrix]]:
    """The summand whose flag is equivalent to `flag` and a witness
    carrying `flag` onto it, or None."""
    for idx, s in enumerate(column):
        if s.flag.dims != flag.dims:
            continue
        w = flag_equivalent(flag, s.flag, group)
        if w is not None:
            return idx, w
    return None


# ---------------------------------------------------------------------------
# Total complex
# ---------------------------------------------------------------------------

def _layout(columns):
    """The first coordinate of every block (p, s, q) and the dimension of
    every total degree, up to the first degree above the top, which is 0."""
    top = len(columns) - 1 + max((s.qc.dim for col in columns for s in col),
                                 default=0)
    offsets: dict[tuple[int, int, int], int] = {}
    dims = []
    for k in range(top + 2):
        size = 0
        for p, column in enumerate(columns):
            for s, summand in enumerate(column):
                if 0 <= k - p <= summand.qc.dim:
                    offsets[p, s, k - p] = size
                    size += len(summand.qc.simplices[k - p])
        dims.append(size)
    return offsets, tuple(dims)


def _assemble(columns, pieces, offsets, dims, k: int) -> SparseRows:
    """D^k = vertical + horizontal, from total degree k to k + 1, as
    sparse rows.  Each block is a transposed integer matrix: the vertical
    block of a summand in column p is (-1)^p times its coboundary, the
    transposed boundary, and the horizontal block of a piece is its sign
    times its transposed chain map, which restricts cochains of the source
    to the target."""
    rows: list[dict[int, int]] = [{} for _ in range(dims[k + 1])]

    def add_transposed(row0: int, col0: int, sign: int, m: SparseRows):
        for j, entries in enumerate(m):
            for i, x in entries:
                row = rows[row0 + i]
                row[col0 + j] = row.get(col0 + j, 0) + sign * x

    for p, column in enumerate(columns):
        q = k - p
        for s, summand in enumerate(column):
            if 0 <= q < summand.qc.dim:
                add_transposed(offsets[p, s, q + 1], offsets[p, s, q],
                               -1 if p % 2 else 1, summand.qc.boundaries[q + 1])
        for piece in pieces[p]:
            if (p + 1, piece.target, q) in offsets:
                add_transposed(offsets[p + 1, piece.target, q],
                               offsets[p, piece.source, q], piece.sign,
                               piece.chain_map.matrix(q))
    return tuple(tuple(sorted((j, x) for j, x in r.items() if x)) for r in rows)


def total_dims(dc: DoubleComplex) -> list[int]:
    """The dimension of every total degree; the last one, above the top,
    is 0."""
    return list(dc.dims)


def total_differential(dc: DoubleComplex, k: int) -> SparseRows:
    """D = vertical + horizontal from total degree k to k+1, as sparse
    rows of width dims[k]; no rows outside the degrees of the complex."""
    return dc.differentials[k] if 0 <= k < len(dc.differentials) else ()


def _total_columns(dc: DoubleComplex, k: int) -> SparseRows:
    """The columns of D^k, as sparse rows of width dims[k + 1]."""
    if not 0 <= k < len(dc.differentials):
        return ()
    return sparse_transpose(dc.differentials[k], dc.dims[k])


def _check_total_differential_squares_to_zero(dc: DoubleComplex):
    for k in range(len(dc.differentials) - 1):
        if any(sparse_matmul(dc.differentials[k + 1], dc.differentials[k])):
            raise CertificateError("total differential fails D*D=0")


def _field(coeff, job: str):
    field = parse_coeff(coeff)
    if field == "Z":
        raise ValueError(f"{job} need field coefficients")
    return field


def _total_cochains(dc: DoubleComplex):
    """Tot's generators (column p, degree k, coordinate) in cone order, by
    column and then degree descending, so every prefix is a subcomplex
    and F^p a prefix; and per degree k the columns of D^k."""
    gens = [(p, k, dc.offsets[p, s, k - p] + i)
            for p in reversed(range(dc.num_columns))
            for k in reversed(range(len(dc.dims)))
            for s, summand in enumerate(dc.columns[p])
            if (p, s, k - p) in dc.offsets
            for i in range(len(summand.qc.simplices[k - p]))]
    return gens, [_total_columns(dc, k) for k in range(len(dc.dims))]


def _quotient_cochains(qc: QuotientComplex):
    """A quotient's cochains (0, k, i) in cone order, degree descending;
    the columns of its coboundary are the rows of its boundaries."""
    return ([(0, k, i) for k in reversed(range(qc.dim + 1))
             for i in range(len(qc.simplices[k]))],
            [qc.boundaries[k + 1] if k < qc.dim
             else ((),) * len(qc.simplices[k]) for k in range(qc.dim + 1)])


def _pair(field, target, source=None, maps: Sequence[SparseRows] = ()):
    """(labels, pairs): one `f_pairs` reduction and each generator's
    label (part, column p, degree k).  Reduced is the target (part 0)
    alone, or the mapping cone of the restriction R from the source
    (part 1) into it: the target's generators, then the source's, each
    source c of degree k with the column (-δc, R^k c), R^k c = maps[k][c].
    The target is a subcomplex, and the pairs inside the source are
    those of δ alone.  First D∘R = R∘δ is checked: row c of each product
    is the image of c."""
    gens, cols = target
    pos = {(k, c): i for i, (_, k, c) in enumerate(gens)}
    labels = [(0, p, k) for p, k, _ in gens]
    columns = [[(pos[k + 1, r], x) for r, x in cols[k][c]] for _, k, c in gens]
    if source is not None:
        sgens, scols = source
        for k, m in enumerate(maps):
            if sparse_matmul(m, cols[k] if k < len(cols) else ()) != \
                    sparse_matmul(scols[k], maps[k + 1] if k + 1 < len(maps) else ()):
                raise CertificateError("restriction fails D*R=R*delta")
        spos = {(k, c): len(gens) + i for i, (_, k, c) in enumerate(sgens)}
        labels += [(1, p, k) for p, k, _ in sgens]
        columns += [[(spos[k + 1, r], -x) for r, x in scols[k][c]]
                    + [(pos[k, t], y) for t, y in maps[k][c]]
                    for _, k, c in sgens]
    return labels, f_pairs(field, columns)


def _betti(labels, pairs, part: int) -> Counter:
    """dim H^k of one part, per degree k: its generators in no pair
    within the part."""
    paired = {i for low, col in pairs.items()
              if labels[low][0] == labels[col][0] for i in (low, col)}
    return Counter(k for i, (s, _, k) in enumerate(labels)
                   if s == part and i not in paired)


def _ranks(labels, pairs) -> Counter:
    """The rank of the restriction in cohomology, per degree: the pairs
    from a source column into the target, each a target class R hits."""
    return Counter(labels[col][2] for low, col in pairs.items()
                   if labels[low][0] != labels[col][0])


def total_cohomology(dc: DoubleComplex, coeff="Q"):
    """Cohomology of the total complex: over a field the dimensions, read
    off the reduction of Tot; over Z also the torsion (the Smith
    invariants of `exactla.snf`)."""
    coeff = parse_coeff(coeff)
    if coeff == "Z":
        degrees = [betti_at(coeff, total_differential(dc, k),
                            _total_columns(dc, k - 1), dc.dims[k])
                   for k in range(len(dc.dims) - 1)]
    else:
        betti = _betti(*_pair(coeff, _total_cochains(dc)), 0)
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
    labels, pairs = _pair(field, _total_cochains(dc))
    gap = {i: labels[low][1] - labels[col][1]
           for low, col in pairs.items() for i in (low, col)}
    partner = {col: low for low, col in pairs.items()}
    pages = []
    for r in range(1, (dc.num_columns + 1 if r_stop is None else r_stop) + 1):
        basis: dict[tuple[int, int], list[int]] = {}
        for i, (_, p, k) in enumerate(labels):
            if gap.get(i, r) >= r:
                basis.setdefault((p, k - p), []).append(i)
        diffs = {(p, q): tuple(tuple(int(partner.get(j) == i) for j in src)
                               for i in basis[p + r, q - r + 1])
                 for (p, q), src in basis.items() if (p + r, q - r + 1) in basis}
        pages.append(SpectralPage(r, dict(sorted((pq, len(v)) for pq, v
                                                 in basis.items())), diffs))
    betti = _betti(labels, pairs, 0)
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


def _inclusion_rows(dc: DoubleComplex, q: int) -> list[list[tuple[int, int]]]:
    """The chain-level map from total degree q to the q-chains of W/Gamma,
    by nonzero entries per row: column-0 blocks include along their chain
    maps, the other columns map to 0.  Row c is R^q c, c a cochain."""
    rows: list[list[tuple[int, int]]] = \
        [[] for _ in range(len(dc.w_qc.simplices[q]) if q <= dc.w_qc.dim else 0)]
    for s, cm in enumerate(dc.inclusions):
        if (0, s, q) in dc.offsets:
            off = dc.offsets[0, s, q]
            for row, entries in zip(rows, cm.matrix(q)):
                row += [(off + t, x) for t, x in entries]
    return rows


def _restriction_degrees(dc: DoubleComplex, field) -> list[RestrictionDegree]:
    """Every degree of the restriction C*(W/Gamma) -> Tot, the transposed
    column-0 inclusion, read off the reduction of its cone."""
    maps = [_inclusion_rows(dc, q) for q in range(dc.w_qc.dim + 1)]
    cone = _pair(field, _total_cochains(dc), _quotient_cochains(dc.w_qc), maps)
    total, retract, ranks = _betti(*cone, 0), _betti(*cone, 1), _ranks(*cone)
    return [RestrictionDegree(q, retract[q], total[q], ranks[q],
                              retract[q] - ranks[q])
            for q in range(max(dc.w_qc.dim, len(dc.dims) - 2) + 1)]


def restriction(dc: DoubleComplex, coeff="Q") -> RestrictionReport:
    """Cochain-level restriction from the retract quotient into column 0,
    composed into total cohomology; ranks and interior dimensions."""
    field = _field(coeff, "restriction ranks")
    degrees = _restriction_degrees(dc, field)
    if field == QQ and dc.group.family != "gl":
        _check_boundary_duality(dc.group.n, degrees)
    return RestrictionReport(field.name, tuple(degrees))


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
    the homology of the retract quotient, read off the cone that
    `restriction` reduces (`RestrictionReport.homology`)."""
    field = _field(coeff, "boundary homology ranks")
    return RestrictionReport(field.name,
                             tuple(_restriction_degrees(dc, field))).homology()


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
    cone of C*(W/Gamma) -> C*(W_F/Gamma_F), equal in homology."""
    field = _field(coeff, "face maps")
    check_dimension(flag, dc.group)
    hit = _locate_flag(dc.columns[0], flag, dc.group)
    if hit is None:
        raise ValueError("flag is not equivalent to a column-0 representative")
    summand = dc.columns[0][hit[0]]
    cm = dc.inclusions[hit[0]]
    w = dc.w_qc
    maps = [cm.matrix(q) or ((),) * len(w.simplices[q]) for q in range(w.dim + 1)]
    ranks = _ranks(*_pair(field, _quotient_cochains(summand.qc),
                          _quotient_cochains(w), maps))
    hom_ranks = tuple(ranks[q] for q in range(w.dim + 1))
    return FaceMapReport(summand.flag, field.name, hom_ranks, hom_ranks,
                         tuple(cm.matrix(q) for q in range(w.dim + 1)))
