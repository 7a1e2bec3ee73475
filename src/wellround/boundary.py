"""Boundary cohomology via the double complex of flag subcomplexes.

Column p collects the simplicial cochains of the quotients of the flag
subcomplexes W_F for flags with p+2 members (the full space included);
vertical differentials are signed coboundaries, horizontal ones are
Cech-signed restrictions twisted by group elements carrying a deleted
flag onto its orbit representative.  The total complex computes the
cohomology of the boundary of the bordified quotient; the restriction
map from the cohomology of the whole retract quotient is realized at the
cochain level.  Spectral pages of the column filtration are computed
over a field by exact subquotient linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cells import OrbitComplex, enumerate_W, subcomplex_WF
from .exactla import (
    QQ, CertificateError, Echelon, IntMatrix, SparseRows, dense_view,
    f_rank_modulo, f_solve, sparse_matmul, sparse_transpose,
)
from .flags import (
    RationalFlag, check_dimension, flag_equivalent, flag_orbits, flag_types,
    subflags_with_signs,
)
from .lattice import GroupSpec
from .quotient import (
    ChainMap, QuotientComplex, barycentric_quotient, betti_at, coboundary,
    cohomology, homology, homology_at, induced_map, parse_coeff,
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

    def max_q(self) -> int:
        return max((s.qc.dim for col in self.columns for s in col), default=0)

    def filtration_start(self, k: int, p: int) -> int:
        """The first coordinate of total degree k in column p or later:
        the coordinates from there on span F^p of degree k."""
        return min((off for (pp, _, q), off in self.offsets.items()
                    if pp >= p and pp + q == k), default=self.dims[k])


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


def total_cohomology(dc: DoubleComplex, coeff="Q"):
    """Cohomology of the total complex: over a field the dimensions, over
    Z also the torsion (the Smith invariants of `exactla.snf`)."""
    coeff = parse_coeff(coeff)
    out = []
    for k in range(len(dc.dims) - 1):
        betti, torsion = betti_at(coeff, total_differential(dc, k),
                                  _total_columns(dc, k - 1), dc.dims[k])
        out.append({"degree": k, "betti": betti, "torsion": torsion})
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
    differentials: dict

    def dim(self, p: int, q: int) -> int:
        return self.entries.get((p, q), 0)


def _matvec(field, rows: Sequence[Sequence[tuple[int, int]]], vec) -> list:
    """An integer matrix, given by its nonzero entries per row, applied to
    a vector over the field.  Entries come out canonical (residues in
    [0, p) over F_p), so a zero vector is one with ``not any(v)``."""
    return [field.of(sum(x * vec[j] for j, x in row)) for row in rows]


class _Filtered:
    """Exact subquotient linear algebra for the column filtration."""

    def __init__(self, dc: DoubleComplex, field):
        self.dc = dc
        self.field = field
        self.pmax = dc.num_columns - 1

    def z_space(self, r: int, p: int, q: int) -> list[list]:
        """Basis of {x in F^p T^{p+q} : D x in F^{p+r}}.  Columns come in
        order, so F^p is a tail of the coordinates, and D x lies in
        F^{p+r} when the rows of D before F^{p+r} vanish on x."""
        k = p + q
        if not 0 <= k < len(self.dc.dims):
            return []
        lo = self.dc.filtration_start(k, p)
        n = self.dc.dims[k]
        if lo == n:
            return []
        d = total_differential(self.dc, k)[:self.dc.filtration_start(k + 1, p + r)]
        basis = Echelon(self.field, (row[lo:] for row in dense_view(d, n)))
        return [[self.field.of(0)] * lo + v for v in basis.kernel(n - lo)]

    def apply_d(self, k: int, vec: list) -> list:
        return _matvec(self.field, self.dc.differentials[k], vec)

    def page_entry(self, r: int, p: int, q: int):
        """(numerator basis, denominator basis, lifts spanning E_r)."""
        z = self.z_space(r, p, q)
        den = self.z_space(r - 1, p + 1, q - 1) + \
            [self.apply_d(p + q - 1, v)
             for v in self.z_space(r - 1, p - r + 1, q + r - 2)]
        den = [v for v in den if any(v)]
        basis = Echelon(self.field, den)
        return z, den, [v for v in z if basis.add(v)]

    def express(self, vec, lifts, den):
        """Coordinates of vec in the lift basis modulo the denominator."""
        cols = list(lifts) + list(den)
        a = [[c[i] for c in cols] for i in range(len(vec))]
        sol = f_solve(self.field, a, vec, len(cols))
        if sol is None:
            raise CertificateError("vector not in the span")
        return sol[:len(lifts)]


def spectral_sequence(dc: DoubleComplex, coeff="Q", r_stop: Optional[int] = None):
    """Pages E_1, E_2, ... of the column filtration, with differentials,
    until stabilization; returns (pages, abutment dims per degree)."""
    field = _field(coeff, "spectral pages")
    work = _Filtered(dc, field)
    pmax = work.pmax
    if r_stop is None:
        r_stop = pmax + 2
    pages = []
    for r in range(1, r_stop + 1):
        entries = {}
        lifts_at = {}
        dens_at = {}
        for p in range(pmax + 1):
            for q in range(dc.max_q() + 1):
                z, den, lifts = work.page_entry(r, p, q)
                if lifts:
                    entries[(p, q)] = len(lifts)
                    lifts_at[(p, q)] = lifts
                    dens_at[(p, q)] = den
        diffs = {}
        for (p, q), lifts in lifts_at.items():
            tp, tq = p + r, q - r + 1
            timg = lifts_at.get((tp, tq), [])
            tden = dens_at.get((tp, tq), [])
            if not timg and not tden:
                tz, tden2, timg2 = work.page_entry(r, tp, tq)
                timg, tden = timg2, tden2
            rows = []
            for v in lifts:
                img = work.apply_d(p + q, v)
                rows.append(work.express(img, timg, tden))
            if timg:
                diffs[(p, q)] = tuple(tuple(r_) for r_ in
                                      zip(*rows)) if rows else ()
            elif any(rows):
                raise CertificateError("page differential into zero is nonzero")
        pages.append(SpectralPage(r, entries, diffs))
    # the abutment: the total cohomology over the field
    return pages, [d["betti"] for d in total_cohomology(dc, field)]


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


def _inclusion_rows(dc: DoubleComplex, q: int) -> list[list[tuple[int, int]]]:
    """The chain-level map from total degree q to the q-chains of W/Gamma,
    by nonzero entries per row: column-0 blocks include along their chain
    maps, the other columns map to 0."""
    rows: list[list[tuple[int, int]]] = \
        [[] for _ in range(len(dc.w_qc.simplices[q]) if q <= dc.w_qc.dim else 0)]
    for s, cm in enumerate(dc.inclusions):
        if (0, s, q) in dc.offsets:
            off = dc.offsets[0, s, q]
            for row, entries in zip(rows, cm.matrix(q)):
                row += [(off + t, x) for t, x in entries]
    return rows


def restriction(dc: DoubleComplex, coeff="Q") -> RestrictionReport:
    """Cochain-level restriction from the retract quotient into column 0,
    composed into total cohomology; ranks and interior dimensions."""
    field = _field(coeff, "restriction ranks")
    cocycles = cohomology(dc.w_qc, field).degrees
    degrees = []
    for q in range(max(dc.w_qc.dim, len(dc.dims) - 2) + 1):
        reps = cocycles[q].representatives if q <= dc.w_qc.dim else ()
        # the restriction is the transposed inclusion: total coordinate c
        # collects the cocycle's values on the simplices that c includes to
        restrict_rows = sparse_transpose(_inclusion_rows(dc, q), dc.dims[q])
        imgs = [_matvec(field, restrict_rows, rep) for rep in reps]
        dtot = total_differential(dc, q)
        coboundaries = _total_columns(dc, q - 1)
        dim_total = betti_at(field, dtot, coboundaries, dc.dims[q])[0]
        for v in imgs:  # restriction of a cocycle is a total cocycle
            if any(_matvec(field, dtot, v)):
                raise CertificateError("restricted cocycle is not a total cocycle")
        rank = f_rank_modulo(field, dense_view(coboundaries, dc.dims[q]), imgs)
        degrees.append(RestrictionDegree(q, len(reps), dim_total, rank,
                                         len(reps) - rank))
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


def _rank_in_homology(field, qc: QuotientComplex, q: int, cycles) -> int:
    """Rank of the classes of q-cycles of qc in H_q(qc): their rank modulo
    the boundaries, the columns of boundaries[q + 1]."""
    base = dense_view(coboundary(qc, q), len(qc.simplices[q])) if q < qc.dim else ()
    return f_rank_modulo(field, base, cycles)


def boundary_homology(dc: DoubleComplex, coeff="Q") -> BoundaryHomologyReport:
    """Homology of the dual total complex and the rank of its map into
    the homology of the retract quotient.

    The dual boundary in degree q is the transpose of D^{q-1}; chains
    project to their column-0 components and include along the flag
    subcomplexes (the signed column-1 contributions cancel pairwise, so
    this is a chain map; asserted in the test suite)."""
    field = _field(coeff, "boundary homology ranks")
    w_hom = homology(dc.w_qc, field).degrees
    degrees = []
    for q in range(max(len(dc.dims) - 2, dc.w_qc.dim) + 1):
        # dual boundary out of degree q: transpose(D^{q-1});
        # dual boundary into degree q: transpose(D^q)
        h = homology_at(field, _total_columns(dc, q - 1),
                        total_differential(dc, q), dc.dims[q])
        # push a cycle into the chains of the retract quotient: column 0
        # components flow along the inclusion chain maps
        include_rows = _inclusion_rows(dc, q)
        imgs = [_matvec(field, include_rows, rep) for rep in h.representatives]
        dim_w = w_hom[q].betti if q <= dc.w_qc.dim else 0
        degrees.append(BoundaryHomologyDegree(
            q, h.betti, dim_w, _rank_in_homology(field, dc.w_qc, q, imgs)))
    while degrees and degrees[-1].dim_boundary == 0 \
            and degrees[-1].dim_retract == 0:
        degrees.pop()
    return BoundaryHomologyReport(field.name, tuple(degrees))


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
    """Maps induced by one flag subcomplex inclusion, no spectral
    machinery: chain level in homology, transposed in cohomology."""
    field = _field(coeff, "face maps")
    check_dimension(flag, dc.group)
    hit = _locate_flag(dc.columns[0], flag, dc.group)
    if hit is None:
        raise ValueError("flag is not equivalent to a column-0 representative")
    summand = dc.columns[0][hit[0]]
    cm = dc.inclusions[hit[0]]
    sub_h = homology(summand.qc, field)
    hom_ranks = []
    for q in range(dc.w_qc.dim + 1):
        reps = sub_h.degrees[q].representatives if q <= summand.qc.dim else ()
        imgs = [_matvec(field, cm.matrix(q), rep) for rep in reps]
        hom_ranks.append(_rank_in_homology(field, dc.w_qc, q, imgs))
    # adjoint maps have equal rank
    return FaceMapReport(summand.flag, field.name, tuple(hom_ranks),
                         tuple(hom_ranks),
                         tuple(cm.matrix(q) for q in range(dc.w_qc.dim + 1)))
