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
    CertificateError, Echelon, IntMatrix, QQ, f_rank, f_solve, snf,
)
from .flags import (
    RationalFlag, flag_equivalent, flag_orbits, flag_types,
    subflags_with_signs,
)
from .lattice import GroupSpec
from .quotient import (
    ChainMap, QuotientComplex, barycentric_quotient, cycle_reps, homology,
    induced_map, parse_coeff,
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
    group: GroupSpec
    columns: tuple[tuple[Summand, ...], ...]
    pieces: tuple[tuple[HorizontalPiece, ...], ...]  # per column p: maps p -> p+1
    w_complex: OrbitComplex
    w_qc: QuotientComplex

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def max_q(self) -> int:
        return max((s.qc.dim for col in self.columns for s in col), default=0)

    def cochain_dim(self, p: int, q: int) -> int:
        if not (0 <= p < self.num_columns) or q < 0:
            return 0
        total = 0
        for s in self.columns[p]:
            if q <= s.qc.dim:
                total += len(s.qc.simplices[q])
        return total

    def offsets(self, p: int, q: int) -> list[int]:
        out = []
        acc = 0
        for s in self.columns[p]:
            out.append(acc)
            if q <= s.qc.dim:
                acc += len(s.qc.simplices[q])
        return out

    def vertical_matrix(self, p: int, q: int) -> IntMatrix:
        """(-1)^p times the coboundary: block diagonal over summands."""
        rows = self.cochain_dim(p, q + 1)
        cols = self.cochain_dim(p, q)
        mat = [[0] * cols for _ in range(rows)]
        roff = self.offsets(p, q + 1)
        coff = self.offsets(p, q)
        sign = -1 if p % 2 else 1
        for idx, s in enumerate(self.columns[p]):
            if q + 1 > s.qc.dim:
                continue
            bnd = s.qc.boundaries[q + 1]  # (q-simplices) x (q+1-simplices)
            for i in range(len(s.qc.simplices[q + 1])):
                for j in range(len(s.qc.simplices[q])):
                    if bnd and bnd[j][i]:
                        mat[roff[idx] + i][coff[idx] + j] = sign * bnd[j][i]
        return tuple(tuple(r) for r in mat)

    def horizontal_matrix(self, p: int, q: int) -> IntMatrix:
        """Cech differential: column p cochains to column p+1 cochains."""
        rows = self.cochain_dim(p + 1, q)
        cols = self.cochain_dim(p, q)
        mat = [[0] * cols for _ in range(rows)]
        if p + 1 >= self.num_columns:
            return tuple(tuple(r) for r in mat)
        roff = self.offsets(p + 1, q)
        coff = self.offsets(p, q)
        for piece in self.pieces[p]:
            tgt = self.columns[p + 1][piece.target]
            src = self.columns[p][piece.source]
            if q > tgt.qc.dim or q > src.qc.dim:
                continue
            cmat = piece.chain_map.matrix(q)  # src-simplices x tgt-simplices
            for i in range(len(tgt.qc.simplices[q])):
                for j in range(len(src.qc.simplices[q])):
                    if cmat and cmat[j][i]:
                        mat[roff[piece.target] + i][coff[piece.source] + j] += \
                            piece.sign * cmat[j][i]
        return tuple(tuple(r) for r in mat)


def build_double_complex(group: GroupSpec, variant: int = 0) -> DoubleComplex:
    """Assemble the flag-subcomplex double complex for the group.

    Column p holds one summand per orbit of flags with p+1 proper
    members; the horizontal maps pair each flag with its one-member
    deletions, located among the representatives by an exact equivalence
    search whose witness twists the restriction.
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
                sub = subcomplex_WF(w_complex, flag, variant=variant)
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
    dc = DoubleComplex(group, tuple(columns), tuple(pieces), w_complex, w_qc)
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

def total_dims(dc: DoubleComplex) -> list[int]:
    kmax = dc.num_columns - 1 + dc.max_q()
    return [sum(dc.cochain_dim(p, k - p) for p in range(dc.num_columns))
            for k in range(kmax + 2)]


def total_positions(dc: DoubleComplex, k: int) -> list[tuple[int, int]]:
    """Basis labels (p, local index) of the total degree-k cochains."""
    out = []
    for p in range(dc.num_columns):
        for i in range(dc.cochain_dim(p, k - p)):
            out.append((p, i))
    return out


def total_differential(dc: DoubleComplex, k: int) -> IntMatrix:
    """D = vertical + horizontal from total degree k to k+1."""
    src = total_positions(dc, k)
    dst = total_positions(dc, k + 1)
    dst_index = {}
    for i, (p, loc) in enumerate(dst):
        dst_index[(p, loc)] = i
    mat = [[0] * len(src) for _ in range(len(dst))]
    col_offset = {}
    acc = 0
    for p in range(dc.num_columns):
        col_offset[p] = acc
        acc += dc.cochain_dim(p, k - p)
    for p in range(dc.num_columns):
        q = k - p
        if q < 0 or dc.cochain_dim(p, q) == 0:
            continue
        vm = dc.vertical_matrix(p, q)
        for i in range(dc.cochain_dim(p, q + 1)):
            for j in range(dc.cochain_dim(p, q)):
                if vm and vm[i][j]:
                    mat[dst_index[(p, i)]][col_offset[p] + j] += vm[i][j]
        hm = dc.horizontal_matrix(p, q)
        for i in range(dc.cochain_dim(p + 1, q)):
            for j in range(dc.cochain_dim(p, q)):
                if hm and hm[i][j]:
                    mat[dst_index[(p + 1, i)]][col_offset[p] + j] += hm[i][j]
    return tuple(tuple(r) for r in mat)


def _check_total_differential_squares_to_zero(dc: DoubleComplex):
    kmax = dc.num_columns - 1 + dc.max_q()
    for k in range(kmax + 1):
        a = total_differential(dc, k + 1)
        b = total_differential(dc, k)
        if not a or not b or not a[0] or not b[0]:
            continue
        for j in range(len(b[0])):
            col = [sum(a[i][t] * b[t][j] for t in range(len(b)))
                   for i in range(len(a))]
            if any(col):
                raise CertificateError("total differential fails D*D=0")


def total_cohomology(dc: DoubleComplex, coeff="Q"):
    """Cohomology of the total complex: over a field the dimensions, over
    Z also the torsion (the Smith invariants of `exactla.snf`)."""
    if isinstance(coeff, str):
        coeff = parse_coeff(coeff)
    field = QQ if coeff == "Z" else coeff  # ranks over Z are ranks over Q
    dims = total_dims(dc)
    kmax = len(dims) - 1
    out = []
    for k in range(kmax):
        dk = total_differential(dc, k)
        dkm = total_differential(dc, k - 1) if k >= 1 else ()
        betti = dims[k] - f_rank(field, dk) - f_rank(field, dkm)
        torsion: tuple[int, ...] = ()
        if coeff == "Z" and dkm and dkm[0]:
            torsion = tuple(d for d in snf(dkm) if d > 1)
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


def _sparse_rows(m: IntMatrix) -> list[list[tuple[int, int]]]:
    """The nonzero entries (column, value) of each row of an integer matrix."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


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
        self.kmax = self.pmax + dc.max_q() + 1
        self.positions = {k: total_positions(dc, k) for k in range(self.kmax + 2)}
        self.D = {k: total_differential(dc, k) for k in range(self.kmax + 2)}
        self.D_sparse = {k: _sparse_rows(d) for k, d in self.D.items()}

    def coords_from(self, k: int, p: int) -> list[int]:
        return [i for i, (pp, _) in enumerate(self.positions[k]) if pp >= p]

    def z_space(self, r: int, p: int, q: int) -> list[list]:
        """Basis of {x in F^p T^{p+q} : D x in F^{p+r}}."""
        k = p + q
        if k < 0 or k > self.kmax + 1:
            return []
        cols = self.coords_from(k, p)
        if not cols:
            return []
        d = self.D.get(k)
        rows = [[d[i][c] for c in cols]
                for i, (pp, _) in enumerate(self.positions.get(k + 1, []))
                if pp < p + r] if d else []
        ker = Echelon(self.field, rows).kernel(len(cols))
        full = []
        n = len(self.positions[k])
        for v in ker:
            vec = [self.field.of(0)] * n
            for c, x in zip(cols, v):
                vec[c] = x
            full.append(vec)
        return full

    def apply_d(self, k: int, vec: list) -> list:
        d = self.D_sparse.get(k)
        if not d:
            return [self.field.of(0)] * len(self.positions.get(k + 1, []))
        return _matvec(self.field, d, vec)

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
    field = parse_coeff(coeff) if isinstance(coeff, str) else coeff
    if field == "Z":
        raise ValueError("spectral pages need field coefficients")
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
    # abutment over the field
    dims = total_dims(dc)
    abutment = []
    for k in range(len(dims) - 1):
        dk = work.D.get(k, [])
        dkm = work.D.get(k - 1, []) if k >= 1 else []
        rk = f_rank(field, dk) if dk else 0
        rkm = f_rank(field, dkm) if dkm else 0
        abutment.append(dims[k] - rk - rkm)
    while abutment and abutment[-1] == 0:
        abutment.pop()
    return pages, abutment


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


def _inclusion_chain_maps(dc: DoubleComplex) -> list[ChainMap]:
    return [induced_map(s.qc, dc.w_qc) for s in dc.columns[0]]


def restriction(dc: DoubleComplex, coeff="Q") -> RestrictionReport:
    """Cochain-level restriction from the retract quotient into column 0,
    composed into total cohomology; ranks and interior dimensions."""
    field = parse_coeff(coeff) if isinstance(coeff, str) else coeff
    maps = _inclusion_chain_maps(dc)
    w_qc = dc.w_qc
    kmax = max(w_qc.dim, len(total_dims(dc)) - 2)
    degrees = []
    for q in range(kmax + 1):
        # cocycle representatives of H^q(W/Gamma)
        cob_in = w_qc.boundaries[q] if 1 <= q <= w_qc.dim else ()
        cob_out = w_qc.boundaries[q + 1] if q + 1 <= w_qc.dim else ()
        nq = len(w_qc.simplices[q]) if q <= w_qc.dim else 0
        # cochain complex: d^q = transpose of boundary_{q+1}
        dq = _transpose(cob_out, nq)
        dqm = _transpose(cob_in, len(w_qc.simplices[q - 1])
                         if 1 <= q <= w_qc.dim else 0)
        reps = cycle_reps(field, dq, dqm, nq)
        dim_w = len(reps)
        # embed via the transposed inclusion maps into total degree q:
        # the column-0 blocks, then zeros for the other columns
        restrict_rows = [row for cm in maps
                         for row in _sparse_rows(tuple(zip(*cm.matrix(q))))]
        pad = [field.of(0)] * sum(dc.cochain_dim(p, q - p)
                                  for p in range(1, dc.num_columns))
        imgs = [_matvec(field, restrict_rows, rep) + pad for rep in reps]
        # total cohomology data in degree q
        dtot = total_differential(dc, q)
        dtot_prev = total_differential(dc, q - 1) if q >= 1 else ()
        dim_total = total_dims(dc)[q] - (f_rank(field, dtot) if dtot else 0) \
            - (f_rank(field, dtot_prev) if dtot_prev else 0)
        if dtot:  # restriction of a cocycle is a total cocycle
            dtot_rows = _sparse_rows(dtot)
            for v in imgs:
                if any(_matvec(field, dtot_rows, v)):
                    raise CertificateError("restricted cocycle is not a total cocycle")
        cobs = list(zip(*dtot_prev)) if dtot_prev else []
        rank_cob = f_rank(field, cobs) if cobs else 0
        rank = (f_rank(field, cobs + imgs) - rank_cob) if imgs else 0
        degrees.append(RestrictionDegree(q, dim_w, dim_total, rank,
                                         dim_w - rank))
    name = field.name if field != "Z" else "Z"
    return RestrictionReport(name, tuple(degrees))


def _transpose(m, ncols_of_result: int):
    if not m or not m[0]:
        return []
    return [list(r) for r in zip(*m)]


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
    the homology of the retract quotient.

    The dual boundary in degree q is the transpose of D^{q-1}; chains
    project to their column-0 components and include along the flag
    subcomplexes (the signed column-1 contributions cancel pairwise, so
    this is a chain map; asserted in the test suite)."""
    field = parse_coeff(coeff) if isinstance(coeff, str) else coeff
    maps = _inclusion_chain_maps(dc)
    w_qc = dc.w_qc
    dims = total_dims(dc)
    degrees = []
    kmax = len(dims) - 2
    for q in range(max(kmax, w_qc.dim) + 1):
        nq = dims[q] if q < len(dims) else 0
        d_down = total_differential(dc, q - 1) if q >= 1 else ()
        d_up = total_differential(dc, q)
        # dual boundary out of degree q: transpose(D^{q-1});
        # dual boundary into degree q: transpose(D^q)
        out_map = [list(r) for r in zip(*d_down)] if d_down and d_down[0] else []
        in_map = [list(r) for r in zip(*d_up)] if d_up and d_up[0] else []
        reps = cycle_reps(field, out_map, in_map, nq)
        dim_boundary = len(reps)
        # push a cycle into the chains of the retract quotient: column 0
        # components flow along the inclusion chain maps
        nw = len(w_qc.simplices[q]) if q <= w_qc.dim else 0
        include_rows = [[] for _ in range(nw)]
        off = 0
        for s, cm in zip(dc.columns[0], maps):
            for row, entries in zip(include_rows, _sparse_rows(cm.matrix(q))):
                row += [(off + t, x) for t, x in entries]
            off += len(s.qc.simplices[q]) if q <= s.qc.dim else 0
        imgs = [_matvec(field, include_rows, rep) for rep in reps]
        # homology of the retract quotient in degree q
        bq = w_qc.boundaries[q] if 1 <= q <= w_qc.dim else ()
        bq1 = w_qc.boundaries[q + 1] if q + 1 <= w_qc.dim else ()
        rk = f_rank(field, bq) if bq and bq[0] else 0
        rk1 = f_rank(field, bq1) if bq1 and bq1[0] else 0
        dim_w = nw - rk - rk1
        bnds = list(zip(*bq1)) if bq1 and bq1[0] else []
        rank_b = f_rank(field, bnds) if bnds else 0
        nonzero_imgs = [v for v in imgs if any(v)]
        rank = (f_rank(field, bnds + nonzero_imgs) - rank_b) \
            if nonzero_imgs else 0
        degrees.append(BoundaryHomologyDegree(q, dim_boundary, dim_w, rank))
    while degrees and degrees[-1].dim_boundary == 0 \
            and degrees[-1].dim_retract == 0:
        degrees.pop()
    name = field.name if field != "Z" else "Z"
    return BoundaryHomologyReport(name, tuple(degrees))


# ---------------------------------------------------------------------------
# Single-face maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceMapReport:
    flag: RationalFlag
    coeff: str
    homology_ranks: tuple[int, ...]     # H_q(W_F/..) -> H_q(W/Gamma)
    cohomology_ranks: tuple[int, ...]   # H^q(W/Gamma) -> H^q(W_F/..)
    matrices: tuple[IntMatrix, ...]     # chain-level inclusion per degree


def face_map(dc: DoubleComplex, flag: RationalFlag,
             coeff="Q") -> FaceMapReport:
    """Maps induced by one flag subcomplex inclusion, no spectral
    machinery: chain level in homology, transposed in cohomology."""
    field = parse_coeff(coeff) if isinstance(coeff, str) else coeff
    hit = _locate_flag(dc.columns[0], flag, dc.group)
    if hit is None:
        raise ValueError("flag is not equivalent to a column-0 representative")
    summand = dc.columns[0][hit[0]]
    cm = induced_map(summand.qc, dc.w_qc)
    sub_h = homology(summand.qc, field)
    hom_ranks = []
    co_ranks = []
    for q in range(dc.w_qc.dim + 1):
        mat = cm.matrix(q)
        reps = sub_h.degrees[q].representatives if q <= summand.qc.dim else ()
        imgs = [_matvec(field, _sparse_rows(mat), rep) for rep in reps]
        bq1 = dc.w_qc.boundaries[q + 1] if q + 1 <= dc.w_qc.dim else ()
        bnds = list(zip(*bq1)) if bq1 and bq1[0] else []
        rank_b = f_rank(field, bnds) if bnds else 0
        nonzero = [v for v in imgs if any(v)]
        hom_ranks.append((f_rank(field, bnds + nonzero) - rank_b)
                         if nonzero else 0)
        co_ranks.append(hom_ranks[-1])  # adjoint maps have equal rank
    name = field.name if field != "Z" else "Z"
    return FaceMapReport(summand.flag, name, tuple(hom_ranks),
                         tuple(co_ranks),
                         tuple(cm.matrix(q) for q in range(dc.w_qc.dim + 1)))
