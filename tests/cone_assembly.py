"""The restriction cone as `wellround.boundary` assembled it before it laid
out one augmented double complex, kept as the oracle for that layout,
and the pairing reduction without clearing, kept as the oracle for
`exactla.f_pairs`.

Tot's differentials D^k are assembled as sparse rows, blockwise from
transposed boundaries and chain maps, and transposed back into columns
on every query.  A cone lists the target's generators, then the
source's; a source cochain c of degree k gets the column (-δc, R^k c),
after a separate check that D∘R = R∘δ.  Labels follow the layout of
`wellround.boundary`: (column p, total degree k, coordinate), the
source in column -1, where a q-cochain has total degree q - 1.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from wellround.boundary import DoubleComplex
from wellround.exactla import (
    CertificateError, Echelon, SparseRows, sparse_matmul, sparse_transpose,
)
from wellround.quotient import QuotientComplex


def _assemble(dc: DoubleComplex, k: int) -> SparseRows:
    """D^k from total degree k to k + 1, as sparse rows: the vertical
    block of a summand in column p is (-1)^p times its coboundary, the
    transposed boundary, and the horizontal block of a piece is its sign
    times its transposed chain map."""
    rows: list[dict[int, int]] = [{} for _ in range(dc.dims[k + 1])]

    def add_transposed(row0: int, col0: int, sign: int, m: SparseRows):
        for j, entries in enumerate(m):
            for i, x in entries:
                row = rows[row0 + i]
                row[col0 + j] = row.get(col0 + j, 0) + sign * x

    for p, column in enumerate(dc.columns):
        q = k - p
        for s, summand in enumerate(column):
            if 0 <= q < summand.qc.dim:
                add_transposed(dc.offsets[p, s, q + 1], dc.offsets[p, s, q],
                               -1 if p % 2 else 1, summand.qc.boundaries[q + 1])
        for piece in dc.pieces[p]:
            if (p + 1, piece.target, q) in dc.offsets:
                add_transposed(dc.offsets[p + 1, piece.target, q],
                               dc.offsets[p, piece.source, q], piece.sign,
                               piece.chain_map.matrix(q))
    return tuple(tuple(sorted((j, x) for j, x in r.items() if x)) for r in rows)


def differential(dc: DoubleComplex, k: int) -> SparseRows:
    """D^k as sparse rows of width dims[k]; no rows outside the degrees
    of the complex."""
    return _assemble(dc, k) if 0 <= k < len(dc.dims) - 1 else ()


def differential_columns(dc: DoubleComplex, k: int) -> SparseRows:
    """The columns of D^k, as sparse rows of width dims[k + 1]."""
    if not 0 <= k < len(dc.dims) - 1:
        return ()
    return sparse_transpose(_assemble(dc, k), dc.dims[k])


def _check_squares_to_zero(dc: DoubleComplex):
    diffs = [differential(dc, k) for k in range(len(dc.dims) - 1)]
    for k in range(len(diffs) - 1):
        if any(sparse_matmul(diffs[k + 1], diffs[k])):
            raise CertificateError("total differential fails D*D=0")


def _total_cochains(dc: DoubleComplex):
    """Tot's generators (p, k, coordinate) in cone order, by column and
    then degree descending; and per degree k the columns of D^k."""
    gens = [(p, k, dc.offsets[p, s, k - p] + i)
            for p in reversed(range(dc.num_columns))
            for k in reversed(range(len(dc.dims)))
            for s, summand in enumerate(dc.columns[p])
            if (p, s, k - p) in dc.offsets
            for i in range(len(summand.qc.simplices[k - p]))]
    return gens, [differential_columns(dc, k) for k in range(len(dc.dims))]


def _quotient_cochains(qc: QuotientComplex, p: int):
    """A quotient's cochains (p, p + k, i) of column p in cone order,
    degree descending; the columns of its coboundary are the rows of its
    boundaries."""
    return ([(p, p + k, i) for k in reversed(range(qc.dim + 1))
             for i in range(len(qc.simplices[k]))],
            [qc.boundaries[k + 1] if k < qc.dim
             else ((),) * len(qc.simplices[k]) for k in range(qc.dim + 1)])


def inclusion_rows(dc: DoubleComplex, q: int) -> list[list[tuple[int, int]]]:
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


def _cone(target, source, maps: Sequence[SparseRows]):
    """(labels, columns) of the mapping cone of R from the source into
    the target, each column's entries sorted; D∘R = R∘δ is checked
    first: row c of each product is the image of c."""
    gens, cols = target
    sgens, scols = source
    for k, m in enumerate(maps):
        if sparse_matmul(m, cols[k] if k < len(cols) else ()) != \
                sparse_matmul(scols[k], maps[k + 1] if k + 1 < len(maps) else ()):
            raise CertificateError("restriction fails D*R=R*delta")
    pos = {(k, c): i for i, (_, k, c) in enumerate(gens)}
    columns = [[(pos[k + 1, r], x) for r, x in cols[k][c]] for _, k, c in gens]
    spos = {(k, c): len(gens) + i for i, (_, k, c) in enumerate(sgens)}
    columns += [[(spos[k + 1, r], -x) for r, x in scols[k + 1][c]]
                + [(pos[k + 1, t], y) for t, y in maps[k + 1][c]]
                for _, k, c in sgens]
    return gens + sgens, [tuple(sorted(col)) for col in columns]


def restriction_cone(dc: DoubleComplex):
    """The cone of the restriction C*(W/Gamma) -> Tot: Tot's generators,
    then those of W/Gamma in column -1."""
    _check_squares_to_zero(dc)
    maps = [inclusion_rows(dc, q) for q in range(dc.w_qc.dim + 1)]
    return _cone(_total_cochains(dc), _quotient_cochains(dc.w_qc, -1), maps)


def face_map_cone(dc: DoubleComplex, s: int):
    """The cone of the restriction from W/Gamma to column-0 summand s."""
    w = dc.w_qc
    cm = dc.inclusions[s]
    maps = [cm.matrix(q) or ((),) * len(w.simplices[q]) for q in range(w.dim + 1)]
    return _cone(_quotient_cochains(dc.columns[0][s].qc, 0),
                 _quotient_cochains(w, -1), maps)


def f_pairs(field, columns: Iterable[Sequence[tuple[int, int]]]) -> dict[int, int]:
    """The persistence pairs {lowest row: column}, every column reduced
    left to right, none skipped."""
    basis = Echelon(field)
    pairs: dict[int, int] = {}
    for j, entries in enumerate(columns):
        low = basis._add([(-i, x) for i, x in entries])
        if low is not None:
            pairs[-low] = j
    return pairs
