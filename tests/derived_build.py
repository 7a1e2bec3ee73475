"""The double complex as `wellround.boundary.build_double_complex` built it
before it lifted every quotient from level 1 through the coset space
Omega, kept as the oracle for that lift.

W mod the group and each flag subcomplex W_F mod Gamma_F are derived as
orbit complexes (`enumerate_W`, `subcomplex_WF`), each subdivided
(`barycentric_quotient`), and every chain map is located chain by chain:
an inclusion by `induced_map`, a horizontal piece by `twisted_map`, with
the witness that `flag_equivalent` finds for the deleted flag among the
representatives of the column (`locate_flag`, a scan over the summands).
The layout is the package's own (`boundary._layout`), so the answers of
`wellround.boundary` read the oracle's complex too; `face_map` finds its
summand by the scan.
"""

from __future__ import annotations

from typing import Optional, Sequence

from chain_canon import apply_chain, induced_map
from wellround.boundary import (
    DoubleComplex, FaceMapReport, HorizontalPiece, Summand, _field,
    _including, _layout, _pairs, _ranks,
)
from wellround.cells import OrbitComplex, enumerate_W, subcomplex_WF
from wellround.exactla import CertificateError, IntMatrix, sparse_matmul
from wellround.flags import (
    RationalFlag, check_dimension, flag_equivalent, flag_orbits, flag_types,
    subflags_with_signs,
)
from wellround.lattice import GroupSpec
from wellround.quotient import (
    ChainMap, QuotientComplex, barycentric_quotient,
)


def build(group: GroupSpec, variant: int = 0
          ) -> tuple[DoubleComplex, list[OrbitComplex]]:
    """(dc, complexes): the double complex, its w_complex W mod the group
    itself, and the orbit complexes W, then every W_F in column order."""
    n = group.n
    w_complex = enumerate_W(group, variant=variant)
    w_qc = barycentric_quotient(w_complex)
    complexes = [w_complex]
    columns = []
    for p in range(n - 1):
        summands = []
        for dims in flag_types(n, p + 2):
            orbits = flag_orbits(group, dims)
            for flag, root in zip(orbits.reps, orbits.roots):
                sub = subcomplex_WF(w_complex, flag)
                complexes.append(sub)
                summands.append(Summand(flag, root, barycentric_quotient(sub)))
        columns.append(tuple(summands))
    pieces = []
    for p in range(len(columns) - 1):
        col_pieces = []
        for t_idx, tgt in enumerate(columns[p + 1]):
            for deleted, sign in subflags_with_signs(tgt.flag):
                hit = locate_flag(columns[p], deleted, group)
                if hit is None:
                    raise CertificateError(
                        "deleted flag matches no representative")
                s_idx, witness = hit
                cm = twisted_map(tgt.qc, columns[p][s_idx].qc, witness)
                col_pieces.append(HorizontalPiece(s_idx, t_idx, sign, cm))
        pieces.append(tuple(col_pieces))
    pieces.append(())
    inclusions = tuple(induced_map(s.qc, w_qc) for s in columns[0])
    layout = _layout([(w_qc,)] + [tuple(s.qc for s in col) for col in columns],
                     [_including(inclusions)] + pieces)
    dc = DoubleComplex(group, tuple(columns), tuple(pieces), w_complex, w_qc,
                       inclusions, *layout)
    return dc, complexes


def twisted_map(sub: QuotientComplex, sup: QuotientComplex,
                twist: IntMatrix) -> ChainMap:
    """The chain map sending a simplex orbit of `sub` to the orbit of its
    representative chain moved by twist in `sup`; commutes with the
    boundaries exactly (checked)."""
    mats = []
    for k, level in enumerate(sub.simplices):
        rows = [[] for _ in sup.simplices[k]]
        for j, s in enumerate(level):
            kk, idx = sup.locate(apply_chain(twist, s.chain))
            if kk != k:
                raise CertificateError("chain map changes the dimension")
            rows[idx].append((j, 1))
        mats.append(tuple(map(tuple, rows)))
    for k in range(1, sub.dim + 1):
        if sparse_matmul(mats[k - 1], sub.boundaries[k]) != \
                sparse_matmul(sup.boundaries[k], mats[k]):
            raise CertificateError("chain map does not commute with boundaries")
    return ChainMap(sub, sup, tuple(mats))


def locate_flag(column: Sequence[Summand], flag: RationalFlag,
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


def face_map(dc: DoubleComplex, flag: RationalFlag,
             coeff="Q") -> FaceMapReport:
    """`boundary.face_map`, its summand found by `locate_flag`."""
    field = _field(coeff, "face maps")
    check_dimension(flag, dc.group)
    hit = locate_flag(dc.columns[0], flag, dc.group)
    if hit is None:
        raise ValueError("flag is not equivalent to a column-0 representative")
    summand = dc.columns[0][hit[0]]
    cm = dc.inclusions[hit[0]]
    w = dc.w_qc
    _, _, generators, cone = _layout([(w,), (summand.qc,)],
                                     [_including([cm]), ()])
    ranks = _ranks(generators, _pairs(field, generators, cone))
    hom_ranks = tuple(ranks[q] for q in range(w.dim + 1))
    return FaceMapReport(summand.flag, field.name, hom_ranks, hom_ranks,
                         tuple(cm.matrix(q) for q in range(w.dim + 1)))
