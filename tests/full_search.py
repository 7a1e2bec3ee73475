"""The equivalence search over every leaf, kept here only as the oracle
of the stabilizer search over +-classes (`lattice._equiv_search` with
find_all).

It backtracks over the images of a basis of src among dst and -dst
alike, forms U at every leaf and keeps it if it is integral, unimodular,
in the group, maps src onto dst and keeps the flag; so it meets U and -U
at two leaves, and for SL_n with n odd tests as many leaves of det -1 as
it keeps."""

from typing import Optional

from wellround.exactla import (
    IntMatrix, int_adjugate, int_det, int_matmul, int_matvec, int_transpose,
)
from wellround.flags import in_parabolic
from wellround.lattice import (
    GroupSpec, VectorConfig, _char_pairings, _image_candidates,
    _independent_basis, canonical_config, canonical_vector,
)


def full_search(src: VectorConfig, dst: VectorConfig, group: GroupSpec,
                flag=None) -> list[IntMatrix]:
    """Every U in the group with U(+-src) = +-dst, keeping the flag if
    one is given, in the order the leaves are met."""
    src, dst = canonical_config(src), canonical_config(dst)
    n = group.n
    if len(src) != len(dst):
        return []
    det_s, ps = _char_pairings(src, n)
    det_d, pd = _char_pairings(dst, n)
    if not (det_s and det_d):
        raise ValueError("configurations must span Q^n")
    if det_s != det_d or (sorted(ps[i][i] for i in range(len(src)))
                          != sorted(pd[j][j] for j in range(len(dst)))):
        return []
    basis_idx = _independent_basis(src, n)
    bmat = int_transpose(tuple(src[i] for i in basis_idx))
    det_b = int_det(bmat)
    adj_b = int_adjugate(bmat)
    candidates = _image_candidates(dst)
    dst_set = frozenset(dst)
    results: list[IntMatrix] = []
    images: list[tuple[int, int]] = []

    def accept() -> Optional[IntMatrix]:
        w = int_transpose(tuple(tuple(s * x for x in dst[j])
                                for j, s in images))
        w_adj = int_matmul(w, adj_b)
        if any(x % det_b for row in w_adj for x in row):
            return None
        ui = tuple(tuple(x // det_b for x in row) for row in w_adj)
        det_u = int_det(ui)
        if abs(det_u) != 1 or not group.contains(ui, det_u):
            return None
        if {canonical_vector(int_matvec(ui, v)) for v in src} != dst_set:
            return None
        if flag is not None and not in_parabolic(ui, flag):
            return None
        return ui

    def backtrack(depth: int):
        if depth == n:
            u = accept()
            if u is not None:
                results.append(u)
            return
        b = basis_idx[depth]
        for j, s in candidates:
            if pd[j][j] != ps[b][b] or any(
                    sk * s * pd[j][jk] != ps[basis_idx[k]][b]
                    for k, (jk, sk) in enumerate(images)):
                continue
            images.append((j, s))
            backtrack(depth + 1)
            images.pop()

    backtrack(0)
    return results
