"""Dense chain matrices, as the package stored them before every chain
matrix became sparse rows, and the dense block assembly of the total
complex, as the package built each total differential before
`boundary.build_double_complex` laid the total complex out once.  Kept
only here, as the oracles that the tests compare the stored matrices
with.

`dense` and `sparse_rows` convert between the two formats without the
package's own conversions.  `boundary_matrix` and `chain_map_matrix`
rebuild a quotient boundary and a chain map densely from the simplices,
through `QuotientComplex.locate`.  The assembly functions read only the
summands and the horizontal pieces of a `DoubleComplex`: each block of D
is filled entry by entry from a dense view of a boundary or chain-map
matrix.
"""

from chain_canon import apply_chain


def dense(rows, width):
    """The dense matrix of the given width with these nonzero rows."""
    out = []
    for row in rows:
        full = [0] * width
        for j, x in row:
            full[j] += x
        out.append(tuple(full))
    return tuple(out)


def sparse_rows(m):
    """The nonzero entries (column, value) of each row, columns ascending."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in m)


def boundary_matrix(qc, k):
    """boundaries[k] of a quotient, dense: column j sums (-1)^i over the
    faces i of k-simplex j, each at the row of its orbit."""
    mat = [[0] * len(qc.simplices[k]) for _ in qc.simplices[k - 1]]
    for j, s in enumerate(qc.simplices[k]):
        for i in range(k + 1):
            _, idx = qc.locate(s.chain[:i] + s.chain[i + 1:])
            mat[idx][j] += (-1) ** i
    return tuple(tuple(r) for r in mat)


def chain_map_matrix(sub, sup, k, twist=None):
    """The k-th matrix of `chain_canon.induced_map(sub, sup)` (or of
    `derived_build.twisted_map(sub, sup, twist)`), dense: a 1 at the orbit
    in sup of each (twisted) k-simplex of sub."""
    mat = [[0] * len(sub.simplices[k]) for _ in sup.simplices[k]]
    for j, s in enumerate(sub.simplices[k]):
        chain = s.chain if twist is None else apply_chain(twist, s.chain)
        mat[sup.locate(chain)[1]][j] += 1
    return tuple(tuple(r) for r in mat)


def cochain_dim(dc, p, q):
    if not (0 <= p < len(dc.columns)) or q < 0:
        return 0
    return sum(len(s.qc.simplices[q]) for s in dc.columns[p] if q <= s.qc.dim)


def offsets(dc, p, q):
    out = []
    acc = 0
    for s in dc.columns[p]:
        out.append(acc)
        if q <= s.qc.dim:
            acc += len(s.qc.simplices[q])
    return out


def vertical_matrix(dc, p, q):
    """(-1)^p times the coboundary: block diagonal over summands."""
    mat = [[0] * cochain_dim(dc, p, q) for _ in range(cochain_dim(dc, p, q + 1))]
    roff = offsets(dc, p, q + 1)
    coff = offsets(dc, p, q)
    sign = -1 if p % 2 else 1
    for idx, s in enumerate(dc.columns[p]):
        if q + 1 > s.qc.dim:
            continue
        # (q-simplices) x (q+1-simplices)
        bnd = dense(s.qc.boundaries[q + 1], len(s.qc.simplices[q + 1]))
        for i in range(len(s.qc.simplices[q + 1])):
            for j in range(len(s.qc.simplices[q])):
                if bnd and bnd[j][i]:
                    mat[roff[idx] + i][coff[idx] + j] = sign * bnd[j][i]
    return mat


def horizontal_matrix(dc, p, q):
    """Cech differential: column p cochains to column p+1 cochains."""
    mat = [[0] * cochain_dim(dc, p, q) for _ in range(cochain_dim(dc, p + 1, q))]
    if p + 1 >= len(dc.columns):
        return mat
    roff = offsets(dc, p + 1, q)
    coff = offsets(dc, p, q)
    for piece in dc.pieces[p]:
        tgt = dc.columns[p + 1][piece.target]
        src = dc.columns[p][piece.source]
        if q > tgt.qc.dim or q > src.qc.dim:
            continue
        # src-simplices x tgt-simplices
        cmat = dense(piece.chain_map.matrix(q), len(tgt.qc.simplices[q]))
        for i in range(len(tgt.qc.simplices[q])):
            for j in range(len(src.qc.simplices[q])):
                if cmat and cmat[j][i]:
                    mat[roff[piece.target] + i][coff[piece.source] + j] += \
                        piece.sign * cmat[j][i]
    return mat


def total_dims(dc):
    max_q = max(s.qc.dim for col in dc.columns for s in col)
    kmax = len(dc.columns) - 1 + max_q
    return [sum(cochain_dim(dc, p, k - p) for p in range(len(dc.columns)))
            for k in range(kmax + 2)]


def total_positions(dc, k):
    """Basis labels (p, local index) of the total degree-k cochains."""
    return [(p, i) for p in range(len(dc.columns))
            for i in range(cochain_dim(dc, p, k - p))]


def total_differential(dc, k):
    """D = vertical + horizontal from total degree k to k+1."""
    src = total_positions(dc, k)
    dst = total_positions(dc, k + 1)
    dst_index = {pos: i for i, pos in enumerate(dst)}
    mat = [[0] * len(src) for _ in range(len(dst))]
    col_offset = {}
    acc = 0
    for p in range(len(dc.columns)):
        col_offset[p] = acc
        acc += cochain_dim(dc, p, k - p)
    for p in range(len(dc.columns)):
        q = k - p
        if q < 0 or cochain_dim(dc, p, q) == 0:
            continue
        vm = vertical_matrix(dc, p, q)
        for i in range(cochain_dim(dc, p, q + 1)):
            for j in range(cochain_dim(dc, p, q)):
                if vm[i][j]:
                    mat[dst_index[(p, i)]][col_offset[p] + j] += vm[i][j]
        hm = horizontal_matrix(dc, p, q)
        for i in range(cochain_dim(dc, p + 1, q)):
            for j in range(cochain_dim(dc, p, q)):
                if hm[i][j]:
                    mat[dst_index[(p + 1, i)]][col_offset[p] + j] += hm[i][j]
    return tuple(tuple(r) for r in mat)
