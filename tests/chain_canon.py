"""Chain canonical forms as quotients computed them before they read
image tables: every stabilizer element is applied to every member of the
chain, and each image is canonicalised again; and the carry of a chain
as it was before the quotient kept the least image of each anchored
chain.  Also the chain enumeration as it was, with the vector sets
rebuilt at every comparison, and the chain maps as the build located
them before it lifted them (`induced_map`).  Kept only here, as the
oracles that the tests compare `quotient._ChainIndexer`,
`quotient._enumerate_chains` and `quotient.FlagLift` with.

The stabilizers come from `config_stabilizer` and the simplex ids from
the quotient's simplices, so nothing here reads the indexer."""

from wellround.exactla import (
    CertificateError, int_matmul, int_matvec, sparse_matmul,
)
from wellround.lattice import canonical_config, config_stabilizer
from wellround.quotient import ChainMap, IncompatibleComplexes


def apply_config(u, config):
    return canonical_config(tuple(int_matvec(u, v)) for v in config)


def apply_chain(u, chain):
    return tuple(apply_config(u, c) for c in chain)


def stabilizers(complex):
    """The stabilizer elements of each orbit representative, by orbit id."""
    return [config_stabilizer(oc.cell.config, complex.group,
                              flag=complex.constraint).elements
            for oc in complex.cells]


def canonical_chain(stab, chain):
    """The least image of the chain under the stabilizer elements."""
    return min(apply_chain(g, chain) for g in stab)


def simplex_ids(qc):
    """Canonical chain -> (dimension, index) over the quotient's simplices."""
    return {s.chain: (k, i) for k, level in enumerate(qc.simplices)
            for i, s in enumerate(level)}


def locate(complex, stabs, ids, chain):
    """(dimension, index) of the simplex orbit of the chain: the top cell
    is located through the orbit complex, the chain is moved so that the
    top is the representative, and its stabilizer picks the least image."""
    oid, u = complex.locate(chain[-1])
    moved = apply_chain(u, chain[:-1]) + (complex.cell_by_id(oid).config,)
    return ids[canonical_chain(stabs[oid], moved)]


def carry(complex, stabs, ids, chain):
    """((dimension, index), g u): `locate`, with the element carrying the
    chain onto its representative, g the first stabilizer element giving
    the least image of the chain anchored by u."""
    oid, u = complex.locate(chain[-1])
    moved = apply_chain(u, chain[:-1]) + (complex.cell_by_id(oid).config,)
    image, i = min((apply_chain(g, moved), i)
                   for i, g in enumerate(stabs[oid]))
    return ids[image], int_matmul(stabs[oid][i], u)


def enumerate_chains(poset, top):
    """All strictly nested chains of configs ending at `top`, in the order
    the quotient enumerates them."""
    chains = [(top,)]
    pool = [c for c in poset if c != top and set(c) > set(top)]

    def grow(prefix):
        first = prefix[0]
        for c in pool:
            if set(c) > set(first):
                chain = (c,) + prefix
                chains.append(chain)
                grow(chain)

    grow((top,))
    return chains


def induced_map(sub, sup):
    """The chain map sending a simplex orbit of `sub` to the orbit of its
    representative chain in `sup`, located by `sup`'s own chain index,
    with the elements that carry the chains there; checked to commute
    with the boundaries.  The build read its chain maps so before it
    lifted them off W's chain orbits (`quotient.FlagLift`)."""
    if sub.dim > sup.dim:
        raise IncompatibleComplexes("source complex exceeds target dimension")
    mats = []
    elements = []
    for k in range(sub.dim + 1):
        rows = [[] for _ in sup.simplices[k]]
        carried = []
        for j, s in enumerate(sub.simplices[k]):
            try:
                (kk, idx), e = sup.carry(s.chain)
            except KeyError as exc:
                raise IncompatibleComplexes(str(exc)) from exc
            if kk != k:
                raise CertificateError("chain map changes the dimension")
            rows[idx].append((j, 1))
            carried.append(e)
        mats.append(tuple(map(tuple, rows)))
        elements.append(tuple(carried))
    cm = ChainMap(sub, sup, tuple(mats), lambda k, j: elements[k][j])
    for k in range(1, sub.dim + 1):
        if sparse_matmul(cm.matrix(k - 1), sub.boundaries[k]) != \
                sparse_matmul(sup.boundaries[k], cm.matrix(k)):
            raise CertificateError("chain map does not commute with boundaries")
    return cm
