"""Orbit location by the equivalence search alone, as `cells._OrbitIndex`
located every configuration before it looked up the orbits of W for a
congruence group in the coset space Gamma \\ SL_n(Z), and those of a
derived flag subcomplex in W's orbit data: the search runs, under the
congruence condition and the flag, against each representative of the
same dimension and `_orbit_key`, and every stabilizer is searched by
`config_stabilizer`.  Kept only here, as the oracle that the tests
compare the lookups with."""

from contextlib import contextmanager

from wellround import cells
from wellround.lattice import config_equiv, config_stabilizer


def search_locate(index, config, dim=None):
    hit = index._hits.get(config)
    if hit is not None:
        return hit
    if dim is None:
        dim = cells.cell_dimension(config)
    for oid in index.buckets.get((dim, cells._orbit_key(config)), ()):
        u = config_equiv(config, index.orbits[oid].cell.config, index.group,
                         flag=index.constraint)
        if u is not None:
            index._hits[config] = (oid, u)
            return oid, u
    return None


def search_stabilizer(index, oid):
    return config_stabilizer(index.orbits[oid].cell.config, index.group,
                             flag=index.constraint).elements


@contextmanager
def searching():
    """Every orbit index locates and finds its stabilizers by the search
    while the block runs."""
    saved = cells._OrbitIndex.locate, cells._OrbitIndex.stabilizer
    cells._OrbitIndex.locate = search_locate
    cells._OrbitIndex.stabilizer = search_stabilizer
    try:
        yield
    finally:
        cells._OrbitIndex.locate, cells._OrbitIndex.stabilizer = saved
