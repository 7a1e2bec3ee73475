"""Orbit location by the equivalence search alone, as `cells._OrbitIndex`
located every configuration before it looked up the orbits of W for a
congruence group in the coset space Gamma \\ SL_n(Z), and those of a
derived flag subcomplex in W's orbit data, and before it filed the
images of a located configuration under a stabilizer from its witness:
the search runs, under the congruence condition and the flag, against
each representative of the same dimension and `_orbit_key`.  Kept only
here, as the oracle that the tests compare the lookups with."""

from contextlib import contextmanager

from wellround import cells
from wellround.lattice import config_equiv


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


def search_file(index, config, oid, w):
    """File the configuration as the search locates it, which must be in
    orbit oid."""
    hit = search_locate(index, config)
    if hit is None or hit[0] != oid:
        raise AssertionError(f"the search puts {config} outside orbit {oid}")


@contextmanager
def searching():
    """Every orbit index locates by the search while the block runs, also
    the configurations it would file from the witnesses it has."""
    saved = cells._OrbitIndex.locate, cells._OrbitIndex.file
    cells._OrbitIndex.locate = search_locate
    cells._OrbitIndex.file = search_file
    try:
        yield
    finally:
        cells._OrbitIndex.locate, cells._OrbitIndex.file = saved
