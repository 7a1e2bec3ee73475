"""Experimental n = 4 checks: the seed, the structural identities of
the SL_4 walk, and what the SL_4 and GL_4 walks build (about 2 s each on
a 2-vCPU VM).  The comparison of the faces with the loops they replace
is in `test_orbitwise_walk.py`, opt-in (WELLROUND_RUN_N4=1).
"""

import time
from collections import Counter

import wellround.cells as cells
import wellround.lattice as lattice
from wellround.cells import (
    cell_cofaces, cell_faces, cell_from_config, enumerate_W,
    expected_top_dim, root_form,
)
from wellround.lattice import GroupSpec, minimal_vectors, normalize


def test_n4_seed_is_a_zero_cell():
    seed_form = normalize(root_form(4))
    mins = minimal_vectors(seed_form)
    assert len(mins.vectors) == 10
    cell = cell_from_config(mins.vectors)
    assert cell.dim == 0
    cofs = cell_cofaces(cell)
    assert cofs and all(c.dim == 1 for c in cofs)
    # face/coface duality at the seed
    for c in cofs[:3]:
        assert any(f.config == cell.config for f in cell_faces(c))


def _counting_builds(monkeypatch) -> list:
    """The configurations `cell_from_config` is asked for, by the walk."""
    built = []
    real = cells.cell_from_config
    monkeypatch.setattr(cells, "cell_from_config", lambda config, **kwargs:
                        built.append(config) or real(config, **kwargs))
    return built


def test_n4_structural_identities(monkeypatch):
    # the walk builds the seed, the representatives of the other 17
    # orbits, and a cell to decide each of 6 more S-orbits of cofaces
    # with no member filed: 4 lie in orbits already found and 2 are no
    # cells (80 builds when it built the least face and coface of every
    # S-orbit)
    built = _counting_builds(monkeypatch)
    started = time.time()
    cx = enumerate_W(GroupSpec(4, "sl"), experimental_n4=True)
    assert cx.top_dim == expected_top_dim(4) == 6
    assert (len(cx.cells), len(built)) == (18, 24)
    # structural identities at the complex level: incidences drop one
    # dimension, witnesses live in the group, witnesses reproduce the
    # representative configurations exactly
    from wellround.exactla import int_matvec
    from wellround.lattice import canonical_config
    for inc in cx.incidences:
        assert cx.cell_by_id(inc.cell).dim == cx.cell_by_id(inc.face).dim + 1
        assert cx.group.contains(inc.via)
    for oc in cx.cells:
        assert minimal_vectors(oc.cell.witness).vectors == oc.cell.config
    print(f"[PASS] n=4 structural identities "
          f"({time.time() - started:.1f}s, orbits "
          f"{dict((d, len(c)) for d, c in sorted(cx.by_dim().items()))})")


def test_gl4_walk_builds_each_image_table_once(monkeypatch):
    # GL_4's largest stabilizer has 1,152 elements.  The walk moves
    # vectors and configurations by the generators of each stabilizer
    # and by the elements that locate configurations; the rest of a
    # stabilizer acts by permutations composed from its generators'.  It
    # builds each of its 33 tables once and reads 116 images from them
    # again, where moving by every stabilizer element took 2,513 tables
    # and 29,028 reads, and checking each located configuration's witness
    # by moving the configuration took 267 and 174 (it is now checked by
    # the signed positions of the witness's images, with no table).  It
    # builds 23 cells: the 18 representatives, and
    # one to decide each of 5 more S-orbits of cofaces with no member
    # filed, 2 of them no cells (77 when it built the least face and
    # coface of every S-orbit)
    cells_built = _counting_builds(monkeypatch)
    lattice._image_table.cache_clear()
    built = Counter()
    real = lattice._ImageTable.__init__
    monkeypatch.setattr(lattice._ImageTable, "__init__",
                        lambda table, u: built.update([u]) or real(table, u))
    started = time.time()
    enumerate_W(GroupSpec(4, "gl"), experimental_n4=True)
    info = lattice._image_table.cache_info()
    print(f"[PASS] GL_4 walk ({time.time() - started:.1f}s, {info})")
    assert set(built.values()) == {1}
    assert (info.misses, info.hits) == (len(built), 116) == (33, 116)
    assert len(cells_built) == 23
