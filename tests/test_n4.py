"""Experimental n = 4 checks: structural identities only, opt-in.

The full enumeration is expensive; set WELLROUND_RUN_N4=1 to run it.
The cheap seed-level checks always run.
"""

import os
import time
from collections import Counter

import pytest

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


@pytest.mark.skipif(not os.environ.get("WELLROUND_RUN_N4"),
                    reason="set WELLROUND_RUN_N4=1 for the full n=4 walk (~12 min)")
def test_n4_structural_identities():
    started = time.time()
    cx = enumerate_W(GroupSpec(4, "sl"), experimental_n4=True)
    assert cx.top_dim == expected_top_dim(4) == 6
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


@pytest.mark.skipif(not os.environ.get("WELLROUND_RUN_N4"),
                    reason="set WELLROUND_RUN_N4=1 for the GL_4 walk")
def test_gl4_walk_builds_each_image_table_once(monkeypatch):
    # GL_4's largest stabilizer has 1,152 elements, and the walk moves by
    # each in turn: with 1,024 tables kept it evicted every table before
    # its next use (12,944 misses against 23,659 hits, 2.5-3.2 s on a
    # 2-vCPU VM); with 2,048 it builds each of its 2,513 tables once
    # (2.2 s).  The walk reads 32,118 images from them: 34,090 when it
    # also moved the contacts of every moved face and coface
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
    assert (info.misses, info.hits) == (len(built), 32118) == (2513, 32118)
