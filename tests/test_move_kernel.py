"""The images of vectors and configurations under a group element
(`lattice.move_config`, `move_each`) against canonicalising every
product again, the
integer products it reads against the naive sums, and what the tables
save on the SL_3 level-1 build: each image is computed once, and each
face of the subdivision is located once."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wellround.boundary as boundary
import wellround.cells as cells
import wellround.lattice as lattice
import wellround.quotient as quotient
from wellround.boundary import build_double_complex
from wellround.exactla import int_matmul, int_matvec
from wellround.lattice import (
    GroupSpec, canonical_config, canonical_vector, move_config, move_each,
)
from wellround.quotient import IncompatibleComplexes


@st.composite
def unimodular(draw, n):
    """A product of signed permutations and elementary matrices."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.permutations(range(n)))[:2]
        if draw(st.booleans()):
            u[i], u[j] = u[j], [-x for x in u[i]]
        else:
            c = draw(st.integers(-3, 3))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return tuple(map(tuple, u))


@st.composite
def moves(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    vectors = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n).filter(any),
                            min_size=1, max_size=8))
    return draw(unimodular(n)), canonical_config(vectors)


@given(moves())
@settings(max_examples=150, deadline=None)
def test_images_are_canonicalised_products(move):
    u, config = move
    assert move_config(u, config) == canonical_config(int_matvec(u, v)
                                                      for v in config)
    # sign canonicalisation included: v and -v have one image
    negated = tuple(tuple(-x for x in v) for v in config)
    assert move_each(u, config) == move_each(u, negated) == tuple(
        canonical_vector(int_matvec(u, v)) for v in config)
    # read from the table after the first time
    assert move_config(u, config) is move_config(u, config)


def _naive_matmul(a, b):
    width = len(b[0]) if b else 0
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(len(b)))
                       for j in range(width)) for i in range(len(a)))


def _naive_matvec(a, v):
    return tuple(sum(row[t] * v[t] for t in range(len(v))) for row in a)


@st.composite
def products(draw):
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    entries = st.integers(-10 ** 12, 10 ** 12)
    a = tuple(tuple(draw(entries) for _ in range(inner)) for _ in range(rows))
    b = tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(inner))
    return a, b, tuple(draw(entries) for _ in range(inner))


@given(products())
@settings(max_examples=200, deadline=None)
def test_products_are_naive_sums(abv):
    a, b, v = abv
    assert int_matmul(a, b) == _naive_matmul(a, b)
    assert int_matvec(a, v) == _naive_matvec(a, v)


@pytest.mark.parametrize("a, b, v, product, image", [
    ((), (), (), (), ()),
    (((),), (), (), ((),), (0,)),
    (((7,),), ((-3,),), (5,), ((-21,),), (35,)),
])
def test_empty_and_one_by_one_products(a, b, v, product, image):
    assert int_matmul(a, b) == product == _naive_matmul(a, b)
    assert int_matvec(a, v) == image == _naive_matvec(a, v)


def test_sl3_build_computes_each_image_once(monkeypatch):
    # every (element, vector) image is computed once, and so is every
    # (element, configuration) image; the build before the tables made
    # 16,852 products in the chain moves alone, for 1,443 distinct pairs.
    # The quotient moves each chain orbit once, from its first chain met:
    # moving every chain by its whole stabilizer computed 2,451 vector and
    # 3,449 configuration images.  The walk moves each representative's
    # face candidates, faces, cofaces and neighbours by its stabilizer,
    # which adds images: 2,354 and 2,168 when it solved every neighbour.
    # The flag quotients are lifted off W's chain orbits and move no
    # chain: deriving and subdividing the three W_F took 3,084 and 2,383.
    # The walk makes no moved face or coface a cell, and so moves no
    # contact of one: 1,498 and 732 when it did.  A stabilizer now acts
    # on its representative's contacts and closure by permutations
    # composed from its generators', so only the generators move them by
    # matrix: 1,319 and 703 when every element did.  A configuration filed
    # from a located one is checked by the signed positions of its
    # witness's images, with no image table: 401 and 313 when each filing
    # moved the configuration by its new witness.  A representative's
    # closure takes each face from its location and moves no closure of a
    # face already in it: 324 and 284 when it moved every face's
    boundary._level_one.cache_clear()
    lattice._image_table.cache_clear()
    computed = Counter()
    real = lattice._ImageTable.__missing__

    def counting(table, key):
        computed[table.u, key] += 1
        return real(table, key)

    monkeypatch.setattr(lattice._ImageTable, "__missing__", counting)
    build_double_complex(GroupSpec(3, "sl"))
    assert set(computed.values()) == {1}
    vectors = sum(type(key[0]) is int for _, key in computed)
    assert (vectors, len(computed) - vectors) == (318, 267)


def test_sl3_build_tables_each_stabilizer_once(monkeypatch, cold_level_one):
    # each element of the stabilizers of W's five representatives is
    # tabled once as a signed permutation of its representative's
    # vectors, 92 in all, taken from the search leaf that kept it (92
    # `signed_permutation` calls when each was tabled after its search),
    # and the build (the walk above all) makes no moved face or coface a
    # cell
    tabled, moved = [], []
    real_moved = cells._moved_cell
    monkeypatch.setattr(cells, "signed_permutation", lambda u, config:
                        tabled.append((u, config)))
    monkeypatch.setattr(cells, "_moved_cell", lambda cell, g: moved.append(
        cell) or real_moved(cell, g))
    w = build_double_complex(GroupSpec(3, "sl")).w_complex
    assert moved == [] and tabled == []
    assert [list(table) for table in w.index.tables] == \
        [list(w.stabilizers[oc.id]) for oc in w.cells]
    assert sum(map(len, w.index.tables)) == 92


def test_sl3_build_locates_each_face_once(monkeypatch):
    # the boundary pass of W's quotient carries each of its 71 faces once
    # and keeps the elements; the flag quotients read their 652 faces and
    # the 368 chain-map images off W's, with no chain lookup.  Locating
    # every face and image took 1,091 lookups, and 1,814 when the faces
    # were located twice
    boundary._level_one.cache_clear()
    calls = []
    real = quotient._ChainIndexer._anchored
    monkeypatch.setattr(quotient._ChainIndexer, "_anchored",
                        lambda self, chain: calls.append(chain) or
                        real(self, chain))
    build_double_complex(GroupSpec(3, "sl"))
    level = boundary._level_one(GroupSpec(3, "sl"), 0)
    faces = [sum(len(located) for per_dim in qc.located_faces
                 for located in per_dim) for qc in level.quotients.values()]
    images = sum(len(cm.source.simplices[k])
                 for pieces in level.deletions.values()
                 for _, _, cm in pieces for k in range(len(cm.matrices)))
    assert (len(calls), faces[0], sum(faces), images) == (71, 71, 723, 368)


def test_lifted_quotient_has_no_chain_index():
    # a quotient lifted through Omega keeps matrices only: every chain
    # question is refused alike
    qc = build_double_complex(GroupSpec(2, "gamma0", 11)).w_qc
    chain = qc.simplices[0][0][0].chain
    with pytest.raises(IncompatibleComplexes, match="no chain index"):
        qc.located_faces
    with pytest.raises(IncompatibleComplexes, match="no chain index"):
        qc.stabilizers
    with pytest.raises(IncompatibleComplexes, match="no chain index"):
        qc.locate(chain)
    with pytest.raises(IncompatibleComplexes, match="no chain index"):
        qc.carry(chain)
