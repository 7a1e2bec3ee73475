"""The flag quotients lifted off W's chain orbits (`quotient.FlagLift`)
against the quotients of the derived flag subcomplexes that the build
read before, `barycentric_quotient(subcomplex_WF(W, F))`, with their
chain maps located chain by chain (`chain_canon.induced_map`).

On SL_2, GL_2, SL_3 and GL_3, both enumeration variants and every flag
type, one bijection of the simplex orbits matches: a lifted simplex g.tau
goes to the orbit of its chain, located in W_F as it was before (the
least image of the chain moved onto its top cell's representative).
Through it the counts, the boundaries, the stabilizers (as sets) and
every chain map agree, and every located-face and chain-map element
carries its chain onto the representative it names.  The double
complexes built from the lift give the digests of the build from derived
subcomplexes (`golden/double_complex_digests.json`): dims, restriction,
total cohomology and spectral pages over Q and F_3.  And the SL_3
level-1 build derives no W_F, subdivides W alone, carries no chain
outside W's quotient and searches only in the walk."""

import json
from collections import Counter
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chain_canon
import wellround.boundary as boundary
import wellround.cells as cells
import wellround.quotient as quotient
from chain_canon import apply_chain, induced_map
from wellround.boundary import (
    build_double_complex, restriction, spectral_sequence, total_cohomology,
)
from wellround.cells import enumerate_W, subcomplex_WF
from wellround.exactla import QQ, Echelon, int_inverse, int_matmul, int_matvec
from wellround.flags import flag_types, in_parabolic, standard_flag
from wellround.lattice import (
    GroupSpec, canonical_config, canonical_vector, signed_permutation,
)
from wellround.quotient import FlagLift, barycentric_quotient

LEVEL_ONE = {"SL_2": GroupSpec(2, "sl"), "GL_2": GroupSpec(2, "gl"),
             "SL_3": GroupSpec(3, "sl"), "GL_3": GroupSpec(3, "gl")}
CONGRUENCE = {
    "Gamma_0(11)": GroupSpec(2, "gamma0", 11),
    "Gamma_0(6)": GroupSpec(2, "gamma0", 6),
    "Gamma(3)": GroupSpec(2, "gamma", 3),
    "Gamma_0(2) in SL_3": GroupSpec(3, "gamma0", 2),
    "Gamma_0(3) in SL_3": GroupSpec(3, "gamma0", 3),
    "Gamma(2) in SL_3": GroupSpec(3, "gamma", 2),
}
DIGESTS = Path(__file__).parent / "golden" / "double_complex_digests.json"


def _types(n):
    return [dims for p in range(n - 1) for dims in flag_types(n, p + 2)]


@cache
def _both(name, variant):
    """(w_qc, per flag type: (lifted, derived quotient, bijection), lifted
    deletion maps): the bijection sends each lifted simplex, by dimension,
    to the index of its chain's orbit among the derived simplices."""
    group = LEVEL_ONE[name]
    w = enumerate_W(group, variant=variant)
    w_qc = barycentric_quotient(w)
    lift = FlagLift(w_qc)
    pairs = {None: (w_qc, w_qc, [list(range(len(level)))
                                 for level in w_qc.simplices])}
    for dims in _types(group.n):
        flag = standard_flag(group.n, dims)
        lifted = lift.quotient(flag)
        wf = subcomplex_WF(w, flag)
        old = barycentric_quotient(wf)
        stabs = chain_canon.stabilizers(wf)
        ids = chain_canon.simplex_ids(old)
        bijection = []
        for k, level in enumerate(lifted.simplices):
            images = []
            for s in level:
                kk, idx = chain_canon.locate(wf, stabs, ids, s.chain)
                assert kk == k
                images.append(idx)
            bijection.append(images)
        pairs[dims] = (lifted, old, bijection, wf, stabs, ids)
    maps = {(dims, i): lift.deletion(dims, i)
            for dims in _types(group.n) for i in range(len(dims))}
    return pairs, maps


CASES = [(name, variant) for name in LEVEL_ONE for variant in (0, 1)]


def _dense(rows, height, width):
    mat = [[0] * width for _ in range(height)]
    for r, row in enumerate(rows):
        for c, x in row:
            mat[r][c] = x
    return mat


def _permuted(rows, width, row_map, col_map, height):
    """The sparse matrix with row r moved to row_map[r] and column c to
    col_map[c], dense."""
    mat = [[0] * width for _ in range(height)]
    for r, row in enumerate(rows):
        for c, x in row:
            mat[row_map[r]][col_map[c]] = x
    return mat


@pytest.mark.parametrize("name, variant", CASES)
def test_simplices_match_one_to_one(name, variant):
    pairs, _ = _both(name, variant)
    for dims in _types(LEVEL_ONE[name].n):
        lifted, old, bijection = pairs[dims][:3]
        assert lifted.counts() == old.counts()
        for k, images in enumerate(bijection):
            assert sorted(images) == list(range(len(old.simplices[k])))


@pytest.mark.parametrize("name, variant", CASES)
def test_boundaries_match(name, variant):
    pairs, _ = _both(name, variant)
    for dims in _types(LEVEL_ONE[name].n):
        lifted, old, bijection = pairs[dims][:3]
        for k in range(1, lifted.dim + 1):
            height, width = len(old.simplices[k - 1]), len(old.simplices[k])
            assert _permuted(lifted.boundaries[k], width, bijection[k - 1],
                             bijection[k], height) == \
                _dense(old.boundaries[k], height, width)


@pytest.mark.parametrize("name, variant", CASES)
def test_stabilizers_match_as_sets(name, variant):
    # e carries the lifted chain onto the derived representative, so the
    # lifted stabilizer is e^-1 (the derived one) e
    pairs, _ = _both(name, variant)
    for dims in _types(LEVEL_ONE[name].n):
        lifted, old, bijection, wf, stabs, ids = pairs[dims]
        for k, level in enumerate(lifted.simplices):
            for s, stabilizer in zip(level, lifted.stabilizers[k]):
                (_, idx), e = chain_canon.carry(wf, stabs, ids, s.chain)
                e_inv = int_inverse(e)
                assert set(stabilizer) == {
                    int_matmul(int_matmul(e_inv, g), e)
                    for g in old.stabilizers[k][idx]}


@pytest.mark.parametrize("name, variant", CASES)
def test_located_faces_carry_their_chains(name, variant):
    pairs, _ = _both(name, variant)
    group = LEVEL_ONE[name]
    for dims in _types(group.n):
        lifted = pairs[dims][0]
        flag = standard_flag(group.n, dims)
        for k, level in enumerate(lifted.located_faces):
            for s, faces in zip(lifted.simplices[k], level):
                assert len(faces) == (k + 1 if k else 0)
                for i, (f, e) in enumerate(faces):
                    assert group.contains(e) and in_parabolic(e, flag)
                    assert apply_chain(e, s.chain[:i] + s.chain[i + 1:]) == \
                        lifted.simplices[k - 1][f].chain


@pytest.mark.parametrize("name, variant", CASES)
def test_chain_maps_match_the_located_ones(name, variant):
    pairs, maps = _both(name, variant)
    for (dims, i), cm in maps.items():
        short = dims[:i] + dims[i + 1:] or None
        src, tgt = pairs[dims], pairs[short]
        want = induced_map(src[1], tgt[1])
        for k, m in enumerate(cm.matrices):
            height, width = len(tgt[1].simplices[k]), len(src[1].simplices[k])
            assert _permuted(m, width, tgt[2][k], src[2][k], height) == \
                _dense(want.matrices[k], height, width)
            image = {j: r for r, row in enumerate(m) for j, _ in row}
            for j, (s, e) in enumerate(zip(cm.source.simplices[k],
                                           cm.elements[k])):
                assert apply_chain(e, s.chain) == \
                    cm.target.simplices[k][image[j]].chain


def _digest(dc):
    """The answers of a double complex that do not depend on the order of
    its generators."""
    out = {"dims": list(dc.dims)}
    for f in ("Q", "Fp:3"):
        out["restriction " + f] = [
            [d.degree, d.dim_retract, d.dim_total, d.rank, d.interior]
            for d in restriction(dc, f).degrees]
        out["total_cohomology " + f] = [[d["degree"], d["betti"]]
                                        for d in total_cohomology(dc, f)]
        pages, abutment = spectral_sequence(dc, f)
        out["pages " + f] = [
            [p.r, sorted([list(pq), n] for pq, n in p.entries.items()),
             sorted([list(pq), sum(map(sum, m))]
                    for pq, m in p.differentials.items())] for p in pages]
        out["abutment " + f] = abutment
    return out


@pytest.mark.parametrize("name", list(CONGRUENCE))
def test_double_complex_digests_are_the_derived_builds(name):
    want = json.loads(DIGESTS.read_text())[name]
    assert _digest(build_double_complex(CONGRUENCE[name])) == want


def test_sl3_build_lifts_the_flag_quotients(monkeypatch, cold_level_one):
    # the SL_3 level-1 build derives no W_F (3 derivations when it
    # subdivided them), subdivides W alone (4 quotients), carries only
    # the 71 faces of W's quotient (1,091 chains carried, into all four),
    # and finds no witness of a root of a flag orbit: its one-point lift
    # reads no element (9 witnesses, from 25 rational flags, when each
    # root's witness was found as the root was listed)
    calls = {"derive": 0, "barycentric_quotient": 0, "flag_equivalent": 0,
             "rational_flag": 0}
    carried = []

    def counted(module, name, key):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(cells, "_derive", "derive")
    counted(boundary, "barycentric_quotient", "barycentric_quotient")
    counted(cells, "flag_equivalent", "flag_equivalent")
    counted(cells, "_rational_flag", "rational_flag")
    real_carry = quotient._ChainIndexer.carry
    monkeypatch.setattr(quotient._ChainIndexer, "carry",
                        lambda self, chain: carried.append(
                            self.complex.constraint) or real_carry(self,
                                                                   chain))
    build_double_complex(GroupSpec(3, "sl"))
    assert calls == {"derive": 0, "barycentric_quotient": 1,
                     "flag_equivalent": 0, "rational_flag": 0}
    assert carried == [None] * 71


def test_congruence_build_reads_the_witnesses_late(monkeypatch,
                                                    cold_level_one):
    # the lift of Gamma_0(2) in SL_3(Z) through Omega reads the lifted
    # elements, so the witness of every root of a flag orbit is found
    # then, once per distinct flag (9, as when they were found as the
    # roots were listed), and the answers are those of the derived build
    calls = []
    real = cells.flag_equivalent
    monkeypatch.setattr(cells, "flag_equivalent", lambda *args: calls.append(
        args) or real(*args))
    name = "Gamma_0(2) in SL_3"
    dc = build_double_complex(CONGRUENCE[name])
    assert len(calls) == 9
    assert _digest(dc) == json.loads(DIGESTS.read_text())[name]


@pytest.mark.parametrize("group", [GroupSpec(2, "gamma0", 11),
                                   GroupSpec(3, "gamma0", 2)])
def test_flag_lift_refuses_a_congruence_group(group):
    # Gamma_F-orbits of flags of one type are not one orbit there, so the
    # lift, which keeps every flag of flats as Gamma-equivalent to F,
    # refuses W mod a congruence group, and a flag subcomplex's quotient
    w = enumerate_W(group)
    with pytest.raises(quotient.IncompatibleComplexes):
        FlagLift(barycentric_quotient(w))
    level = enumerate_W(GroupSpec(group.n, "sl"))
    wf = subcomplex_WF(level, standard_flag(group.n, (1,)))
    with pytest.raises(quotient.IncompatibleComplexes):
        FlagLift(barycentric_quotient(wf))


def test_sl3_build_searches_in_the_walk_only(monkeypatch, cold_level_one):
    # W's quotient locates the top cell of every face through the
    # closure of its coface, so the build makes the walk's searches (11
    # when the quotient searched for 5 of those top cells).  The walk
    # locates a stabilizer orbit of neighbours from a member already
    # filed, and searches only one that has none: 1 search, where it
    # searched the first neighbour met of every orbit not yet filed, 6
    calls = []
    real = cells.config_equiv
    monkeypatch.setattr(cells, "config_equiv", lambda *args, **kwargs:
                        calls.append(args) or real(*args, **kwargs))
    build_double_complex(GroupSpec(3, "sl"))
    assert len(calls) == 1


def _eliminated_flats(config):
    """The flats by elimination, as `cells._flats` found them before it
    read them off integer normals: each k vectors independent and in no
    flat found yet span the flat of every vector their echelon basis
    spans."""
    out = [()]
    for k in range(1, len(config[0])):
        found = []
        for sub in combinations(range(len(config)), k):
            if any(flat.issuperset(sub) for flat in found):
                continue
            span = Echelon(QQ)
            if all(span.add(config[i]) for i in sub):
                found.append(frozenset(j for j, v in enumerate(config)
                                       if span.spans(v)))
        out.append(tuple(sorted(found, key=sorted)))
    return tuple(out)


@st.composite
def configurations(draw):
    n = draw(st.integers(2, 4))
    vectors = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                            min_size=1, max_size=n + 5))
    return canonical_config(v for v in vectors if any(v)) or ((1,) * n,)


@given(configurations())
@settings(max_examples=300, deadline=None)
def test_flats_match_elimination(config):
    assert cells._flats.__wrapped__(config) == _eliminated_flats(config)


@pytest.mark.parametrize("name, variant", CASES)
def test_tables_match_the_matrices(name, variant):
    # every representative's stabilizer is tabled from its search as the
    # signed permutations that `signed_permutation` gives, and each
    # element's permutation of the flat numbers, composed from its
    # generators', moves each flat as the element's matrix moves its
    # vectors; a numbered flag is the tuple of its members' numbers
    w = enumerate_W(LEVEL_ONE[name], variant=variant)
    for oc in w.cells:
        config, stabilizer = oc.cell.config, w.stabilizers[oc.id]
        table = w.index.flats(oc.id)
        assert table.sets == [x for level in _eliminated_flats(config)
                              for x in level]
        assert list(w.index.tables[oc.id]) == list(stabilizer)
        assert list(table.perms) == list(stabilizer)
        for s in stabilizer:
            assert w.index.tables[oc.id][s] == signed_permutation(s, config)
            moved = [frozenset(config.index(canonical_vector(int_matvec(
                s, config[j]))) for j in x) for x in table.sets]
            assert [table.sets[y] for y in table.perms[s]] == moved
        for dims in _types(len(config[0])):
            assert [tuple(table.sets[x] for x in flag)
                    for flag in table.flags(dims)] == \
                cells._flat_flags(table.by_dim, dims)


def test_sl3_build_carries_flags_by_table(monkeypatch, cold_level_one):
    # the orbit index numbers the flats of each of W's 5 representatives
    # once, and all three flag types read them; a face of W's quotient that
    # keeps its top cell carries a numbered flag by its element's
    # permutation of the numbers, and only the last face of each of W's 26
    # simplices of dimension > 0, whose top is another cell, maps flats by
    # the positions of its element's images, each (face, flat) once.  The
    # lift scanned the flats of the face's top cell for all 652 faces of
    # the flag quotients, and moved the flats as sets 108 times
    tables, positions, mapped = [], [], Counter()
    real_table = cells._FlatTable.__init__
    monkeypatch.setattr(cells._FlatTable, "__init__", lambda self, config,
                        action: tables.append(config) or real_table(
                            self, config, action))
    real_positions = quotient._positions
    monkeypatch.setattr(quotient, "_positions", lambda u, config, target:
                        positions.append((config, target)) or
                        real_positions(u, config, target))
    real_missing = quotient._CarriedFlats.__missing__

    def missing(self, x):
        mapped[id(self), x] += 1
        return real_missing(self, x)
    monkeypatch.setattr(quotient._CarriedFlats, "__missing__", missing)
    w = build_double_complex(GroupSpec(3, "sl")).w_complex
    assert sorted(tables) == sorted(oc.cell.config for oc in w.cells)
    assert len(tables) == 5
    assert len(positions) == 26 and all(c != t for c, t in positions)
    assert mapped and set(mapped.values()) == {1}
    w_qc = barycentric_quotient(w)
    lift = FlagLift(w_qc)
    for q, level in enumerate(w_qc.located_faces):
        for t, faces in enumerate(level):
            perms = w.index.flats(w_qc.simplices[q][t].top_orbit).perms
            for i, (f, e) in enumerate(faces[:-1]):
                assert lift.flat_maps[q][t][i] is perms[e]
            assert all(isinstance(m, quotient._CarriedFlats)
                       for m in lift.flat_maps[q][t][-1:])
