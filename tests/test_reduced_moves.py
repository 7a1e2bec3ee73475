"""Each piece of integer work of a congruence build done once: saturation
takes a column Hermite form whose maximal minors have gcd 1 as the
answer, against the kernel-of-kernel saturation it short-cuts
(`kernel_saturation`); the canonical check of a flag member saturates
nothing; the coset space moves its points through move tables reduced
mod N once, against the eager coset space with its per-call `act`
(`eager_omega`); the lift reads each located face's move once per
level-1 face; and a stabilizer's closure grows from the elements each
new generator finds, against the closure that restarted for each one
(`restarted_action`)."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wellround.cells as cells
import wellround.exactla as exactla
import wellround.flags as flags
from eager_omega import Omega as EagerOmega
from kernel_saturation import kernel_saturation
from restarted_action import RestartedAction
from test_flags import ORACLE_GROUPS, sl_elements
from wellround.boundary import build_double_complex
from wellround.cells import enumerate_W
from wellround.exactla import (
    hnf, int_inverse, int_transpose, is_saturated_hnf, saturation,
)
from wellround.flags import (
    RationalFlag, coset_space, flag_orbits, flag_types, standard_flag,
)
from wellround.lattice import GroupSpec
from wellround.quotient import CosetLift

MOVE_GROUPS = ORACLE_GROUPS + [GroupSpec(3, "gamma0", 6),
                               GroupSpec(3, "gamma1", 5),
                               GroupSpec(3, "gamma", 3)]


@cache
def _eager(group):
    return EagerOmega(group)


# --- saturation and the canonical check ------------------------------------

@st.composite
def integer_matrices(draw):
    """n x d integer matrices, d >= 1: random ones, and ones made rank
    deficient (a column combining two others), zero, or unsaturated (a
    column multiplied by k > 1)."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cols = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                         min_size=d, max_size=d))
    kind = draw(st.sampled_from(["random", "deficient", "zero", "scaled"]))
    if kind == "deficient" and d > 1:
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        cols[-1] = [a * x + b * y for x, y in zip(cols[0], cols[1 % (d - 1)])]
    elif kind == "zero":
        cols = [[0] * n for _ in cols]
    elif kind == "scaled":
        k = draw(st.integers(2, 5))
        cols[0] = [k * x for x in cols[0]]
    return int_transpose(tuple(map(tuple, cols)))


@given(integer_matrices())
@settings(max_examples=300, deadline=None)
def test_saturation_matches_the_kernel_of_kernel_path(m):
    assert saturation(m) == kernel_saturation(m)


@st.composite
def member_candidates(draw):
    """Matrices that are often, but not always, saturated-canonical: a
    random matrix, its column HNF, or its saturation."""
    m = draw(integer_matrices())
    return draw(st.sampled_from([m, hnf(m), saturation(m)]))


@given(member_candidates())
@settings(max_examples=300, deadline=None)
def test_canonical_check_accepts_exactly_the_saturations(m):
    canonical = saturation(m) == m
    assert is_saturated_hnf(m) == canonical
    n, d = len(m), len(m[0]) if m else 0
    if 0 < d < n:
        if canonical:
            assert RationalFlag(n, (m,)).members == (m,)
        else:
            with pytest.raises(ValueError, match="member basis is not "
                                                 "saturated-canonical"):
                RationalFlag(n, (m,))


def test_a_sweep_saturates_each_flag_member_once(monkeypatch, cold_level_one):
    # flag members are saturated only by `flag_from_members`, once each:
    # no RationalFlag check and no representative of `flag_orbits`
    # saturates (the three builds made 32 saturations for 14 members)
    saturated, members = [], []
    real = exactla.saturation
    monkeypatch.setattr(flags, "saturation", lambda m: saturated.append(m)
                        or real(m))
    monkeypatch.setattr(exactla, "saturation", lambda m: saturated.append(m)
                        or real(m))
    real_from = flags.flag_from_members

    def counted(n, spanning):
        spanning = list(spanning)
        members.extend(spanning)
        return real_from(n, spanning)

    monkeypatch.setattr(flags, "flag_from_members", counted)
    monkeypatch.setattr(cells, "flag_from_members", counted)
    for family, level in (("gamma0", 11), ("gamma0", 6), ("gamma", 3)):
        build_double_complex(GroupSpec(2, family, level))
    assert len(saturated) == len(members) > 0


def test_flag_orbits_at_level_one_search_nothing(monkeypatch):
    # Omega of a level-1 group is one point, whose orbit the standard flag
    # represents: no P(Z)-orbit is searched and no flag saturated
    def refused(*args):
        raise AssertionError("searched or saturated at level 1")

    monkeypatch.setattr(flags.Omega, "parabolic_orbits", refused)
    monkeypatch.setattr(flags, "saturation", refused)
    for group in (GroupSpec(2, "sl"), GroupSpec(3, "sl"), GroupSpec(3, "gl")):
        for k in range(2, group.n + 1):
            for dims in flag_types(group.n, k):
                orbits = flag_orbits(group, dims)
                assert orbits.reps == (standard_flag(group.n, dims),)
                assert orbits.roots == ((),)


# --- the coset space through reduced move tables ---------------------------

@st.composite
def moved_groups(draw):
    group = draw(st.sampled_from(MOVE_GROUPS))
    return group, draw(sl_elements(group.n))


@given(moved_groups())
@settings(max_examples=150, deadline=None)
def test_move_tables_match_the_eager_act(case):
    group, h = case
    omega, old = coset_space(group), _eager(group)
    points = tuple(omega.transversal)
    index = {w: i for i, w in enumerate(points)}
    want = [old.act(w, h) for w in points]
    assert omega.tables(points)(h) == [index[v] for v in want]
    move = omega.mover(h)
    assert [move(w) for w in points] == want
    assert [omega.act(w, h) for w in points[:3]] == want[:3]
    if len(points) > 1:
        lift = CosetLift(omega)
        assert lift._move(int_inverse(h)) == [index[v] for v in want]


@pytest.mark.parametrize("group", MOVE_GROUPS, ids=str)
def test_transversal_and_parabolic_orbits_match_the_eager_space(group):
    omega, old = coset_space(group), _eager(group)
    assert omega.base == old.base
    assert list(omega.transversal) == list(old.transversal)
    assert [omega.transversal[w] for w in old.transversal] == \
        list(old.transversal.values())
    for k in range(2, group.n + 1):
        for dims in flag_types(group.n, k):
            roots, orbit, paths = omega.parabolic_orbits(dims)
            want_roots, want_orbit, want_paths = old.parabolic_orbits(dims)
            assert (roots, orbit) == (want_roots, want_orbit)
            assert list(paths) == list(want_paths)
            assert [paths[w] for w in want_paths] == list(want_paths.values())


def test_paths_refuse_a_point_off_the_space():
    with pytest.raises(KeyError):
        coset_space(GroupSpec(2, "gamma0", 11)).transversal[((11, 0),)]


@pytest.mark.parametrize("group", [GroupSpec(2, "gamma0", 11),
                                   GroupSpec(3, "gamma0", 3)], ids=str)
def test_lift_reads_each_face_once_and_tables_each_element_once(
        monkeypatch, group):
    # per lift: one move table per distinct element, and each level-1
    # stabilizer element, located face and chain-map element read once
    # per lifted complex and part, however many points lie over it
    # (Gamma_0(3) in SL_3: 2,282 reads of 234 tables; 13,512 reads when
    # each generator read its faces' moves)
    build_double_complex(GroupSpec(group.n, "sl"))
    reads, tables, bound = [], [], [0]
    real_move = CosetLift._move
    real_quotients, real_chain_map = CosetLift.quotients, CosetLift.chain_map
    real_tables = flags.Omega.tables

    def counted_tables(self, points):
        table = real_tables(self, points)
        return lambda h: tables.append(h) or table(h)

    def quotients(self, key, qc, *args):
        bound[0] += sum(map(len, (s for level in qc.stabilizers
                                  for s in level)))
        bound[0] += sum(map(len, (f for level in qc.located_faces
                                  for f in level)))
        return real_quotients(self, key, qc, *args)

    def chain_map(self, cm, *args):
        bound[0] += 1 + sum(map(len, cm.elements))
        return real_chain_map(self, cm, *args)

    monkeypatch.setattr(flags.Omega, "tables", counted_tables)
    monkeypatch.setattr(CosetLift, "_move", lambda self, e: reads.append(e)
                        or real_move(self, e))
    monkeypatch.setattr(CosetLift, "quotients", quotients)
    monkeypatch.setattr(CosetLift, "chain_map", chain_map)
    build_double_complex(group)
    assert len(tables) == len(set(tables)) == len(set(reads))
    assert 0 < len(reads) <= bound[0]


# --- a stabilizer's closure, grown from the new elements -------------------

@pytest.mark.parametrize("group,n4", [(GroupSpec(3, "sl"), False),
                                      (GroupSpec(3, "gl"), False),
                                      (GroupSpec(4, "sl"), True)], ids=str)
def test_action_matches_the_restarted_closure(group, n4):
    index = enumerate_W(group, experimental_n4=n4).index
    for oid in range(len(index.orbits)):
        action = index.action(oid)
        moves = index.stabilizers[oid]
        old = RestartedAction(moves, [index.tables[oid][s] for s in moves])
        assert old.gens == action.gens
        vectors = index.orbits[oid].cell.config
        assert old.permutations(vectors, "vectors") == \
            action.permutations(vectors, "vectors")
        flats = index.flats(oid)
        gen_perms = [flats.perms[moves[g]] for g in action.gens]
        assert old.compose(gen_perms, len(flats.sets)) == \
            [list(flats.perms[s]) for s in moves] == \
            action.compose(gen_perms, len(flats.sets))
