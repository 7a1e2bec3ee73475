"""The field answers of `wellround.boundary`, read off one persistence
pairing, against the subquotient linear algebra they replaced
(`filtered_pages`), and the pairing itself on random filtered complexes
whose elementary pieces are known."""

from collections import Counter
from dataclasses import replace
from functools import cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cone_assembly
import filtered_pages as oracle
import wellround.quotient as quotient
from wellround.boundary import (
    DoubleComplex, boundary_homology, build_double_complex, face_map,
    restriction, spectral_sequence, total_cohomology,
)
from wellround.exactla import (
    CertificateError, PrimeField, QQ, f_pairs, f_rank, sparse_transpose,
)
from wellround.lattice import GroupSpec
from wellround.quotient import parse_coeff

SPECS = [GroupSpec(2, "sl"), GroupSpec(2, "gl"), GroupSpec(2, "gamma0", 11),
         GroupSpec(2, "gamma0", 6), GroupSpec(2, "gamma", 3),
         GroupSpec(2, "gamma1", 5), GroupSpec(3, "sl")]
COEFFS = ["Q", "Fp:2", "Fp:3"]


@cache
def _dc(spec):
    return build_double_complex(spec)


def _assert_partial_identity(mat):
    """A 0/1 matrix with at most one 1 in each row and each column."""
    assert all(x in (0, 1) for row in mat for x in row)
    assert all(sum(row) <= 1 for row in mat)
    assert all(sum(col) <= 1 for col in zip(*mat))


def _assert_pages_match(new, old, field):
    """Equal entries on every page, differentials at the same places and
    of equal rank, and equal abutments."""
    (pages, abutment), (want_pages, want_abutment) = new, old
    assert abutment == want_abutment
    assert len(pages) == len(want_pages)
    for page, want in zip(pages, want_pages):
        assert page.r == want.r
        assert page.entries == want.entries
        assert page.differentials.keys() == want.differentials.keys()
        for key, mat in page.differentials.items():
            _assert_partial_identity(mat)
            assert f_rank(field, mat) == f_rank(field, want.differentials[key])


@pytest.mark.parametrize("coeff", COEFFS)
@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_field_answers_match_subquotient_oracle(spec, coeff):
    dc = _dc(spec)
    field = parse_coeff(coeff)
    _assert_pages_match(spectral_sequence(dc, coeff),
                        oracle.spectral_sequence(dc, coeff), field)
    assert [d["betti"] for d in total_cohomology(dc, coeff)] == \
        oracle.total_betti(dc, field)
    assert restriction(dc, coeff) == oracle.restriction(dc, coeff)
    assert boundary_homology(dc, coeff) == oracle.boundary_homology(dc, coeff)
    for summand in dc.columns[0]:
        assert face_map(dc, summand.flag, coeff) == \
            oracle.face_map(dc, summand.flag, coeff)


def test_sl3_d1_has_rank_and_pages_degenerate():
    # the SL_3 total complex has two columns: E_1 carries a nonzero d_1,
    # and E_2 is already E_infinity
    pages, abutment = spectral_sequence(_dc(GroupSpec(3, "sl")), "Q")
    assert sum(sum(map(sum, m)) for m in pages[0].differentials.values()) > 0
    assert all(not any(map(any, m)) for page in pages[1:]
               for m in page.differentials.values())
    assert pages[1].entries == pages[-1].entries
    assert abutment == [1, 0, 0, 0, 1]


def _flipped(cm):
    """The chain map with the first entry of its degree-0 matrix negated."""
    m0 = [list(row) for row in cm.matrices[0]]
    i = next(i for i, row in enumerate(m0) if row)
    m0[i][0] = (m0[i][0][0], -m0[i][0][1])
    return replace(cm, matrices=(tuple(map(tuple, m0)),) + cm.matrices[1:])


def test_restriction_certificate_fires_on_a_flipped_inclusion(
        monkeypatch, cold_level_one):
    # the first inclusion into W/Gamma, an untwisted chain map of the
    # level-1 build, has one entry negated after its own check and before
    # the lift: D^2 = 0 over the augmented complex is then the
    # certificate that fires
    real = quotient.FlagLift.deletion
    flips = []

    def flipping(lift, dims, i):
        cm = real(lift, dims, i)
        if not flips:
            flips.append(cm)
            return _flipped(cm)
        return cm

    monkeypatch.setattr(quotient.FlagLift, "deletion", flipping)
    with pytest.raises(CertificateError, match="D\\*D=0"):
        build_double_complex(GroupSpec(2, "gamma0", 11))
    assert flips
    # the face map lays out its own cone from the inclusion it reads
    dc = _dc(GroupSpec(2, "gamma0", 11))
    broken = replace(dc, inclusions=(_flipped(dc.inclusions[0]),)
                     + dc.inclusions[1:])
    with pytest.raises(CertificateError, match="D\\*D=0"):
        face_map(broken, broken.columns[0][0].flag, "Q")
    face_map(broken, broken.columns[0][1].flag, "Q")


def test_f_pairs_small_cases():
    # a 2-simplex in the boundary convention, vertices then edges then
    # the face: the edges 01 and 02 kill two vertices, 12 closes a cycle
    # that the face kills
    cols = [(), (), (), ((0, -1), (1, 1)), ((0, -1), (2, 1)),
            ((1, -1), (2, 1)), ((3, 1), (4, -1), (5, 1))]
    for field in (QQ, PrimeField(2), PrimeField(3)):
        assert f_pairs(field, cols, [0, 0, 0, -1, -1, -1, -2]) == {1: 3, 2: 4, 5: 6}
    # a column 2 times another: a pair over Q and F_3, none over F_2
    assert f_pairs(QQ, [(), ((0, 2),)], [1, 0]) == {0: 1}
    assert f_pairs(PrimeField(2), [(), ((0, 2),)], [1, 0]) == {}
    assert f_pairs(PrimeField(3), [(), ((0, 2),)], [1, 0]) == {0: 1}
    assert f_pairs(QQ, [], []) == {}


# --- random filtered cochain complexes with known elementary pieces -------

@st.composite
def filtered_complexes(draw):
    """(number of columns, top degree q of every column, pieces, the
    generators of each total degree as (column, (piece, 0 for its source
    or 1 for its target)), the degree and coordinate of each generator,
    and per degree a filtration-preserving change of basis g with g^-1).

    A piece is a single generator (p, k) or a pair (p, k) -> (p', k + 1)
    with p' >= p; in the elementary basis D sends the source of a pair to
    its target, times a unit."""
    ncols = draw(st.integers(1, 3))
    qmax = draw(st.integers(0, 2))
    slots = [(p, p + q) for p in range(ncols) for q in range(qmax + 1)]
    pieces = []
    for _ in range(draw(st.integers(0, 7))):
        p, k = draw(st.sampled_from(slots))
        targets = [(pp, k + 1) for pp in range(p, ncols)
                   if 0 <= k + 1 - pp <= qmax]
        if targets and draw(st.booleans()):
            pieces.append(((p, k), draw(st.sampled_from(targets)),
                           draw(st.sampled_from([1, -1]))))
        else:
            pieces.append(((p, k), None, 1))
    # each degree lists its generators by column, as the layout does
    gens = {}
    for i, (src, tgt, _) in enumerate(pieces):
        gens.setdefault(src, []).append((i, 0))
        if tgt is not None:
            gens.setdefault(tgt, []).append((i, 1))
    for slot in gens.values():
        draw(st.randoms()).shuffle(slot)
    top = ncols - 1 + qmax
    coords = [[(p, g) for p in range(ncols) for g in gens.get((p, k), ())]
              for k in range(top + 2)]
    where = {g: (k, i) for k, level in enumerate(coords)
             for i, (_, g) in enumerate(level)}
    # basis changes: elementary operations adding c times coordinate j to
    # coordinate i, allowed when i's column is at least j's, so F^p is kept
    changes = []
    for level in coords:
        n = len(level)
        g = [[int(i == j) for j in range(n)] for i in range(n)]
        g_inv = [row[:] for row in g]
        for _ in range(draw(st.integers(n, 3 * n))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if i == j or level[i][0] < level[j][0]:
                continue
            c = draw(st.sampled_from([-2, -1, 1, 2]))
            # g <- E g, g^-1 <- g^-1 E^-1 with E = I + c e_ij
            g[i] = [x + c * y for x, y in zip(g[i], g[j])]
            for row in g_inv:
                row[j] -= c * row[i]
        changes.append((g, g_inv))
    return ncols, qmax, pieces, coords, where, changes


def _matmul(a, b, ncols):
    """The product of dense integer matrices, b with ncols columns."""
    return [[sum(x * b[t][j] for t, x in enumerate(row)) for j in range(ncols)]
            for row in a]


def _fake_double_complex(ncols, qmax, coords, diffs):
    """A `DoubleComplex` with one summand per column and no column -1,
    carrying only what the page readers and the oracle read: the layout,
    and Tot's generators in cone order with their columns, read off the
    D^k."""
    columns = []
    for p in range(ncols):
        sizes = [sum(1 for pp, _ in coords[p + q] if pp == p)
                 for q in range(qmax + 1)]
        qc = SimpleNamespace(simplices=[range(n) for n in sizes], dim=qmax)
        columns.append((SimpleNamespace(qc=qc),))
    offsets = {}
    for k, level in enumerate(coords):
        for p in range(ncols):
            if 0 <= k - p <= qmax:
                offsets[p, 0, k - p] = sum(1 for pp, _ in level if pp < p)
    dims = tuple(len(level) for level in coords)
    generators = [(p, k, offsets[p, 0, k - p] + i)
                  for p in reversed(range(ncols))
                  for k in reversed(range(p, p + qmax + 1))
                  for i in range(len(columns[p][0].qc.simplices[k - p]))]
    position = {(k, c): g for g, (_, k, c) in enumerate(generators)}
    by_column = [sparse_transpose(d, n) for d, n in zip(diffs, dims)]
    cone = tuple(tuple(sorted((position[k + 1, r], x)
                              for r, x in by_column[k][c]))
                 if k < len(by_column) else () for _, k, c in generators)
    return DoubleComplex(GroupSpec(2, "sl"), tuple(columns), (), None, None,
                         (), offsets, dims, tuple(generators), cone)


def _conjugated_differentials(coords, pieces, where, changes):
    """The D^k as sparse rows: elementary, then conjugated,
    D'_k = g_{k+1} D_k g_k^-1."""
    diffs = []
    for k in range(len(coords) - 1):
        d = [[0] * len(coords[k]) for _ in coords[k + 1]]
        for i, (src, tgt, unit) in enumerate(pieces):
            if tgt is not None and tgt[1] == k + 1:
                d[where[i, 1][1]][where[i, 0][1]] = unit
        n = len(coords[k])
        d = _matmul(_matmul(changes[k + 1][0], d, n), changes[k][1], n)
        diffs.append(tuple(tuple((j, x) for j, x in enumerate(row) if x)
                           for row in d))
    return diffs


def _expected(pieces, r_stop):
    """Entries and d_r ranks of every page, and the abutment, from the
    elementary pieces."""
    pages = []
    for r in range(1, r_stop + 1):
        entries, ranks = Counter(), Counter()
        for (p, k), tgt, _ in pieces:
            if tgt is None:
                entries[p, k - p] += 1
            elif tgt[0] - p >= r:
                entries[p, k - p] += 1
                entries[tgt[0], tgt[1] - tgt[0]] += 1
                if tgt[0] - p == r:
                    ranks[p, k - p] += 1
        pages.append((dict(entries), dict(ranks)))
    betti = Counter(k for (_, k), tgt, _ in pieces if tgt is None)
    abutment = [betti[k] for k in range(max(betti, default=-1) + 1)]
    return pages, abutment


@given(filtered_complexes())
@settings(max_examples=120, deadline=None)
def test_pages_of_random_filtered_complexes(data):
    ncols, qmax, pieces, coords, where, changes = data
    dc = _fake_double_complex(ncols, qmax, coords, _conjugated_differentials(
        coords, pieces, where, changes))
    pages_want, abutment_want = _expected(pieces, ncols + 1)
    for coeff in COEFFS:
        field = parse_coeff(coeff)
        pages, abutment = spectral_sequence(dc, coeff)
        assert abutment == abutment_want
        for page, (entries, ranks) in zip(pages, pages_want):
            assert page.entries == entries
            got = {pq: f_rank(field, m) for pq, m in page.differentials.items()}
            assert {pq: x for pq, x in got.items() if x} == ranks
        _assert_pages_match((pages, abutment),
                            oracle.spectral_sequence(dc, coeff), field)
        assert [d["betti"] for d in total_cohomology(dc, coeff)] == \
            abutment_want


@given(filtered_complexes())
@settings(max_examples=120, deadline=None)
def test_cleared_pairs_match_the_oracle_on_random_complexes(data):
    # the same random complexes, D^2 = 0 and cone order: clearing by
    # degree leaves the pairs of the reduction without clearing
    ncols, qmax, pieces, coords, where, changes = data
    dc = _fake_double_complex(ncols, qmax, coords, _conjugated_differentials(
        coords, pieces, where, changes))
    degrees = [k for _, k, _ in dc.generators]
    for coeff in COEFFS:
        field = parse_coeff(coeff)
        assert f_pairs(field, dc.cone, degrees) == \
            cone_assembly.f_pairs(field, dc.cone)


def test_fraction_free_reduction_cancels_parallel_columns():
    # (4, 6) is 2/3 of (6, 9): one fraction-free step clears it over Q;
    # over F_2 the first column is (0, 1) and the second 0, over F_3 the
    # first is 0 and the second (1, 0)
    cols = [(), (), ((0, 6), (1, 9)), ((0, 4), (1, 6))]
    degrees = [1, 1, 0, 0]
    assert f_pairs(QQ, cols, degrees) == {1: 2}
    assert f_pairs(PrimeField(2), cols, degrees) == {1: 2}
    assert f_pairs(PrimeField(3), cols, degrees) == {0: 3}
