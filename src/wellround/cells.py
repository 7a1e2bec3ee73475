"""Cells of the well-rounded retract and their orbit complexes.

A cell is determined by its minimal-vector configuration S: the forms
with A[v] = 1 exactly on +-S and A[w] > 1 for every other integer
vector.  Feasibility and interior witnesses come from exact LPs over the
symmetric-matrix coordinates, with the infinite constraint family
certified by a cutting-plane loop (enumerate below the current witness,
add violators, repeat).  Faces carry larger configurations, cofaces
smaller ones.  The orbits of W mod a group of level 1 are enumerated
by a walk over the face/coface graph, whose orbit index searches for
configuration equivalences.  The walk goes one stabilizer orbit at a
time: a representative's stabilizer S comes with its orbit and acts on
its vectors and contacts by permutations, its faces and cofaces are
found once per S-orbit as configurations, and each S-orbit is located
once, from a member already filed or by one search, its S-images from
the witness.  A cell is built only to start an orbit or to decide a
coface.  The walk computes each representative's faces once and hands
them to its complex; no cell is remembered by configuration, so
nothing outlives the walk.  Every other complex is
derived from a parent's orbit data, with no LP and no search: W mod a
congruence group Gamma from W mod SL_n(Z) on the coset space
Gamma \\ SL_n(Z), and a flag subcomplex W_F from W.  A derived
representative is a translate g.s of a parent's, whose faces,
stabilizer and witness are s's moved by g, and its index locates a cell
through the parent's.  The orbit index a complex was built with stays
with it: `OrbitComplex.locate` is the one answer to "which orbit is
this cell in, and by which element", and a lookup gives the element the
search would have found first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .exactla import (
    OPTIMAL, QQ, UNBOUNDED, CertificateError, Echelon, IntMatrix, IntVector,
    NotPositiveDefinite, f_rank, int_adjugate, int_det, int_identity,
    int_inverse, int_matmul, int_transpose, lp,
)
from .flags import (
    RationalFlag, check_dimension, coset_space, flag_equivalent,
    flag_from_members, in_parabolic, respects_flag,
)
from .lattice import (
    GramForm, GroupSpec, VectorConfig, _char_pairings, _enumerate_values,
    _Action, _closure, _first_element, canonical_config, canonical_vector,
    config_equiv, config_from_json, config_spans, config_stabilizer,
    is_primitive, minimal_vectors, move_config, move_each, normalize,
    signed_permutation, signed_positions,
)
from .retraction import _qf


class NotSpanning(ValueError):
    """The configuration does not span Q^n, so it bounds no cell."""


class Infeasible(ValueError):
    """No form has exactly this configuration as its minimal vectors."""


class DimensionUnsupported(ValueError):
    """Enumeration is guarded to n <= 4 (n = 4 behind the experimental flag)."""


# contact enumeration radius: tight vectors of neighboring faces are
# collected below this witness value (completeness of the face search is
# cross-checked by the structural acceptance identities)
CONTACT_RADIUS = Fraction(4)

_MAX_CUTTING_ROUNDS = 200


@dataclass(frozen=True)
class Cell:
    config: VectorConfig
    dim: int = field(compare=False)
    witness: GramForm = field(compare=False)
    contacts: VectorConfig = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.config[0])


def _sym_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def _value_coeffs(pairs, v: Sequence[int]) -> list[int]:
    """Row of the linear functional A -> A[v] in upper-triangle coordinates."""
    return [v[i] * v[j] if i == j else 2 * v[i] * v[j] for (i, j) in pairs]


def _pd_violation(m: IntMatrix, index: int) -> IntVector:
    """An integer vector with nonpositive squared length under the
    symmetric integer matrix m, whose fraction-free LDL^T stopped at the
    first nonpositive pivot, of 1-based position `index`.

    At that pivot j, the vector x = L^-T e_j solves A_j x = d_j e_j on
    the leading block A_j of order j + 1, so it lies on the line of the
    last column of adj(A_j); that column, made primitive, is returned."""
    adj = int_adjugate(tuple(row[:index] for row in m[:index]))
    x = [row[index - 1] for row in adj] + [0] * (len(m) - index)
    g = gcd(*x)
    return canonical_vector(tuple(c // g for c in x))


def _config_sym_rank(config: VectorConfig) -> int:
    pairs = _sym_pairs(len(config[0]))
    return f_rank(QQ, [[v[i] * v[j] for (i, j) in pairs] for v in config])


def cell_dimension(config: VectorConfig) -> int:
    n = len(config[0])
    return n * (n + 1) // 2 - _config_sym_rank(config)


def _initial_candidates(config: VectorConfig, n: int) -> set[IntVector]:
    """Seed constraint vectors guaranteeing a bounded LP: a basis from the
    configuration, its pairwise sums/differences, and the unit vectors."""
    cands: set[IntVector] = set()
    span = Echelon(QQ)
    basis = [v for v in config if span.add(v)]
    for i in range(n):
        cands.add(canonical_vector(tuple(int(k == i) for k in range(n))))
    for u, w in combinations(basis, 2):
        cands.add(canonical_vector(tuple(a + b for a, b in zip(u, w))))
        cands.add(canonical_vector(tuple(a - b for a, b in zip(u, w))))
    return {v for v in cands if v not in config}


class _Chart:
    """Affine parameterization of {A symmetric : A[v] = 1 for v in eqs}:
    A = (origin + sum t_i dirs_i) / den, with integer vectors origin and
    dirs_i over one denominator den > 0, the least.  Shrinks every LP to
    the cell dimension plus a slack variable, with integer coefficients.
    The origin (free coordinates 0) and the directions (the free-column
    kernel basis) come from one elimination of the augmented system, in
    integers: pivot column c of the reduced form's row r reads
    x_c = (r[k] - sum over free f of r[f] t_f) / r[c]."""

    def __init__(self, eqs: VectorConfig, n: int):
        self.n = n
        self.pairs = _sym_pairs(n)
        k = len(self.pairs)
        rows = Echelon(QQ, [_value_coeffs(self.pairs, v) + [1]
                            for v in eqs])._reduced(integral=True)
        self.ok = k not in rows
        if not self.ok:
            return
        free = [f for f in range(k) if f not in rows]
        den = lcm(*(r[c] // gcd(r[c], *(r.get(f, 0) for f in free + [k]))
                    for c, r in rows.items()))
        self.den = den
        self.origin = [rows[c].get(k, 0) * den // rows[c][c] if c in rows
                       else 0 for c in range(k)]
        self.dirs = [[-rows[c].get(f, 0) * den // rows[c][c] if c in rows
                      else den * (c == f) for c in range(k)] for f in free]

    def functional(self, w) -> tuple[int, list[int]]:
        """den * A[w] = const + row . t on the chart, in integers."""
        c = _value_coeffs(self.pairs, w)
        const = sum(map(mul, c, self.origin))
        row = [sum(map(mul, c, d)) for d in self.dirs]
        return const, row

    def gram_at(self, t: Sequence[Fraction]) -> tuple[IntMatrix, int]:
        """(M, D) with M / D the form at chart coordinates t: the point
        origin + sum t_i dirs_i over the lcm of den and t's denominators."""
        scale = lcm(*(x.denominator for x in t))
        point = [scale * p for p in self.origin]
        for x, d in zip(t, self.dirs):
            if x:
                w = x.numerator * (scale // x.denominator)
                point = [p + w * y for p, y in zip(point, d)]
        n = self.n
        m = [[0] * n for _ in range(n)]
        for (i, j), p in zip(self.pairs, point):
            m[i][j] = m[j][i] = p
        return tuple(map(tuple, m)), scale * self.den

    def max_slack(self, cands: Sequence[IntVector]):
        """Maximize delta with A[w] >= 1 + delta on the chart; returns
        (delta, (M, D)) with the optimal form M / D, or None when even the
        closed constraints fail.
        Every row is den times the one in A, so the LP's coefficients are
        integers.  The LP's last variable is delta + 1, so that each row
        den A[w] >= den (delta + 1) has the right-hand side -den A_origin[w]:
        the chart origin with delta = -1 is the LP's starting vertex
        whenever no candidate is negative there."""
        k = len(self.dirs)
        den = self.den
        if k == 0:
            low = min((self.functional(w)[0] for w in cands), default=2 * den)
            delta = min(Fraction(low - den, den), Fraction(1))
            if delta < 0:
                return None
            return delta, self.gram_at(())
        rows = [self.functional(w) for w in cands]
        zero = [0] * k
        # the last two rows are delta <= 1 and delta >= -1
        res = lp(zero + [1], (), (),
                 [row + [-den] for _, row in rows] + [zero + [-den], zero + [den]],
                 [-const for const, _ in rows] + [-2 * den, 0])
        if res.status != OPTIMAL:
            return None
        delta = res.point[-1] - 1
        if delta < 0:
            return None
        return delta, self.gram_at(res.point[:-1])

    def max_value(self, w: IntVector, cands: Sequence[IntVector]) -> Optional[Fraction]:
        """Maximum of A[w] over the closed chart polytope, or None if empty."""
        k = len(self.dirs)
        den = self.den
        const, row = self.functional(w)
        if k == 0:
            if any(self.functional(u)[0] < den for u in cands):
                return None
            return Fraction(const, den)
        rows = [self.functional(u) for u in cands]
        res = lp(row, (), (), [r for _, r in rows], [den - c for c, _ in rows])
        if res.status == UNBOUNDED:
            raise CertificateError("chart polytope is unbounded")
        if res.status != OPTIMAL:
            return None
        return (const + res.objective) / den


def cell_from_config(config: VectorConfig, tighten: bool = False) -> Cell:
    """The cell with exactly this minimal-vector configuration.

    Raises NotSpanning when the vectors do not span, Infeasible when no
    positive-definite form attains the configuration exactly (with
    tighten=True, forced-tight vectors are absorbed instead and the
    closure cell is returned).  The witness is certified: a complete
    enumeration below the contact radius confirms the configuration.
    """
    config = canonical_config(config)
    if not config:
        raise NotSpanning("empty configuration")
    n = len(config[0])
    if not config_spans(config, n):
        raise NotSpanning("configuration does not span Q^n")
    cands = _initial_candidates(config, n)
    chart = _Chart(config, n)
    if not chart.ok:
        raise Infeasible("tightness equations are inconsistent")
    for _ in range(_MAX_CUTTING_ROUNDS):
        sol = chart.max_slack(sorted(cands))
        if sol is None or sol[0] == 0:
            if not tighten:
                raise Infeasible("no interior point")
            ordered = sorted(cands)
            forced = _forced_tight(chart, ordered)
            if not forced:
                raise Infeasible("no interior point and nothing to absorb")
            config = canonical_config(config + forced)
            cands = {w for w in cands if w not in config} | \
                _initial_candidates(config, n)
            chart = _Chart(config, n)
            if not chart.ok:
                raise Infeasible("tightness equations are inconsistent")
            continue
        m, d = sol[1]
        try:
            witness = GramForm(m, d)
        except NotPositiveDefinite as exc:
            bad = _pd_violation(m, exc.index)
            if bad in config:
                raise Infeasible("configuration vector forced nonpositive")
            cands.add(bad)
            continue
        # one enumeration certifies the witness and lists its contacts: a
        # vector of value at most 1 outside the configuration violates it
        near = [(w, value) for w, value in
                _enumerate_values(witness, CONTACT_RADIUS)
                if w not in config and is_primitive(w)]
        viol = [w for w, value in near if value <= witness.denom]
        if viol:
            cands.update(viol)
            continue
        contacts = tuple(w for w, _ in near)
        return Cell(config, cell_dimension(config), witness, contacts)
    raise CertificateError("cutting-plane loop did not converge")


def _forced_tight(chart: _Chart, cands: Sequence[IntVector],
                  test: Optional[Sequence[IntVector]] = None) -> tuple[IntVector, ...]:
    """Candidates whose value is 1 on the whole closed chart polytope.
    Only the vectors in `test` (default: all candidates) are examined."""
    return tuple(w for w in (cands if test is None else test)
                 if chart.max_value(w, cands) == 1)


def _fixing(cell: Cell, stabilizer: Sequence[IntMatrix]) -> _Action:
    """The given stabilizer of the cell, the identity alone when none is
    given, acting by its signed permutations of the cell's vectors, which
    check that each element fixes it."""
    moves = stabilizer or (int_identity(cell.n),)
    return _Action(moves, [signed_permutation(s, cell.config) for s in moves])


def _close_up(base_config: VectorConfig, w: IntVector,
              cands: Sequence[IntVector], n: int):
    """The vectors tight on the face reached by making w tight, w and
    then the candidates forced tight, until the face has an interior
    point, with the face's dimension; None when it has none."""
    tight: list[IntVector] = [w]
    while True:
        others = [u for u in cands if u not in tight]
        chart = _Chart(base_config + tuple(tight), n)
        if not chart.ok:
            return None
        sol = chart.max_slack(others)
        if sol is None:
            return None
        if sol[0] > 0:
            return tight, len(chart.dirs)
        # slack 0: some candidate is tight on the whole face; the
        # forced ones are among those tight at this optimum
        m, d = sol[1]
        forced = _forced_tight(chart, others,
                               test=[u for u in others if _qf(m, u) == d])
        if not forced:
            return None
        tight.extend(forced)


class _Star:
    """A cell's neighbours, faces or cofaces, by orbits of its checked
    stabilizer S.  S acts on a sorted list of vectors (the cell's, and
    its face candidates for the faces) by permutations, one per element
    in S's order, and a neighbour is the sorted tuple of its vectors'
    positions there: S moves it by lookup, with no matrix product, and
    position tuples compare as their configurations do."""

    def __init__(self, vectors: Sequence[IntVector],
                 moves: Sequence[IntMatrix], perms: Sequence[Sequence[int]]):
        self.vectors = vectors
        self.moves = moves
        self.perms = perms
        self.orbits: list[_Orbit] = []
        self._found: set[tuple[int, ...]] = set()

    def __contains__(self, positions: tuple[int, ...]) -> bool:
        return positions in self._found

    def config(self, positions: Sequence[int]) -> VectorConfig:
        return tuple(map(self.vectors.__getitem__, positions))

    def images(self, positions: Sequence[int]) -> list[tuple[int, ...]]:
        """The neighbour moved by each element of S, in S's order."""
        return [tuple(sorted(map(p.__getitem__, positions)))
                for p in self.perms]

    def add(self, positions: tuple[int, ...], dim: int):
        """A new orbit, of the neighbour with these positions."""
        orbit = _Orbit(self, dim, sorted(set(self.images(positions))))
        self._found.update(orbit.members.values())
        self.orbits.append(orbit)

    def members(self) -> list[tuple[VectorConfig, _Orbit]]:
        """Every neighbour found, with its orbit, sorted."""
        return sorted((config, orbit) for orbit in self.orbits
                      for config in orbit.members)


class _Orbit:
    """An S-orbit of neighbours of one dimension: each member's
    configuration and positions, the least first."""

    def __init__(self, star: _Star, dim: int,
                 positions: Sequence[tuple[int, ...]]):
        self.star = star
        self.dim = dim
        self.members = {star.config(p): p for p in positions}

    @property
    def least(self) -> VectorConfig:
        return next(iter(self.members))

    def images(self, config: VectorConfig) -> list[VectorConfig]:
        """The member moved by each element of S, in S's order."""
        star = self.star
        return list(map(star.config, star.images(self.members[config])))


def _face_cell(config: VectorConfig) -> Cell:
    """The cell of a face that the search closed up to, built and checked
    to have exactly that configuration."""
    try:
        cell = cell_from_config(config, tighten=True)
    except (Infeasible, NotSpanning):
        cell = None
    if cell is None or cell.config != config:
        raise CertificateError("a face closes up to another configuration")
    return cell


def _star_cells(star: _Star, build) -> list[Cell]:
    """The cells of the neighbours, sorted: the least of each orbit built
    (`build`; an orbit whose least is no cell is dropped), the others its
    moved cells."""
    found: dict[VectorConfig, Cell] = {}
    for orbit in star.orbits:
        try:
            cell = build(orbit.least)
        except (Infeasible, NotSpanning):
            continue
        for config, s in zip(orbit.images(orbit.least), star.moves):
            if config not in found:
                found[config] = cell if config == cell.config else \
                    _moved_cell(cell, s)
    return [found[config] for config in sorted(found)]


def cell_faces(cell: Cell, stabilizer: Sequence[IntMatrix] = ()) -> list[Cell]:
    """Proper faces reachable by making one contact vector tight and
    closing up: includes every face of codimension 1.

    The search runs once per orbit of the given stabilizer S (default:
    the identity) on the contacts closed up under S: s in S fixes the
    cell and permutes the candidates (checked), so s.w closes up to s
    times what w closes up to.  The least face of each S-orbit is built
    by `cell_from_config`, and must have the configuration it was closed
    up to; the others are its moved cells."""
    return _star_cells(_face_orbits(cell, _fixing(cell, stabilizer)),
                       _face_cell)


def _face_orbits(cell: Cell, action: _Action) -> _Star:
    """The faces of `cell_faces`, one search per orbit of the checked
    stabilizer; no face is built.  The candidates are the contacts closed
    up under the stabilizer's generators."""
    if cell.dim == 0:
        return _Star((), action.moves, [])
    n = cell.n
    config = cell.config
    cands = _closure(cell.contacts, action.generators())
    vectors = sorted(config + tuple(cands))
    star = _Star(vectors, action.moves,
                 action.permutations(vectors, "face candidates"))
    pos = {v: i for i, v in enumerate(vectors)}
    at = [pos[v] for v in config]
    searched: set[int] = set()
    for w in cands:
        i = pos[w]
        if i in searched:
            continue
        searched.update(p[i] for p in star.perms)
        face = _close_up(config, w, cands, n)
        if face is None:
            continue
        tight, dim = face
        positions = tuple(sorted(at + [pos[v] for v in tight]))
        if positions not in star:
            star.add(positions, dim)
    return star


def cell_cofaces(cell: Cell, stabilizer: Sequence[IntMatrix] = ()) -> list[Cell]:
    """Cells of one dimension higher whose closure contains this cell:
    spanning subconfigurations whose symmetric rank drops by exactly 1.
    Each orbit of them under the given stabilizer (default: the identity)
    is decided by its least member, built by `cell_from_config`; the
    others are its moved cells."""
    return _star_cells(_coface_orbits(cell, _fixing(cell, stabilizer)),
                       cell_from_config)


def _coface_orbits(cell: Cell, action: _Action) -> _Star:
    """The candidate cofaces of `cell_cofaces`, by orbits of the checked
    stabilizer: each orbit of subconfigurations is tested once, and none
    is decided by its LP."""
    config = cell.config
    n = cell.n
    m = len(config)
    star = _Star(config, action.moves,
                 [[j % m for j in perm[:m]] for perm in action.doubled])
    # the symmetric rank of the configuration, less 1
    target = n * (n + 1) // 2 - cell.dim - 1
    refuted: set[tuple[int, ...]] = set()
    for k in range(1, m - n + 1):
        for cut in combinations(range(m), k):
            sub = tuple(i for i in range(m) if i not in cut)
            if sub in star or sub in refuted:
                continue
            vectors = star.config(sub)
            if config_spans(vectors, n) and \
                    _config_sym_rank(vectors) == target:
                star.add(sub, cell.dim + 1)
            else:
                refuted.update(star.images(sub))
    return star


def root_form(n: int) -> GramForm:
    """The seed form: 2 on the diagonal, 1 elsewhere (a 0-cell for n <= 4,
    verified at runtime by the enumeration)."""
    return GramForm.from_rows([[2 if i == j else 1 for j in range(n)]
                               for i in range(n)])


# ---------------------------------------------------------------------------
# Orbit complexes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitCell:
    id: int
    cell: Cell


@dataclass(frozen=True)
class Incidence:
    cell: int           # orbit id of the cell
    face: int           # orbit id of a codimension-1 face
    via: IntMatrix      # group element with via(+-actual face config) = +-rep config


@dataclass(frozen=True)
class Face:
    """A face of an orbit representative, located in the complex."""

    config: VectorConfig
    dim: int
    orbit: int          # orbit id of the face
    via: IntMatrix      # group element with via(+-config) = +-rep config


@dataclass(frozen=True)
class OrbitComplex:
    """Orbit representatives, their codimension-1 incidences, the index
    that `locate` reads, and for each representative its located faces
    and its stabilizer in the group (in Gamma_F for a flag subcomplex)."""

    group: GroupSpec
    cells: tuple[OrbitCell, ...]
    incidences: tuple[Incidence, ...]
    constraint: Optional[RationalFlag]
    index: _OrbitIndex = field(compare=False, repr=False)
    faces: tuple[tuple[Face, ...], ...] = field(compare=False, repr=False)
    stabilizers: tuple[tuple[IntMatrix, ...], ...] = field(compare=False,
                                                          repr=False)
    _closures: dict = field(default_factory=dict, init=False, compare=False,
                            repr=False)

    def by_dim(self) -> dict[int, list[OrbitCell]]:
        out: dict[int, list[OrbitCell]] = {}
        for oc in self.cells:
            out.setdefault(oc.cell.dim, []).append(oc)
        return out

    @property
    def top_dim(self) -> int:
        return max(oc.cell.dim for oc in self.cells)

    def cell_by_id(self, cid: int) -> Cell:
        return self.cells[cid].cell

    def locate(self, config: VectorConfig) -> tuple[int, IntMatrix]:
        """The orbit id of a cell configuration and a group element
        carrying it onto the representative configuration."""
        hit = self.index.locate(config)
        if hit is None:
            raise KeyError(f"cell not found in complex: {config}")
        return hit

    def closure(self, oid: int) -> dict[VectorConfig,
                                        tuple[int, int, IntMatrix]]:
        """The closure of representative oid, located: config -> (dim,
        orbit id, u) with u carrying the config onto the representative.

        The faces of g.s are g.(faces of s), so the closure is carried
        over from the representatives: a face located as (fid, via) has
        the closure via^-1.closure(rep_fid), and a face already in the
        closure of a larger one adds nothing, so the faces are read from
        the largest down.  A closed cell is a ball, so the alternating
        count of its cells must be 1."""
        if oid in self._closures:
            return self._closures[oid]
        rep = self.cells[oid].cell
        closure = {rep.config: (rep.dim, oid, int_identity(self.group.n))}
        for face in sorted(self.faces[oid], key=lambda f: -f.dim):
            if face.config in closure:
                continue
            closure[face.config] = (face.dim, face.orbit, face.via)
            back = int_inverse(face.via)
            for config, (dim, cid, u) in self.closure(face.orbit).items():
                if dim == face.dim:
                    continue    # the face's representative: the face
                moved = move_config(back, config)
                if moved not in closure:
                    closure[moved] = (dim, cid, int_matmul(u, face.via))
        if sum((-1) ** dim for dim, _, _ in closure.values()) != 1:
            raise CertificateError(
                "cell closure has Euler characteristic != 1")
        self._closures[oid] = closure
        return closure

    def to_json(self) -> dict:
        data = {
            "group": self.group.to_json(),
            "cells": [{"id": oc.id, "dim": oc.cell.dim,
                       "config": [list(v) for v in oc.cell.config],
                       "witness": oc.cell.witness.to_json()}
                      for oc in self.cells],
            "incidences": [{"cell": inc.cell, "face": inc.face,
                            "via": [list(r) for r in inc.via]}
                           for inc in self.incidences],
        }
        if self.constraint is not None:
            data["constraint"] = self.constraint.to_json()
        return data

    @classmethod
    def from_json(cls, data: dict) -> OrbitComplex:
        """An orbit complex from its `to_json` form.  Cell ids must be 0,
        ..., m-1, each cell's dim must be that of the cell its config
        spans, a constraint flag must live in the group's dimension, and
        no two cells may lie in one orbit; an incidence must join two of
        the cells, the face one dimension lower, by an element of the
        group.  The orbit index is rebuilt by adding the cells in id
        order, and each cell's stabilizer and then its faces are computed
        again."""
        group = GroupSpec.from_json(data["group"])
        constraint = None
        if "constraint" in data:
            constraint = RationalFlag.from_json(data["constraint"])
            if constraint.n != group.n:
                raise ValueError(f"constraint flag has n = {constraint.n}, "
                                 f"the group has n = {group.n}")
        items = sorted(data["cells"], key=lambda c: int(c["id"]))
        if [int(item["id"]) for item in items] != list(range(len(items))):
            raise ValueError("cell ids must be 0, ..., m-1, each once")
        index = _OrbitIndex(group, constraint)
        faces = []
        for item in items:
            cell = cell_from_config(config_from_json(item["config"]))
            if cell.n != group.n:
                raise ValueError(f"cell {item['id']} has n = {cell.n}, "
                                 f"the group has n = {group.n}")
            if int(item["dim"]) != cell.dim:
                raise ValueError(f"cell {item['id']} has dim {item['dim']}, "
                                 f"its config spans a {cell.dim}-cell")
            hit = index.locate(cell.config, cell.dim)
            if hit is not None:
                raise ValueError(f"cells {hit[0]} and {item['id']} lie in "
                                 "one orbit")
            oid = index.add(cell)
            faces.append([(f.config, f.dim)
                          for f in cell_faces(cell, index.stabilizers[oid])])
        dims = [oc.cell.dim for oc in index.orbits]
        incidences = []
        for i in data.get("incidences", ()):
            inc = Incidence(int(i["cell"]), int(i["face"]),
                            tuple(tuple(int(x) for x in row) for row in i["via"]))
            if not (0 <= inc.cell < len(dims) and 0 <= inc.face < len(dims)):
                raise ValueError(f"incidence {inc.cell} -> {inc.face} names a "
                                 f"cell outside 0, ..., {len(dims) - 1}")
            if dims[inc.face] != dims[inc.cell] - 1:
                raise ValueError(f"incidence {inc.cell} -> {inc.face} joins "
                                 f"dims {dims[inc.cell]} and {dims[inc.face]}")
            if not group.contains(inc.via):
                raise ValueError(f"incidence {inc.cell} -> {inc.face} has a "
                                 "via that is not in the group")
            incidences.append(inc)
        return _orbit_complex(index, faces, incidences)


def _orbit_key(config: VectorConfig):
    """Group-invariant prefilter: the determinant of the characteristic
    form and its adjugate pairings, which any configuration equivalence
    preserves up to the signs of the vectors."""
    det_q, table = _char_pairings(config, len(config[0]))
    m = len(config)
    norms = sorted(table[i][i] for i in range(m))
    cross = sorted(abs(table[i][j]) for i, j in combinations(range(m), 2))
    return (m, det_q, tuple(norms), tuple(cross))


class _OrbitIndex:
    """Orbit representatives, and the lookup that locates a configuration
    among them: (orbit id, u) with u in the group (in Gamma_F under a
    constraint) carrying it onto the representative.  Hits are remembered
    by configuration (misses are not, since the walk adds orbits later).

    The index of a level-1 walk or of a complex read from a file is
    searched, against the representatives of the same dimension and
    `_orbit_key` only.  A derived complex (`_derive`) looks the orbit up
    through its parent instead.  A lookup yields every element carrying
    the configuration onto its representative; the index keeps the one
    the search would have found first, so both paths give the same
    answers, and checks it.  Per representative the index keeps, made
    once and read by lookup: its stabilizer's signed permutations of its
    vectors (`tables`, from the search that found the stabilizer), the
    stabilizer acting through them (`action`), and its flats, numbered,
    with the stabilizer's permutations of the numbers (`flats`)."""

    def __init__(self, group: GroupSpec, constraint: Optional[RationalFlag],
                 lookup: Optional[_DerivedLookup] = None):
        self.group = group
        self.constraint = constraint
        self.orbits: list[OrbitCell] = []
        self.buckets: dict = {}
        self._hits: dict[VectorConfig, tuple[int, IntMatrix]] = {}
        self.lookup = lookup
        self.stabilizers: list[tuple[IntMatrix, ...]] = \
            [] if lookup is None else lookup.stabilizers
        # per orbit: each stabilizer element s, in order, with
        # signed_permutation(s, the representative's config)
        self.tables: list[dict[IntMatrix, tuple[int, ...]]] = []
        self._actions: dict[int, _Action] = {}
        self._flat_tables: dict[int, _FlatTable] = {}

    def action(self, oid: int) -> _Action:
        """The stabilizer of representative oid, acting on its vectors."""
        if oid not in self._actions:
            moves = self.stabilizers[oid]
            self._actions[oid] = _Action(moves, list(map(
                self.tables[oid].__getitem__, moves)))
        return self._actions[oid]

    def flats(self, oid: int) -> _FlatTable:
        """The numbered flats of representative oid."""
        if oid not in self._flat_tables:
            self._flat_tables[oid] = _FlatTable(
                self.orbits[oid].cell.config, self.action(oid))
        return self._flat_tables[oid]

    def locate(self, config: VectorConfig, dim: Optional[int] = None):
        """(orbit id, u) with u carrying the configuration onto the
        representative's, or None; dim defaults to the cell dimension."""
        hit = self._hits.get(config)
        if hit is not None:
            return hit
        if dim is None:
            dim = cell_dimension(config)
        if self.lookup is None:
            hit = self._search(config, dim)
        else:
            hit = self._looked_up(config, self.lookup.locate(config, dim))
        if hit is not None:
            self._hits[config] = hit
        return hit

    def _search(self, config: VectorConfig, dim: int):
        for oid in self.buckets.get((dim, _orbit_key(config)), ()):
            u = config_equiv(config, self.orbits[oid].cell.config,
                             self.group, flag=self.constraint)
            if u is not None:
                return oid, u
        return None

    def _looked_up(self, config: VectorConfig, found):
        """The first of the witnesses a lookup found, t w for t in the
        representative's stabilizer and one witness w, checked.  w must
        carry each vector of the configuration onto one of the
        representative's, up to sign (`signed_positions`); the positions
        give the configuration's basis (`_FlatTable.basis`, with no
        elimination) and, through the stabilizer's table, the t whose
        images of it come first (`_first_element`).  t w must lie in the
        group and keep the constraint."""
        if found is None:
            return None
        oid, w = found
        rep = self.orbits[oid].cell.config
        m = len(rep)
        codes = signed_positions(w, config, rep)
        if codes is None or len(codes) != m:
            raise CertificateError(
                "orbit witness does not carry the cell onto its orbit's "
                "representative")
        basis = self.flats(oid).basis([c % m for c in codes])
        u = int_matmul(_first_element(self.tables[oid],
                                      [codes[j] for j in basis], m), w)
        if not self.group.contains(u) or (
                self.constraint is not None
                and not in_parabolic(u, self.constraint)):
            raise CertificateError("orbit witness is not in the group")
        return oid, u

    def add(self, cell: Cell) -> int:
        """A new orbit, represented by the cell.  A searched index computes
        its stabilizer in the group (in Gamma_F under a constraint),
        sorted, with each element's signed permutation of the cell's
        vectors from the search, and files the representative under the
        identity (the first witness of its stabilizer).  A derived index
        has both the stabilizer and the witness, and tables the stabilizer
        by `signed_permutation`, which checks that each element fixes the
        cell; so does a searched one whose stabilizer came without its
        permutations."""
        oid = len(self.orbits)
        self.orbits.append(OrbitCell(oid, cell))
        key = (cell.dim, _orbit_key(cell.config))
        self.buckets.setdefault(key, []).append(oid)
        perms = None
        if self.lookup is None:
            found = config_stabilizer(cell.config, self.group,
                                      flag=self.constraint)
            self.stabilizers.append(found.elements)
            perms = found.permutations
            self._hits[cell.config] = (oid, int_identity(self.group.n))
        elements = self.stabilizers[oid]
        if perms is None:
            perms = [signed_permutation(s, cell.config) for s in elements]
        self.tables.append(dict(zip(elements, perms)))
        return oid

    def file(self, config: VectorConfig, oid: int, w: IntMatrix):
        """Locate the configuration in orbit oid with no search, given an
        element w carrying it onto the representative: of all such, t w
        for t in its stabilizer, keep the first, checked (`_looked_up`)."""
        if config not in self._hits:
            self._hits[config] = self._looked_up(config, (oid, w))

    def file_images(self, config: VectorConfig, images: Sequence[VectorConfig],
                    moves: Sequence[IntMatrix]):
        """File the images s.config of a located configuration, given in
        the order of `moves`, which u s^-1 carries onto the
        representative if u carries config."""
        oid, u = self._hits[config]
        for image, s in zip(images, moves):
            if image not in self._hits:
                self.file(image, oid, int_matmul(u, int_inverse(s)))


def _orbit_complex(index: _OrbitIndex,
                   rep_faces: Sequence[Sequence[tuple[VectorConfig, int]]],
                   incidences: Optional[Sequence[Incidence]] = None
                   ) -> OrbitComplex:
    """The complex of the orbits in the index.  Each representative
    carries its faces, given by the caller in the order of the
    representatives as (config, dim) and located through the index, and
    its stabilizer, which the index computed when it added the orbit; the
    incidences default to the faces of codimension 1."""
    faces = []
    for found in rep_faces:
        located = []
        for config, dim in found:
            hit = index.locate(config, dim)
            if hit is None:
                raise KeyError(f"cell not found in complex: {config}")
            located.append(Face(config, dim, *hit))
        faces.append(tuple(located))
    if incidences is None:
        incidences = [Incidence(oid, f.orbit, f.via)
                      for oid, located in enumerate(faces) for f in located
                      if f.dim == index.orbits[oid].cell.dim - 1]
    return OrbitComplex(index.group, tuple(index.orbits), tuple(incidences),
                        index.constraint, index, tuple(faces),
                        tuple(index.stabilizers))


def _seed_shift(group: GroupSpec) -> IntMatrix:
    """A nontrivial group element used by the reseeded enumeration."""
    n = group.n
    level = group.level if group.is_congruence else 1
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows[0][n - 1] = level
    return tuple(tuple(r) for r in rows)


def enumerate_complex(group: GroupSpec, seed: Cell,
                      variant: int = 0) -> OrbitComplex:
    """BFS over the face/coface graph from a seed cell, canonicalizing
    orbits by the equivalence search; complete because the retract is
    connected and the walk descends to the orbit graph.  A
    representative's stabilizer S comes with its orbit; its faces and
    cofaces are found once per S-orbit, as configurations, and the faces
    are handed on.  Each S-orbit of neighbours is located once: from a
    member already filed, or else by searching the first member met (a
    coface is first decided by its LP), which starts an orbit if the
    search fails; then its S-images are located from its witness
    (`file_images`).  So a cell is built only for a configuration that
    starts an orbit, or for a coface that is not yet filed."""
    index = _OrbitIndex(group, None)
    if variant:
        shift = _seed_shift(group)
        seed = cell_from_config(move_config(shift, seed.config))
    index.add(seed)
    faces: list[list[tuple[VectorConfig, int]]] = []
    while len(faces) < len(index.orbits):    # in id order, breadth first
        oid = len(faces)
        rep = index.orbits[oid].cell
        moves = index.stabilizers[oid]
        action = index.action(oid)
        below = _face_orbits(rep, action).members()
        faces.append([(config, orbit.dim) for config, orbit in below])
        neighbors = below + _coface_orbits(rep, action).members()
        if variant:
            neighbors.reverse()
        refuted: set[_Orbit] = set()
        for config, orbit in neighbors:
            if config in index._hits or orbit in refuted:
                continue
            anchor = next((c for c in orbit.members if c in index._hits),
                          None)
            if anchor is None:
                anchor = config
                cell = None
                if orbit.dim > rep.dim:
                    try:
                        cell = cell_from_config(config)
                    except (Infeasible, NotSpanning):
                        refuted.add(orbit)
                        continue
                if index.locate(config, orbit.dim) is None:
                    index.add(cell or _face_cell(config))
            index.file_images(anchor, orbit.images(anchor), moves)
    return _orbit_complex(index, faces)


def enumerate_W(group: GroupSpec, experimental_n4: bool = False,
                variant: int = 0) -> OrbitComplex:
    """Orbit cells and incidences of the whole retract mod the group,
    walked at level 1 (from a translate of the seed for variant 1) and
    derived from there for a congruence group (`_CosetDecoration`)."""
    n = group.n
    if variant not in (0, 1):
        raise ValueError(f"variant must be 0 or 1, not {variant!r}")
    if n > 4 or (n == 4 and not experimental_n4):
        raise DimensionUnsupported(
            "n = 4 needs the experimental flag; n > 4 is unsupported")
    if group.is_congruence:
        return _derive(enumerate_W(GroupSpec(n, "sl"), experimental_n4,
                                   variant), _CosetDecoration(group))
    seed_form = normalize(root_form(n))
    seed = cell_from_config(minimal_vectors(seed_form).vectors)
    if seed.dim != 0:
        raise CertificateError("seed configuration is not a 0-cell")
    return enumerate_complex(group, seed, variant)


def expected_top_dim(n: int) -> int:
    """dim X - (n - 1) with dim X = n(n+1)/2 - 1."""
    return n * (n + 1) // 2 - 1 - (n - 1)


# ---------------------------------------------------------------------------
# Flags respected by cells; complexes derived from a parent
# ---------------------------------------------------------------------------

Flats = tuple[tuple[frozenset[int], ...], ...]
FlatFlag = tuple[frozenset[int], ...]


def _normals(rows: Sequence[IntVector], n: int) -> list[list[int]]:
    """Integer functionals that vanish exactly on the span of the k rows:
    for each k + 1 of the n columns, the expansion of the (k+1)-minor of
    the rows with v below them along v's row.  v lies in the span exactly
    when every such minor is 0; no functional is left (all are 0) exactly
    when the rows are dependent."""
    k = len(rows)
    columns = list(zip(*rows))
    out = []
    for cols in combinations(range(n), k + 1):
        w = [0] * n
        for at, c in enumerate(cols):
            # a minor is the determinant of its transpose, its columns
            w[c] = (-1) ** (k + at) * int_det(
                tuple(map(columns.__getitem__, cols[:at] + cols[at + 1:])))
        if any(w):
            out.append(w)
    return out


@lru_cache(maxsize=4096)
def _flats(config: VectorConfig) -> Flats:
    """The proper subspaces spanned by vectors of the configuration, by
    dimension k = 1, ..., n-1 (entry k; entry 0 is empty): each as its
    flat, the set of indices of the configuration vectors inside it.  One
    flat contains another exactly when its subspace does.  A line holds
    the vectors of one primitive direction (the configuration's vectors
    are sign-canonical), a larger flat is found from k independent
    vectors by its `_normals`.  Cached, for the configurations used
    last."""
    n = len(config[0])
    lines: dict[IntVector, list[int]] = {}
    for j, v in enumerate(config):
        g = gcd(*v)
        lines.setdefault(tuple(x // g for x in v), []).append(j)
    out = [(), tuple(sorted(map(frozenset, lines.values()), key=sorted))]
    for k in range(2, n):
        found: list[frozenset[int]] = []
        covered: set[tuple[int, ...]] = set()
        for sub in combinations(range(len(config)), k):
            if sub in covered:
                continue
            normals = _normals([config[i] for i in sub], n)
            if normals:
                flat = [j for j, v in enumerate(config)
                        if not any(sum(map(mul, w, v)) for w in normals)]
                found.append(frozenset(flat))
                covered.update(combinations(flat, k))
        out.append(tuple(sorted(found, key=sorted)))
    return tuple(out)


def _flat_flags(flats: Flats, dims: Sequence[int]) -> list[FlatFlag]:
    """The flags of the given dimension type made of flats."""
    chains: list[FlatFlag] = [()]
    for d in dims:
        chains = [c + (x,) for c in chains for x in flats[d]
                  if not c or c[-1] < x]
    return chains


@lru_cache(maxsize=4096)
def _rational_flag(config: VectorConfig, chain: FlatFlag) -> RationalFlag:
    return flag_from_members(len(config[0]), [
        int_transpose(tuple(config[i] for i in sorted(x))) for x in chain])


class _FlatTable:
    """The flats of an orbit representative sigma, numbered, and its
    stabilizer acting on the numbers; made once per representative, by
    its orbit index (`_OrbitIndex.flats`).

    Flat i is the set `sets[i]` of the positions of sigma's vectors in a
    proper subspace they span, of dimension `dims[i]`: the flats of
    `_flats`, numbered by dimension and then in its order.  A numbered
    flag is the tuple of its members' numbers (`flags`).  `perms` gives
    each stabilizer element's permutation of the numbers: the
    generators' are read off their signed permutations of sigma's
    vectors, the others' composed from theirs (`_Action.compose`).
    `basis` picks a basis from vectors given by their positions in sigma,
    as `lattice._independent_basis` does, with no elimination."""

    def __init__(self, config: VectorConfig, action: _Action):
        self.n = len(config[0])
        self.by_dim = _flats(config)
        self.sets = [x for level in self.by_dim for x in level]
        self.dims = [k for k, level in enumerate(self.by_dim) for _ in level]
        self.number = {x: i for i, x in enumerate(self.sets)}
        self.action = action

    def flags(self, dims: Sequence[int]) -> list[tuple[int, ...]]:
        """The numbered flags of the given dimension type."""
        return [tuple(map(self.number.__getitem__, chain))
                for chain in _flat_flags(self.by_dim, dims)]

    @cached_property
    def perms(self) -> dict[IntMatrix, tuple[int, ...]]:
        """Stabilizer element -> its permutation of the flat numbers."""
        action = self.action
        m = action.m
        steps = []
        for g in action.gens:
            p = action.doubled[g]
            step = [self.number.get(frozenset(p[j] % m for j in x))
                    for x in self.sets]
            if None in step:
                raise CertificateError(
                    "the stabilizer does not permute the flats")
            steps.append(step)
        return dict(zip(action.moves, map(tuple, action.compose(
            steps, len(self.sets)))))

    def holding(self, dim: int, positions) -> Optional[int]:
        """The number of the flat of the dimension that holds the
        positions, or None."""
        start = sum(map(len, self.by_dim[:dim]))
        for i in range(start, start + len(self.by_dim[dim])):
            if self.sets[i].issuperset(positions):
                return i
        return None

    def basis(self, positions: Sequence[int]) -> list[int]:
        """The indices of the positions whose vectors are independent of
        the ones chosen before them, n in all: a position is independent
        when it lies outside the flat the chosen ones span."""
        chosen: list[int] = []
        span: frozenset[int] = frozenset()
        for j, x in enumerate(positions):
            if x not in span:
                chosen.append(j)
                if len(chosen) == self.n:
                    return chosen
                span = self.sets[self.holding(len(chosen), span | {x})]
        raise ValueError("configuration does not span")


def flags_respected_by(cell: Cell) -> list[RationalFlag]:
    """Every flag assembled from proper subspaces spanned by subsets of
    the configuration (each such span is automatically respected)."""
    n = cell.n
    flats = _flats(cell.config)
    flags = [_rational_flag(cell.config, chain)
             for r in range(1, n) for dims in combinations(range(1, n), r)
             for chain in _flat_flags(flats, dims)]
    flags.sort(key=lambda f: f.sort_key())
    return flags


def _moved_cell(cell: Cell, g: IntMatrix) -> Cell:
    """The cell g.cell: configuration and contacts moved by g, witness
    A o g^-1, which takes the same values on the moved vectors."""
    return Cell(move_config(g, cell.config), cell.dim,
                cell.witness.transform(int_inverse(g)),
                move_config(g, cell.contacts))


def _positions(u: IntMatrix, config: VectorConfig,
               target: VectorConfig) -> list[int]:
    """The index in target of the image under u of each vector of config."""
    pos = {v: i for i, v in enumerate(target)}
    return [pos[w] for w in move_each(u, config)]


def _derive(parent: OrbitComplex, decoration) -> OrbitComplex:
    """The orbit complex of a subgroup, or of a subcomplex, derived from
    the parent's orbit data with no LP and no equivalence search.

    Each representative sigma of the parent carries a finite set of
    decorations (`points`), which its stabilizer S permutes (`action`);
    the cell g.sigma carries g^-1.x0, for the base decoration x0.  So the
    derived orbits are the S-orbits whose root x has a witness g with
    g.x = x0 (`witness`): the representative is g.sigma, its stabilizer
    g Stab_S(x) g^-1, and its faces g.(faces of sigma).  A face g.f with
    via.f = sigma_f is located like any other configuration
    (`_DerivedLookup`), by u = via g^-1.  Derived stabilizers and face
    witnesses are checked to lie in the group."""
    lookup = _DerivedLookup(parent, decoration)
    pairs, stabilizers, where = lookup.pairs, lookup.stabilizers, lookup.where
    index = _OrbitIndex(decoration.group, decoration.constraint, lookup)
    for oc in parent.cells:
        stabilizer = parent.stabilizers[oc.id]
        act = decoration.action(oc.id, stabilizer)
        done: set = set()
        located: dict = {}
        for x in decoration.points(oc.id):
            if x in done:
                continue
            images = act(x)
            orbit: dict = {}
            for s, image in zip(stabilizer, images):
                orbit.setdefault(image, s)
            done.update(orbit)
            g = decoration.witness(oc.id, x)
            if g is None:
                continue
            for image, s in orbit.items():
                located[image] = (len(pairs), int_inverse(s))
            g_inv = int_inverse(g)
            fixing = tuple(sorted(int_matmul(int_matmul(g, s), g_inv)
                                  for s, image in zip(stabilizer, images)
                                  if image == x))
            if not all(index.group.contains(u) for u in fixing):
                raise CertificateError("derived stabilizer leaves the group")
            stabilizers.append(fixing)
            pairs.append((oc.id, g, g_inv))
        where.append(located)

    cells = [_moved_cell(parent.cells[oid].cell, g) for oid, g, _ in pairs]
    faces = []
    incidences = []
    for pid, (oid, g, g_inv) in enumerate(pairs):
        located_faces = []
        for face in parent.faces[oid]:
            moved = move_config(g, face.config)
            u = int_matmul(face.via, g_inv)
            hit = where[face.orbit].get(decoration.read(face.orbit, moved, u))
            if hit is None:
                raise CertificateError("a face leaves the derived complex")
            qid, t = hit
            via = int_matmul(int_matmul(pairs[qid][1], t), u)
            if not index.group.contains(via):
                raise CertificateError("orbit witness is not in the group")
            if move_config(via, moved) != cells[qid].config:
                raise CertificateError("derived face is located wrongly")
            located_faces.append(Face(moved, face.dim, qid, via))
            if face.dim == cells[pid].dim - 1:
                incidences.append(Incidence(pid, qid, via))
        faces.append(tuple(located_faces))
    for cell in cells:
        index.add(cell)
    return OrbitComplex(index.group, tuple(index.orbits), tuple(incidences),
                        index.constraint, index, tuple(faces),
                        tuple(stabilizers))


class _DerivedLookup:
    """The orbits of a derived complex, through the parent's index: a
    configuration c located there as u.c = sigma carries x0 to u.x0
    (`decoration.read`), which `where` files, if a derived cell g.sigma
    has it, with t in S carrying it onto the root.  Then g t u carries c
    onto g.sigma, and so do its stabilizer's elements times g t u."""

    def __init__(self, parent: OrbitComplex, decoration):
        self.parent = parent
        self.decoration = decoration
        # per derived cell: (parent orbit id, g with g.root = x0, g^-1)
        self.pairs: list[tuple[int, IntMatrix, IntMatrix]] = []
        self.stabilizers: list[tuple[IntMatrix, ...]] = []
        # per parent orbit: decoration -> (derived cell id, t)
        self.where: list[dict] = []

    def locate(self, config: VectorConfig, dim: int):
        hit = self.parent.index.locate(config, dim)
        if hit is None:
            return None
        oid, u = hit
        found = self.where[oid].get(self.decoration.read(oid, config, u))
        if found is None:
            return None
        pid, t = found
        return pid, int_matmul(int_matmul(self.pairs[pid][1], t), u)


class _CosetDecoration:
    """The decoration of W mod a congruence group Gamma, Ash's induction
    from level 1: the points of Omega = Gamma \\ SL_n(Z).  The cell
    h.sigma lies over w0 . h, and h.sigma, h'.sigma are Gamma-equivalent
    exactly when h' in Gamma h S; so the Gamma-orbits inside the
    SL_n(Z)-orbit of sigma are the S-orbits on Omega, s acting by
    w -> w . s^-1, each kept with the witness t(w) of the transversal.
    A configuration c with u.c = sigma lies over w0 . u^-1."""

    constraint = None

    def __init__(self, group: GroupSpec):
        self.group = group
        self.omega = coset_space(group)

    def points(self, oid: int):
        return self.omega.transversal

    def action(self, oid: int, stabilizer):
        moves = [self.omega.mover(int_inverse(s)) for s in stabilizer]
        return lambda w: [move(w) for move in moves]

    def witness(self, oid: int, w) -> IntMatrix:
        return self.omega.transversal[w]

    def read(self, oid: int, config: VectorConfig, u: IntMatrix):
        return self.omega.point(int_inverse(u))


class _FlagDecoration:
    """The decoration of W_F mod Gamma_F: a numbered flag of flats of
    sigma of F's type (`_FlatTable`), the flag F' = g^-1.F that sigma
    respects when g.sigma lies in W_F, kept when `flag_equivalent` carries
    it onto F.  A configuration c located as u.c = sigma reads as the flats
    of sigma's vectors that are images of c's vectors inside F's members.
    A stabilizer acts through its permutations of the flat numbers, which
    the complex's index keeps (`_OrbitIndex.flats`).  `quotient.FlagLift`
    decorates the simplex orbits of W's quotient with it too."""

    def __init__(self, complex: OrbitComplex, flag: RationalFlag):
        self.complex = complex
        self.group = complex.group
        self.constraint = flag
        # flags of flats of different cells are often one flag
        self.witnesses: dict[RationalFlag, Optional[IntMatrix]] = {}

    @cached_property
    def spans(self) -> list[Echelon]:
        """F's members, for `read`."""
        return [Echelon(QQ, int_transpose(m)) for m in self.constraint.members]

    def points(self, oid: int) -> list[tuple[int, ...]]:
        return self.complex.index.flats(oid).flags(self.constraint.dims)

    def action(self, oid: int, stabilizer):
        perms = list(map(self.complex.index.flats(oid).perms.__getitem__,
                         stabilizer))
        return lambda chain: [tuple(map(p.__getitem__, chain))
                              for p in perms]

    def witness(self, oid: int, chain: tuple[int, ...]) -> Optional[IntMatrix]:
        sets = self.complex.index.flats(oid).sets
        flag = _rational_flag(self.complex.cells[oid].cell.config,
                              tuple(map(sets.__getitem__, chain)))
        if flag not in self.witnesses:
            self.witnesses[flag] = flag_equivalent(flag, self.constraint,
                                                   self.group)
        return self.witnesses[flag]

    def read(self, oid: int, config: VectorConfig, u: IntMatrix):
        perm = _positions(u, config, self.complex.cells[oid].cell.config)
        number = self.complex.index.flats(oid).number
        return tuple(number.get(frozenset(perm[i] for i, v in enumerate(config)
                                          if span.spans(v)))
                     for span in self.spans)


def subcomplex_WF(complex: OrbitComplex, flag: RationalFlag) -> OrbitComplex:
    """The flag subcomplex W_F mod Gamma_F, derived from W mod Gamma: a
    cell g.s lies in W_F exactly when s respects F' = g^-1.F, and every
    flag s respects is made of flats of s."""
    check_dimension(flag, complex.group)
    wf = _derive(complex, _FlagDecoration(complex, flag))
    for oc in wf.cells:
        if not respects_flag(oc.cell.config, flag):
            raise CertificateError("derived cell does not respect the flag")
    return wf


# ---------------------------------------------------------------------------
# The small-enough test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmallEnoughReport:
    small_enough: bool
    cell: Optional[Cell] = None
    flag: Optional[RationalFlag] = None
    other: Optional[RationalFlag] = None
    witness: Optional[IntMatrix] = None


def is_small_enough(group: GroupSpec,
                    complex: Optional[OrbitComplex] = None) -> SmallEnoughReport:
    """Scan orbit representatives for a cell respecting two distinct
    flags that some group element carries to one another; finding none
    proves the group small enough (flag-carrying tests are exact)."""
    if complex is None:
        complex = enumerate_W(group)
    for oc in complex.cells:
        flags = flags_respected_by(oc.cell)
        by_type: dict[tuple[int, ...], list[RationalFlag]] = {}
        for f in flags:
            by_type.setdefault(f.dims, []).append(f)
        for dims, group_flags in sorted(by_type.items()):
            for f1, f2 in combinations(group_flags, 2):
                w = flag_equivalent(f1, f2, group)
                if w is not None:
                    return SmallEnoughReport(False, oc.cell, f1, f2, w)
    return SmallEnoughReport(True)
