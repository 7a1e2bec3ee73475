"""The integer split kernel and the fraction-free Fincke-Pohst against the
Fraction code they replaced.

The references below are the package's former Fraction implementations,
kept only here as oracles: the LDL^T elimination, the Fincke-Pohst
enumeration over its rational centres, the A-orthogonal span projector
with the parallel/perpendicular parts it gave, the stopping scale built
on them, and the projector form of the block scaling.  Random rational
positive-definite forms with n = 2..4, many with large denominators, must
give the same factorization, the same enumerations (also checked against
a brute-force box scan), the same stage factors, tight vectors and final
forms, and the same block scalings.  The retraction is also checked for
GL_n(Z)-equivariance.
"""

import itertools
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gauss_jordan as gj
from rational_matrix import RatMatrix, int_scaled
from wellround.cells import _pd_violation
from wellround.exactla import (
    NotPositiveDefinite, int_ldlt, int_matmul, int_transpose, saturation,
)
from wellround.flags import standard_flag
from wellround.lattice import (
    GramForm, _enumerate_values, canonical_config, canonical_vector,
    config_rank, config_spans, is_primitive, minimal_vectors, normalize,
    vectors_below,
)
from wellround.retraction import (
    ScalingVector, _qf, _Split, flag_split, retract, scale_along_flag,
    stopping_mu,
)


# --- the former Fraction implementations ------------------------------------

def mat(a):
    """The matrix of a form as an oracle RatMatrix."""
    return RatMatrix(a.matrix.entries)


def ref_form(m):
    """The GramForm with the oracle matrix m."""
    return GramForm(*int_scaled(m))


def ref_ldlt(a):
    """Fraction LDL^T: (L as lists, pivots); NotPositiveDefinite at the
    first nonpositive pivot."""
    n = a.rows
    lmat = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = []
    for j in range(n):
        dj = a[j, j] - sum(lmat[j][k] * lmat[j][k] * d[k] for k in range(j))
        if dj <= 0:
            raise NotPositiveDefinite(j + 1)
        d.append(dj)
        for i in range(j + 1, n):
            lmat[i][j] = (a[i, j] - sum(lmat[i][k] * lmat[j][k] * d[k]
                                        for k in range(j))) / dj
    return lmat, d


def int_ldlt_factors(a):
    """(L as lists, pivots) read off the fraction-free `int_ldlt` of
    M = D a: L[j][i] = rows[i][j] / Delta_{i+1} and d_i = Delta_{i+1} /
    (Delta_i D)."""
    m, den = int_scaled(a)
    rows, minors = int_ldlt(m)
    n = len(rows)
    prev = (1,) + minors
    lmat = [[Fraction(rows[j][i], minors[j]) if i > j else Fraction(int(i == j))
             for j in range(n)] for i in range(n)]
    return lmat, [Fraction(minors[i], prev[i] * den) for i in range(n)]


def ref_enumerate(a, bound):
    """Fraction Fincke-Pohst: sorted (canonical vector, value) pairs with
    value <= bound, and the leaves in the order visited."""
    n = a.n
    lmat, d = ref_ldlt(mat(a))
    bound = Fraction(bound)
    if bound <= 0:
        return [], []
    out = []
    visits = []
    v = [0] * n

    def descend(i, remaining):
        if i < 0:
            vec = tuple(v)
            if any(vec):
                visits.append(vec)
                out.append((canonical_vector(vec), bound - remaining))
            return
        c = sum(lmat[j][i] * v[j] for j in range(i + 1, n))
        center = -c
        m0 = (2 * center.numerator + center.denominator) // (2 * center.denominator)
        for step, start in ((1, m0), (-1, m0 - 1)):
            m = start
            while True:
                t = d[i] * (m + c) ** 2
                if t > remaining:
                    break
                v[i] = m
                descend(i - 1, remaining - t)
                m += step
        v[i] = 0

    descend(n - 1, bound)
    return sorted(dict(out).items()), visits


def ref_minimal(a):
    items, _ = ref_enumerate(a, min(a.matrix[i, i] for i in range(a.n)))
    least = min(val for _, val in items)
    return least, tuple(v for v, val in items if val == least)


def ref_span_projector(a, member):
    b = RatMatrix.from_rows(member)
    gram = b.transpose() @ mat(a) @ b
    return b @ gj.inverse(gram) @ b.transpose() @ mat(a)


def ref_parts(a, proj, w):
    pw = proj.matvec(w)
    qw = tuple(Fraction(x) - y for x, y in zip(w, pw))
    p = sum(x * y for x, y in zip(mat(a).matvec(pw), pw))
    q = sum(x * y for x, y in zip(mat(a).matvec(qw), qw))
    return p, q


def ref_scale_at_member(a, member, mu_sq):
    p = ref_span_projector(a, member)
    q = RatMatrix.identity(a.n) - p
    return ref_form((p.transpose() @ mat(a) @ p)
                    + (q.transpose() @ mat(a) @ q).scale(mu_sq))


def ref_vectors_below(a, bound):
    return tuple(v for v, _ in ref_enumerate(a, bound)[0] if is_primitive(v))


def ref_stopping(a, member):
    proj = ref_span_projector(a, member)

    def ratio(w):
        p, q = ref_parts(a, proj, w)
        if q == 0 or p >= 1:
            return None
        return (1 - p) / q

    best = None
    radius = Fraction(4)
    while best is None:
        for w in ref_vectors_below(a, radius):
            r = ratio(w)
            if r is not None and (best is None or r > best):
                best = r
        radius *= 2
    while True:
        scaled = ref_scale_at_member(a, member, best)
        tight = []
        violated = False
        for w in ref_vectors_below(scaled, 1):
            val = scaled.value(w)
            if ref_parts(a, proj, w)[1] == 0:
                continue
            if val < 1:
                r = ratio(w)
                if r is not None and r > best:
                    best, violated = r, True
            elif val == 1:
                tight.append(w)
        if not violated:
            return best, canonical_config(tight)


def ref_retract(a):
    """Stages (member, mu^2, tight) and final form, all on the references."""
    least, _ = ref_minimal(a)
    cur = a.scale(1 / least)
    stages = []
    for i in range(1, a.n):
        member = saturation(int_transpose(ref_minimal(cur)[1]))
        if len(member[0]) == i:
            mu_sq, tight = ref_stopping(cur, member)
            cur = ref_scale_at_member(cur, member, mu_sq)
            stages.append((member, mu_sq, tight))
        else:
            stages.append((member, Fraction(1), ()))
    return tuple(stages), cur


def ref_scale_along_flag(a, flag, s):
    nested = [ref_span_projector(a, m) for m in flag.members]
    nested.append(RatMatrix.identity(a.n))
    out = RatMatrix.zeros(a.n, a.n)
    prev = RatMatrix.zeros(a.n, a.n)
    for factor, p in zip(s.s_sq, nested):
        proj = p - prev
        out = out + (proj.transpose() @ mat(a) @ proj).scale(factor)
        prev = p
    return ref_form(out)


# --- random forms -------------------------------------------------------------

def rationals(max_den, bound=2):
    """Rationals x with |x| <= bound and denominator up to max_den."""
    return st.integers(1, max_den).flatmap(
        lambda q: st.integers(-bound * q, bound * q).map(lambda p: Fraction(p, q)))


@st.composite
def rational_forms(draw, ns=(2, 3, 4)):
    """A = L diag(d) L^T with L unit lower triangular, |L_ij| <= 1 and
    pivots in [1/2, 2]: entries with denominators up to 10^6 for about
    half the forms, up to 7 for a quarter, and integral forms otherwise."""
    n = draw(st.sampled_from(ns))
    kind = draw(st.sampled_from(("integral", "small", "large", "large")))
    if kind == "integral":
        entries = st.integers(-1, 1).map(Fraction)
        pivots = st.integers(1, 2).map(Fraction)
    else:
        max_den = 7 if kind == "small" else 10 ** 6
        entries = rationals(max_den, 1)
        pivots = rationals(max_den, 1).map(lambda x: abs(x) * 3 / 2 + Fraction(1, 2))
    low = [[draw(entries) if j < i else Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    d = [draw(pivots) for _ in range(n)]
    rows = [[sum(low[i][k] * d[k] * low[j][k] for k in range(n))
             for j in range(n)] for i in range(n)]
    return GramForm.from_rows(rows)


def brute_force(a, bound):
    """Primitive and imprimitive classes with value <= bound, by a scan of
    the box |v_i| <= sqrt(bound (A^-1)_ii), which contains all of them."""
    inv = gj.inverse(a.matrix)
    radii = [isqrt((bound * inv[i, i]).__floor__()) + 1 for i in range(a.n)]
    size = 1
    for r in radii:
        size *= 2 * r + 1
    assume(size <= 20000)
    found = {}
    for v in itertools.product(*(range(-r, r + 1) for r in radii)):
        if any(v):
            val = a.value(v)
            if val <= bound:
                found[canonical_vector(v)] = val
    return dict(sorted(found.items()))


# --- factorization --------------------------------------------------------------

@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices, positive definite or not."""
    n = draw(st.integers(1, 4))
    ent = rationals(draw(st.sampled_from((1, 5, 10 ** 6))), 6)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(ent)
        if draw(st.booleans()):
            rows[i][i] = abs(rows[i][i]) + 5
    return RatMatrix.from_rows(rows)


def ref_pd_violation(a):
    """The Fraction version of cells._pd_violation."""
    n = a.rows
    lmat = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = []
    for j in range(n):
        dj = a[j, j] - sum(lmat[j][k] ** 2 * d[k] for k in range(j))
        if dj <= 0:
            x = [Fraction(0)] * n
            x[j] = Fraction(1)
            for i in reversed(range(j)):
                x[i] = -sum(lmat[k][i] * x[k] for k in range(i + 1, j + 1))
            den = 1
            for c in x:
                den = den * c.denominator // gcd(den, c.denominator)
            return canonical_vector(tuple(int(c * den) for c in x))
        d.append(dj)
        for i in range(j + 1, n):
            lmat[i][j] = (a[i, j] - sum(lmat[i][k] * lmat[j][k] * d[k]
                                        for k in range(j))) / dj
    return None


@given(symmetric_matrices())
@settings(max_examples=200, deadline=None)
def test_ldlt_and_pd_check_match_fraction_elimination(a):
    try:
        want = ref_ldlt(a)
    except NotPositiveDefinite as exc:
        with pytest.raises(NotPositiveDefinite) as got:
            int_ldlt_factors(a)
        assert got.value.index == exc.index
        with pytest.raises(NotPositiveDefinite) as got:
            ref_form(a)
        assert got.value.index == exc.index
        assert _pd_violation(int_scaled(a)[0], exc.index) == ref_pd_violation(a)
    else:
        assert int_ldlt_factors(a) == want
        ref_form(a)
        assert ref_pd_violation(a) is None


# --- enumeration ----------------------------------------------------------------

def leaves_visited(a, bound):
    """The leaves of the integer walk in the order visited, recorded
    through canonical_vector, which the walk calls on each of them."""
    import wellround.lattice as lattice
    seen = []
    real = lattice.canonical_vector
    lattice.canonical_vector = lambda v: seen.append(tuple(v)) or real(v)
    try:
        vectors_below(a, bound)
    finally:
        lattice.canonical_vector = real
    return seen


def last_nonzero_positive(v):
    return [x for x in v if x][-1] > 0


@given(rational_forms(), st.sampled_from((Fraction(1), Fraction(3, 2),
                                          Fraction(5, 2), Fraction(7, 3))))
@settings(max_examples=120, deadline=None)
def test_vectors_below_matches_fraction_fincke_pohst(a, factor):
    bound = factor * min(a.matrix[i, i] for i in range(a.n))
    want, order = ref_enumerate(a, bound)
    brute = brute_force(a, bound)
    assert dict(want) == brute
    # the walk covers half the ellipsoid: exactly the rational search's
    # leaves whose last nonzero entry is positive, in its order
    assert leaves_visited(a, bound) == \
        [v for v in order if last_nonzero_positive(v)]
    # so it yields each +- class once, with the box scan's values
    items = _enumerate_values(a, bound)
    assert len({v for v, _ in items}) == len(items)
    assert {v: Fraction(val, a.denom) for v, val in items} == brute
    assert vectors_below(a, bound, raw=True) == tuple(brute)
    assert vectors_below(a, bound) == tuple(v for v in brute if is_primitive(v))
    res = minimal_vectors(a)
    assert (res.min_sq, res.vectors) == ref_minimal(a)


# --- retraction -----------------------------------------------------------------

@given(rational_forms(ns=(2, 3)))
@settings(max_examples=40, deadline=None)
def test_retract_matches_fraction_projectors(a):
    trace = retract(a)
    stages, final = ref_retract(a)
    assert [(st.member, st.mu_sq, st.tight) for st in trace.stages] == \
        list(stages)
    assert trace.final_form == final


@given(rational_forms(ns=(2, 3)))
@settings(max_examples=40, deadline=None)
def test_stopping_mu_matches_fraction_projectors(a):
    a = normalize(a)
    member = saturation(int_transpose(minimal_vectors(a).vectors))
    assume(len(member[0]) < a.n)
    assert stopping_mu(a, member) == ref_stopping(a, member)[0]


@given(rational_forms())
@settings(max_examples=80, deadline=None)
def test_carried_minima_match_a_fresh_enumeration_at_each_stage(a):
    # retract enumerates the minimal vectors once and carries them: every
    # stage gets the minima of its input form, and its output form has
    # the minima it was given together with the tight vectors
    import wellround.retraction as retraction
    real = retraction._stopping
    stages = []

    def checked(form, member, mins):
        assert mins == minimal_vectors(form)
        mu_sq, tight, scaled = real(form, member, mins)
        assert minimal_vectors(scaled).vectors == \
            canonical_config(mins.vectors + tight)
        stages.append(mu_sq)
        return mu_sq, tight, scaled

    retraction._stopping = checked
    try:
        trace = retract(a)
    finally:
        retraction._stopping = real
    assert stages == [st.mu_sq for st in trace.stages if st.mu_sq != 1]


@st.composite
def saturated_members(draw, n):
    """The saturation of d < n random independent integer columns."""
    d = draw(st.integers(1, n - 1))
    cols = [tuple(draw(st.integers(-2, 2)) for _ in range(n))
            for _ in range(d)]
    assume(config_rank(cols) == d)
    return saturation(int_transpose(cols))


@given(rational_forms(), st.data())
@settings(max_examples=40, deadline=None)
def test_stopping_scores_match_fraction_parts(a, data):
    # a stopping candidate w is scored by P = w^T S w and
    # Q = g w^T M w - P, its squared parallel and perpendicular parts
    # over E
    member = data.draw(saturated_members(a.n))
    split = _Split(a, member)
    proj = ref_span_projector(a, member)
    for w in vectors_below(a, 4):
        par = _qf(split.s, w)
        perp = split.g * _qf(a.numer, w) - par
        assert (Fraction(par, split.e), Fraction(perp, split.e)) == \
            ref_parts(a, proj, w)


def test_cold_retract_scores_and_enumerates_without_waste(monkeypatch):
    # a fixed n = 4 form with three proper stages, in a basis where the
    # members are not coordinate subspaces
    import wellround.exactla as exactla
    import wellround.flags as flags
    import wellround.lattice as lattice
    import wellround.retraction as retraction
    rows = [[2, 1, 0, 0], [1, 3, Fraction(1, 2), 0],
            [0, Fraction(1, 2), 5, 1], [0, 0, 1, 7]]
    u = ((1, 1, 0, 0), (0, 1, -1, 0), (0, 0, 1, 2), (0, 0, 0, 1))
    a = GramForm.from_rows(rows).transform(u)
    calls = {"int_matvec": 0, "flag_from_members": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name, modules in (("int_matvec", (exactla, lattice, retraction)),
                          ("flag_from_members", (flags, retraction))):
        wrapper = counted(name, getattr(modules[0], name))
        for module in modules:
            monkeypatch.setattr(module, name, wrapper, raising=False)

    # int_matvec calls made inside each _stopping call
    in_stopping = []
    real_stopping = retraction._stopping

    def stopping(*args):
        before = calls["int_matvec"]
        try:
            return real_stopping(*args)
        finally:
            in_stopping.append(calls["int_matvec"] - before)

    monkeypatch.setattr(retraction, "_stopping", stopping)

    # each enumeration visits one leaf per +- class it returns
    leaves = []
    enumerations = []
    real_canonical = lattice.canonical_vector
    real_enumerate = lattice._enumerate_values

    def canonical(v):
        if leaves:
            leaves[-1] += 1
        return real_canonical(v)

    def enumerate_values(*args):
        leaves.append(0)
        items = real_enumerate(*args)
        enumerations.append((leaves.pop(), len(items)))
        return items

    monkeypatch.setattr(lattice, "canonical_vector", canonical)
    monkeypatch.setattr(lattice, "_enumerate_values", enumerate_values)
    trace = retract(a)
    assert [st.mu_sq for st in trace.stages] == \
        [Fraction(3, 5), Fraction(97, 147), Fraction(2560, 3589)]
    assert len(trace.irredundant.members) == 3
    assert in_stopping == [0, 0, 0]
    assert calls["flag_from_members"] == 0
    assert enumerations and all(x == y for x, y in enumerations)


@given(rational_forms(), st.data())
@settings(max_examples=60, deadline=None)
def test_scale_along_flag_and_split_match_projectors(a, data):
    n = a.n
    dims = sorted(data.draw(st.sets(st.integers(1, n - 1), min_size=1)))
    flag = standard_flag(n, dims)
    factors = st.integers(1, 10 ** 4).flatmap(
        lambda q: st.integers(1, 9 * q).map(lambda p: Fraction(p, q)))
    s = ScalingVector.of([1] + [data.draw(factors) for _ in dims])
    assert scale_along_flag(a, flag, s) == ref_scale_along_flag(a, flag, s)
    nested = [ref_span_projector(a, m) for m in flag.members]
    nested.append(RatMatrix.identity(n))
    want = [p - q for p, q in zip(nested, [RatMatrix.zeros(n, n)] + nested)]
    assert [p.entries for p in flag_split(a, flag).projectors] == \
        [p.entries for p in want]


def test_scale_along_flag_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="flag dimension mismatch"):
        scale_along_flag(GramForm.identity(2), standard_flag(3, (1,)),
                         ScalingVector.of((1, 2)))


# --- GL_n(Z)-equivariance ------------------------------------------------------

@st.composite
def unimodular(draw, n):
    """A product of elementary matrices and a signed permutation."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-2, 2))
        u = [[u[r][k] + (c * u[j][k] if r == i else 0) for k in range(n)]
             for r in range(n)]
    perm = draw(st.permutations(range(n)))
    signs = [draw(st.sampled_from((1, -1))) for _ in range(n)]
    return tuple(tuple(signs[r] * u[perm[r]][k] for k in range(n))
                 for r in range(n))


@given(rational_forms(ns=(2, 3)), st.data())
@settings(max_examples=40, deadline=None)
def test_retract_is_gl_equivariant(a, data):
    u = data.draw(unimodular(a.n))
    trace = retract(a)
    moved = retract(a.transform(u))
    assert moved.final_form == trace.final_form.transform(u)
    assert [st.mu_sq for st in moved.stages] == [st.mu_sq for st in trace.stages]
    # the minima flag moves by U^-1, which maps members onto members
    for m1, m2 in zip(trace.minima_flag, moved.minima_flag):
        assert saturation(int_matmul(u, m2)) == m1
    if trace.irredundant is not None:
        assert config_spans(minimal_vectors(moved.final_form).vectors, a.n)
        assert moved.irredundant is not None
        assert len(moved.irredundant.members) == len(trace.irredundant.members)
