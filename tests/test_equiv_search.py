"""Cross-check of the integer configuration-equivalence search against the
earlier Fraction search, kept here (and only here) as the oracle.

The oracle pairs vectors through the inverse characteristic form Q_S^-1
with `RatMatrix` arithmetic and inverts the basis matrix over Q; the
search under test uses integer adjugate pairing tables.  Both walk the
same candidates in the same order, so they must agree on existence, on
the first witness and on the whole stabilizer.
"""

import random
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

import pytest

import gauss_jordan as gj
from rational_matrix import RatMatrix
from wellround.cells import _orbit_key
from wellround.exactla import int_det, int_matmul, int_matvec, int_transpose
from wellround.flags import in_parabolic, standard_flag
from wellround.lattice import (
    GroupSpec, canonical_config, canonical_vector, config_equiv, config_rank,
    config_spans, config_stabilizer,
)
from wellround.lattice import _independent_basis as echelon_basis


# --- the Fraction oracle -----------------------------------------------------

def _char_form_inverse(config):
    n = len(config[0])
    q = [[Fraction(0)] * n for _ in range(n)]
    for v in config:
        for i in range(n):
            for j in range(n):
                q[i][j] += v[i] * v[j]
    return gj.inverse(q)


def _independent_basis(config, n):
    chosen, rows = [], []
    for idx, v in enumerate(config):
        if config_rank(tuple(rows) + (v,)) > len(rows):
            chosen.append(idx)
            rows.append(v)
            if len(rows) == n:
                return tuple(chosen)
    raise ValueError("configuration does not span")


def oracle_search(src, dst, group, flag=None, find_all=False):
    n = group.n
    if len(src) != len(dst):
        return []
    if not (config_spans(src, n) and config_spans(dst, n)):
        raise ValueError("configurations must span Q^n")
    qs_inv = _char_form_inverse(src)
    qd_inv = _char_form_inverse(dst)

    def pair(qinv, v, w):
        row = qinv.matvec(w)
        return sum(a * x for a, x in zip(row, v))

    if sorted(pair(qs_inv, v, v) for v in src) != \
            sorted(pair(qd_inv, v, v) for v in dst):
        return []
    basis = [src[i] for i in _independent_basis(src, n)]
    bmat_inv = gj.inverse(int_transpose(tuple(basis)))
    candidates = list(dst) + [tuple(-x for x in w) for w in dst]
    dst_set = frozenset(dst)
    results, images = [], []

    def accept() -> Optional[tuple]:
        u = RatMatrix.from_rows(int_transpose(tuple(images))) @ bmat_inv
        if not u.is_integral():
            return None
        ui = u.to_int()
        if abs(int_det(ui)) != 1:
            return None
        if {canonical_vector(int_matvec(ui, v)) for v in src} != dst_set:
            return None
        if not group.contains(ui):
            return None
        if flag is not None and not in_parabolic(ui, flag):
            return None
        return ui

    def backtrack(depth):
        if results and not find_all:
            return
        if depth == n:
            u = accept()
            if u is not None:
                results.append(u)
            return
        v = basis[depth]
        nv = pair(qs_inv, v, v)
        for w in candidates:
            if pair(qd_inv, w, w) != nv:
                continue
            if any(pair(qd_inv, images[k], w) != pair(qs_inv, basis[k], v)
                   for k in range(depth)):
                continue
            images.append(w)
            backtrack(depth + 1)
            images.pop()
            if results and not find_all:
                return

    backtrack(0)
    return results


# --- random inputs -----------------------------------------------------------

def random_config(rng: random.Random, n: int, size: int):
    """A spanning configuration of `size` primitive +- classes."""
    while True:
        vecs = set()
        while len(vecs) < size:
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v) and _primitive(v):
                vecs.add(canonical_vector(v))
        config = canonical_config(vecs)
        if config_spans(config, n):
            return config


def _primitive(v: Sequence[int]) -> bool:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1


def random_unimodular(rng: random.Random, n: int, steps: int = 4):
    """A product of elementary matrices I + c E_ij, possibly times a
    reflection, so its determinant is +1 or -1."""
    u = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        e = [[int(a == b) for b in range(n)] for a in range(n)]
        e[i][j] = rng.choice((-2, -1, 1, 2))
        u = int_matmul(tuple(map(tuple, e)), u)
    if rng.random() < 0.3:
        u = tuple(tuple(-x for x in row) if k == 0 else row
                  for k, row in enumerate(u))
    return u


def apply(u, config):
    return canonical_config(tuple(int_matvec(u, v)) for v in config)


def groups(n):
    return [GroupSpec(n, "gl"), GroupSpec(n, "sl"), GroupSpec(n, "gamma0", 2),
            GroupSpec(n, "gamma0", 3), GroupSpec(n, "gamma", 3)]


CASES = [(n, seed) for n in (2, 3) for seed in range(12)]


# --- the cross-check ---------------------------------------------------------

@pytest.mark.parametrize("n,seed", CASES)
def test_config_equiv_matches_oracle(n, seed):
    rng = random.Random(1000 * n + seed)
    s = random_config(rng, n, rng.randint(n, n + 2))
    t = apply(random_unimodular(rng, n), s)
    for g in groups(n):
        u = config_equiv(s, t, g)
        expected = oracle_search(s, t, g)
        assert (u is not None) == bool(expected), g
        if u is None:
            continue
        assert u == expected[0]          # same first witness
        assert g.contains(u)
        assert apply(u, s) == t


@pytest.mark.parametrize("n,seed", CASES)
def test_config_equiv_rejects_like_oracle(n, seed):
    # same size, unrelated configurations: mostly inequivalent
    rng = random.Random(2000 * n + seed)
    size = rng.randint(n, n + 2)
    s = random_config(rng, n, size)
    t = random_config(rng, n, size)
    for g in (GroupSpec(n, "gl"), GroupSpec(n, "gamma0", 3)):
        u = config_equiv(s, t, g)
        expected = oracle_search(s, t, g)
        assert u == (expected[0] if expected else None)


@pytest.mark.parametrize("n,seed", CASES)
def test_config_stabilizer_matches_oracle(n, seed):
    rng = random.Random(3000 * n + seed)
    s = random_config(rng, n, rng.randint(n, n + 2))
    for g in groups(n):
        got = config_stabilizer(s, g).elements
        assert set(got) == set(oracle_search(s, s, g, find_all=True)), g
        for u in got:
            assert g.contains(u)
            assert apply(u, s) == s


@pytest.mark.parametrize("n,seed", CASES)
def test_flag_constrained_search_matches_oracle(n, seed):
    rng = random.Random(4000 * n + seed)
    s = random_config(rng, n, rng.randint(n, n + 2))
    t = apply(random_unimodular(rng, n), s)
    flag = standard_flag(n, (1,))
    for g in (GroupSpec(n, "gl"), GroupSpec(n, "sl")):
        u = config_equiv(s, t, g, flag=flag)
        expected = oracle_search(s, t, g, flag=flag)
        assert u == (expected[0] if expected else None)
        if u is not None:
            assert in_parabolic(u, flag)


@pytest.mark.parametrize("n,seed", CASES)
def test_orbit_key_is_invariant(n, seed):
    rng = random.Random(5000 * n + seed)
    s = random_config(rng, n, rng.randint(n, n + 2))
    for _ in range(3):
        assert _orbit_key(s) == _orbit_key(apply(random_unimodular(rng, n), s))


@pytest.mark.parametrize("n,seed", CASES)
def test_independent_basis_matches_oracle(n, seed):
    # the echelon basis keeps the same vectors as one rank per vector;
    # a configuration in a hyperplane is refused by both
    rng = random.Random(6000 * n + seed)
    s = random_config(rng, n, rng.randint(n, n + 3))
    assert echelon_basis(s, n) == _independent_basis(s, n)
    flat = tuple(v[:-1] + (0,) for v in s if any(v[:-1]))
    with pytest.raises(ValueError):
        echelon_basis(flat, n)
    with pytest.raises(ValueError):
        _independent_basis(flat, n)


def test_non_spanning_configuration_is_rejected():
    with pytest.raises(ValueError):
        config_equiv(((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 0)),
                     GroupSpec(3, "gl"))
