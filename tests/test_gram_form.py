"""A Gram form is an integer matrix over one reduced denominator.

The pair (numer, denom) must be the one the Fraction oracle's
`int_scaled` gives, must not depend on a common factor of the input, and
must be all that equality, hashing and the JSON answer see.  The exact
work on forms (retraction, orthant bounds, retraction paths, cell
witnesses) builds no Fraction matrix at all.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wellround.exactla as exactla
from rational_matrix import RatMatrix, int_scaled
from wellround.cells import enumerate_W, subcomplex_WF
from wellround.flags import standard_flag
from wellround.lattice import GramForm, GroupSpec
from wellround.retraction import orthant_bound, retract, retract_path


@st.composite
def spd_rows(draw):
    """Rows of B^T B + c I for a rational n x n matrix B and c > 0, with
    denominators up to 1, 7 or 10^6."""
    n = draw(st.integers(1, 4))
    max_den = draw(st.sampled_from((1, 7, 10 ** 6)))
    entry = st.integers(1, max_den).flatmap(
        lambda q: st.integers(-3 * q, 3 * q).map(lambda p: Fraction(p, q)))
    b = [[draw(entry) for _ in range(n)] for _ in range(n)]
    c = abs(draw(entry)) + Fraction(1, draw(st.integers(1, max_den)))
    return [[sum(b[k][i] * b[k][j] for k in range(n)) + (c if i == j else 0)
             for j in range(n)] for i in range(n)]


@given(spd_rows(), st.integers(1, 10 ** 6), st.data())
@settings(max_examples=150, deadline=None)
def test_form_is_the_reduced_integer_pair(rows, k, data):
    oracle = RatMatrix.from_rows(rows)
    numer, denom = int_scaled(oracle)
    a = GramForm.from_rows(rows)
    assert (a.numer, a.denom) == (numer, denom)
    assert a.matrix.entries == oracle.entries

    multiple = GramForm(tuple(tuple(k * x for x in row) for row in numer),
                        k * denom)
    assert multiple == a
    assert (multiple.numer, multiple.denom) == (numer, denom)
    assert hash(multiple) == hash(a)
    assert multiple.to_json() == a.to_json()

    c = data.draw(st.fractions(min_value=Fraction(1, 10 ** 4),
                               max_value=10 ** 4, max_denominator=10 ** 4))
    scaled = a.scale(c)
    assert (scaled.numer, scaled.denom) == int_scaled(oracle.scale(c))
    u = RatMatrix.from_rows([[data.draw(st.integers(-2, 2)) if i < j
                              else int(i == j) for j in range(a.n)]
                             for i in range(a.n)])
    moved = a.transform(u.to_int())
    assert (moved.numer, moved.denom) == \
        int_scaled(u.transpose() @ oracle @ u)


@pytest.mark.parametrize("numer, denom, message", [
    ((), 1, "at least one row"),
    (((1, 0), (0, 1), (0, 0)), 1, "must be square"),
    (((1, 0), (1, 1)), 1, "must be symmetric"),
    (((1,),), 0, "denominator must be positive"),
    (((1,),), -2, "denominator must be positive"),
])
def test_constructor_rejects_malformed_pairs(numer, denom, message):
    with pytest.raises(ValueError, match=message):
        GramForm(numer, denom)


def test_exact_work_builds_no_rat_matrix(monkeypatch):
    """Retraction, orthant bounds, a retraction path and the cell LPs
    with their witnesses run with `RatMatrix` construction refused."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("a RatMatrix was built")

    monkeypatch.setattr(exactla.RatMatrix, "__init__", refuse)
    a = GramForm.from_rows([[3, 1, 0], [1, 4, 1], [0, 1, 7]])
    line = standard_flag(3, (1,))
    trace = retract(a)
    assert [stage.mu_sq for stage in trace.stages] == [Fraction(8, 11),
                                                       Fraction(339, 592)]
    assert orthant_bound(a, line).t_sq == (Fraction(11, 36),)
    mid = retract_path(a, Fraction(1, 4))
    assert mid not in (a, trace.final_form)
    assert enumerate_W(GroupSpec(2, "gl")).cells
    assert subcomplex_WF(enumerate_W(GroupSpec(3, "sl")), line).cells
    with pytest.raises(AssertionError, match="a RatMatrix was built"):
        a.matrix
