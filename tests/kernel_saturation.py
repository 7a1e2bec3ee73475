"""Saturation as `exactla.saturation` computed it before it took the
column Hermite form of a lattice whose maximal minors have gcd 1 as the
answer: always the Hermite form of the integer kernel of the integer
kernel of m^T, I when that kernel is empty.  Kept only here, as the
oracle that the tests compare the package with."""

from wellround.exactla import (
    IntMatrix, hnf, int_identity, int_kernel, int_matrix, int_transpose,
)


def kernel_saturation(m: IntMatrix) -> IntMatrix:
    """Canonical basis (column HNF) of span_Q(columns of m) intersected
    with Z^n."""
    m = int_matrix(m)
    n = len(m)
    perp = int_kernel(int_transpose(m))  # vectors orthogonal to the span
    if not perp:
        return hnf(int_identity(n))
    return hnf(int_transpose(int_kernel(perp)))
