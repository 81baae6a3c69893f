"""The series product's one-order step as a per-pair loop, for checks.

``gfadm.series`` takes coefficient k > 0 of a truncated Cauchy product,
when the tape grows by one order, as one multiply and one sum over axis 0
where numpy sums row by row in order (values at two or more points, and
Polynomials).  This is the loop it replaces, and the one it keeps for the
other rings: ``a_0 b_k``, then ``+ a_i b_(k-i)`` for i = 1..k in turn.  The
tests require the tape's coefficients to be bitwise these.
"""


def product_coefficient(a, b, k):
    """Coefficient k of the product of the coefficient lists a and b, pair by pair."""
    c = a[0] * b[k]
    for i in range(1, k + 1):
        c = c + a[i] * b[k - i]
    return c
