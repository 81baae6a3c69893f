"""The series product's one-order step as a per-pair loop, for checks.

``gfadm.series`` takes coefficient k > 0 of a truncated Cauchy product,
when the tape grows by one order, in one pass over its pairs: on values
at two or more points one multiply and one sum over axis 0, where numpy
sums row by row in order, and on Polynomials one convolution per pair
added into one coefficient array as ``Polynomial.__add__`` adds.  This is
the loop of ring operations those passes replace, and the one the tape
keeps for floats at one point: ``a_0 b_k``, then ``+ a_i b_(k-i)`` for
i = 1..k in turn.  The tests require the tape's coefficients to be bitwise
these.
"""


def product_coefficient(a, b, k):
    """Coefficient k of the product of the coefficient lists a and b, pair by pair."""
    c = a[0] * b[k]
    for i in range(1, k + 1):
        c = c + a[i] * b[k - i]
    return c
