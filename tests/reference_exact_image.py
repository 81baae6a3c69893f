"""The exact backend's row image as it was before the monomial table, for checks.

``gfadm.solver`` images an Adomian row on the exact backend through a
per-solve table of monomial images, scaled and reduced as one array.  This
is the loop it replaces: one ``kernel_monomial_image`` call per non-zero
coefficient, and one Polynomial product and sum each.  The tests require
the table's image to be bitwise this one, length and signed zeros included.
"""

from gfadm.grids import Polynomial
from gfadm.kernels import kernel_monomial_image


def row_image(k, row):
    """The image of the Polynomial row under kernel k, term by term."""
    out = Polynomial.zero()
    for m, cm in enumerate(row.coeffs):
        if cm != 0.0:
            out = out + cm * kernel_monomial_image(k, m)
    return out
