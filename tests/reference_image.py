"""The grid kernel image as it was before the node matrix, for checks.

``gfadm.kernels.kernel_apply`` evaluates a grid function's image at the
function's own nodes by one product with a cached node matrix.  This is the
path it replaces, and the one it keeps for every other point set: the
image's Chebyshev coefficients summed by Clenshaw (``chebval``).  The tests
require the node matrix to match it to rounding.
"""

import numpy as np
from numpy.polynomial import chebyshev

from gfadm.kernels import _image_coeffs


def image_at(k, g, xs):
    """The image of the grid function g under kernel k at xs, by Clenshaw."""
    coeffs = _image_coeffs(k, g.values.size - 1) @ g.values
    return chebyshev.chebval(2.0 * np.asarray(xs, dtype=float) - 1.0, coeffs)
