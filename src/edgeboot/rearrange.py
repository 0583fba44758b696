"""Monotone increasing rearrangement and [0,1] clipping of CDF values.

Expansion-based CDF approximations can dip outside [0,1] or decrease; the
discrete increasing rearrangement (sorting the values on the grid) is the
standard repair and never worsens the fit to a monotone target.  Each
function takes the values of a curve on its grid, in grid order.
"""

from __future__ import annotations

import numpy as np


def rearrange_increasing(values) -> tuple[float, ...]:
    """The values in ascending order (on the same grid)."""
    return tuple(sorted(values))


def clip01(values) -> tuple[float, ...]:
    return tuple(min(1.0, max(0.0, v)) for v in values)


def is_nondecreasing(values) -> bool:
    arr = np.asarray(values)
    return bool(np.all(np.diff(arr) >= 0))
