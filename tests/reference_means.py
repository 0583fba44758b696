"""The replicate engine's documented power-mean formula, over a whole array at
once, as a test reference.

Test-only: the oracles of ``mc`` and ``bca`` read their rows' means here, so
the engine must give these bits whatever its chunks, blocks and threads.
"""

from __future__ import annotations

import numpy as np


def row_power_means(w: np.ndarray, d: int) -> dict[int, np.ndarray]:
    """Means of the first ``d`` powers of each row of ``w``: the powers are the
    repeated products ``w, w*w, (w*w)*w, ...`` and a mean is the ``einsum`` row
    sum divided by the row length."""
    means, wp = {}, w
    for i in range(1, d + 1):
        if i > 1:
            wp = wp * w
        means[i] = np.einsum("ij->i", wp) / w.shape[1]
    return means
