"""Seeded uniform directions on the sphere, drawn in cache-sized chunks.

The float campaigns and the sampling oracle stream their draws through
``unit_gaussian_chunks`` and fold each chunk into running extrema, so their
memory does not grow with the number of samples.  The certified halving
ratios (``linearization.remainder_ratio_certified``) draw their seeded
directions here too, before freezing them as exact rationals.  Consecutive
``standard_normal`` draws from one ``numpy.random.Generator`` continue the
same stream, so the chunks are, row for row, the one-shot draw of
``samples`` rows.

The sampler and the oracle sum their short rows with ``row_sums``, which
adds whole columns instead of starting numpy's reduction loop once per row
and returns the same doubles as ``x.sum(axis=1)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # numpy loads inside the float functions, so exact commands never import it
    import numpy as np

# Rows per chunk: a 4096 x 7 array of doubles is 229 KB and stays in L2.
CHUNK_ROWS = 4096


def row_sums(x: np.ndarray) -> np.ndarray:
    """The sums of the rows of a 2-D array, bitwise equal to ``x.sum(axis=1)``.

    Below 8 columns numpy adds each row from the left, starting at +0.0
    (so a row of -0.0 sums to +0.0); adding whole columns in that order
    gives the same doubles without a reduction loop per row.  From 8
    columns on numpy sums pairwise, so its own reduce is used there.
    The adds are not in place: numpy's in-place add may swap its operands,
    and then of two NaNs the other one's sign bit propagates.
    """
    if x.shape[1] >= 8:
        return x.sum(axis=1)
    out = x[:, 0] + 0.0
    for j in range(1, x.shape[1]):
        out = out + x[:, j]
    return out


def unit_gaussian_chunks(rng: np.random.Generator, samples: int, dim: int) -> Iterator[np.ndarray]:
    """Yield ``samples`` uniform unit vectors in R^dim, in (rows, dim) chunks.

    Each row is a standard Gaussian vector divided by its norm (Muller,
    CACM 2(4), 1959), the square root of ``row_sums(x * x)``, which is
    bitwise ``np.linalg.norm(x, axis=1)``.
    """
    import numpy as np

    for start in range(0, samples, CHUNK_ROWS):
        x = rng.standard_normal((min(CHUNK_ROWS, samples - start), dim))
        x /= np.sqrt(row_sums(x * x))[:, None]
        yield x
