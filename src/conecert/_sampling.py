"""Seeded uniform directions on the sphere, drawn in cache-sized chunks.

The float campaigns and the sampling oracle stream their draws through
``unit_gaussian_chunks`` and fold each chunk into running extrema, so their
memory does not grow with the number of samples.  The certified halving
ratios (``linearization.remainder_ratio_certified``) draw their seeded
directions here too, before freezing them as exact rationals.  Consecutive
``standard_normal`` draws from one ``numpy.random.Generator`` continue the
same stream, so the chunks are, row for row, the one-shot draw of
``samples`` rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # numpy loads inside the float functions, so exact commands never import it
    import numpy as np

# Rows per chunk: a 4096 x 7 array of doubles is 229 KB and stays in L2.
CHUNK_ROWS = 4096


def unit_gaussian_chunks(rng: np.random.Generator, samples: int, dim: int) -> Iterator[np.ndarray]:
    """Yield ``samples`` uniform unit vectors in R^dim, in (rows, dim) chunks.

    Each row is a standard Gaussian vector divided by its norm (Muller,
    CACM 2(4), 1959).
    """
    import numpy as np

    for start in range(0, samples, CHUNK_ROWS):
        x = rng.standard_normal((min(CHUNK_ROWS, samples - start), dim))
        x /= np.linalg.norm(x, axis=1)[:, None]
        yield x
