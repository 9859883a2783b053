"""Seeded uniform directions on the sphere, drawn in cache-sized chunks.

The float campaigns and the sampling oracle stream their draws through
``unit_gaussian_chunks`` and fold each chunk into running extrema, so their
memory does not grow with the number of samples.  The certified halving
ratios (``linearization.remainder_ratio_certified``) draw their seeded
directions here too, before freezing them as exact rationals.  Consecutive
``standard_normal`` draws from one ``numpy.random.Generator`` continue the
same stream, so the chunks are, row for row, the one-shot draw of
``samples`` rows.

A campaign that needs several dimensions draws once, at the widest, and
reads each narrower one as a prefix of the columns: the first d coordinates
of a standard Gaussian vector are a standard Gaussian vector in R^d, so
each normalised prefix is uniform on its own sphere (Muller, CACM 2(4),
1959).  The prefixes of one draw are dependent, which no campaign's
verdict relies on: each dimension is checked on its own.

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


def unit_gaussian_chunks(rng: np.random.Generator, samples: int, widths: tuple[int, ...]) -> Iterator[np.ndarray]:
    """Yield ``samples`` uniform unit vectors in R^d for each d in ``widths``, in chunks.

    ``widths`` is ascending.  Each chunk is one (rows, widths[-1]) standard
    Gaussian block; for each width d in turn it yields the block's first d
    columns divided by their row norms, the square roots of ``row_sums``
    of their squares, which are bitwise ``np.linalg.norm``.  Only the block
    is kept between yields, so a caller that drops each prefix before the
    next holds one at a time.  With a single width the chunks are the
    normalised rows of one draw in R^d.
    """
    import numpy as np

    for start in range(0, samples, CHUNK_ROWS):
        x = rng.standard_normal((min(CHUNK_ROWS, samples - start), widths[-1]))
        for d in widths[:-1]:
            prefix = x[:, :d]
            yield prefix / np.sqrt(row_sums(prefix * prefix))[:, None]
        # The widest prefix is the block itself, normalised in place.
        x /= np.sqrt(row_sums(x * x))[:, None]
        yield x
