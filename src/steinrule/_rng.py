"""Counter-based random streams.

Every draw is addressed by (seed, stream, index), so batches can be
generated in any order, in parallel, and concatenated by index without
changing a single bit. Philox hands out 4 uint64 words per counter tick,
which `Generator.random` turns into 4 doubles, so a logical draw of
dimension d is padded to whole ticks: stride = ceil(d / 4) * 4 uniforms.
"""

import operator

import numpy as np
from scipy.special import ndtri

_WORDS_PER_TICK = 4
# smallest uniform Generator.random can emit is 0; ndtri(0) = -inf
_U_FLOOR = 2.0 ** -53

STREAM_NOISE = 0
STREAM_MIXING = 1

# float64 values per array in a chunked pass (400 kB): the bound suite
# and the sweep cell take chunks(count, width) of draws `width` values
# wide, the bootstrap fits CHUNK_ELEMS // (n k) replicates of an n x k
# design per chunk, so the memory of all three stays flat in the draw or
# replicate count.
CHUNK_ELEMS = 512 * 25 * 4


def _block_stride(dim):
    return -(-dim // _WORDS_PER_TICK) * _WORDS_PER_TICK


def chunk_rows(dim):
    """Draws per chunk when one draw holds `dim` values, at least one."""
    return max(1, CHUNK_ELEMS // _block_stride(dim))


def chunks(count, dim):
    """(lo, hi) ranges tiling range(count) in order, for draws of `dim`
    values: as few as chunk_rows(dim) allows, split evenly. No range holds
    a single draw unless count is 1: a one-row batch takes BLAS's
    matrix-vector kernel and its bits differ from the same row in a
    larger batch. So a range exceeds chunk_rows(dim) only when that is
    1 or 2 and an even split would leave a draw alone."""
    pieces = min(-(-count // chunk_rows(dim)), max(1, count // 2))
    for i in range(pieces):
        yield count * i // pieces, count * (i + 1) // pieces


def _key(seed):
    """The seed as an int, refused unless it is an integer in [0, 2**64)."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if isinstance(seed, bool) or not 0 <= value < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return value


def uniforms(seed, count, dim, stream=0, start=0):
    """`count` rows of `dim` uniforms, draws numbered start..start+count-1.

    uniforms(s, a, d)[i] == uniforms(s, 1, d, start=i)[0] bit for bit,
    for any batching of the index range.
    """
    stride = _block_stride(dim)
    key = np.array([_key(seed), stream], dtype=np.uint64)
    bg = np.random.Philox(key=key)
    bg.advance(start * (stride // _WORDS_PER_TICK))
    u = np.random.Generator(bg).random((count, stride))
    return u[:, :dim]


def normals(seed, count, dim, stream=0, start=0):
    """Standard normal rows via the inverse CDF, same indexing as uniforms."""
    u = uniforms(seed, count, dim, stream=stream, start=start)
    return ndtri(np.maximum(u, _U_FLOOR))


def spawn_seed(seed, *path):
    """Derive a child seed for a labelled work unit (e.g. a sweep cell)."""
    return np.random.SeedSequence((_key(seed),) + tuple(path)).generate_state(1)[0]
