"""Counter-based random streams, and the one splitter that runs a pass
over them in chunks.

Every draw is addressed by (seed, stream, index), so batches can be
generated in any order, in parallel, and concatenated by index without
changing a single bit. Philox hands out 4 uint64 words per counter tick,
which `Generator.random` turns into 4 doubles, so a logical draw of
dimension d is padded to whole ticks: stride = ceil(d / 4) * 4 uniforms.

`chunks` tiles a pass into index ranges and `run_chunks` runs a function
over them on one thread per CPU the process may use; the sweep cell and
the bound suite run their chunks this way. Their numpy, scipy and BLAS
calls release the interpreter lock, so the chunks overlap; each chunk's
draws and arithmetic depend only on its index range, so the results do
not depend on the thread count. A bound-suite pass tiles all its sections
with one set of chunks, and each chunk draws its standard normals once
for all the sections that share them. The bootstrap runs its chunks in
order on the calling thread: its short numpy calls mostly hold the lock.

`moments`, `pool` and `mean_se` are the one reduction of all three
drivers. In the bound suite and the bootstrap each chunk reduces its
per-draw rows to a part (count, centre, mean and centred co-moments), and
the caller merges the parts in chunk order. The sweep cell keeps one loss
per replication and estimator instead and reduces them once, after the
pass, as one part, so its rows do not depend on where the chunks fall.
"""

import contextvars
import functools
import operator
import os
import threading

import numpy as np
from scipy.special import ndtri

_WORDS_PER_TICK = 4
# smallest uniform Generator.random can emit is 0; ndtri(0) = -inf
_U_FLOOR = 2.0 ** -53

STREAM_NOISE = 0
STREAM_MIXING = 1

# float64 values per array in a chunked pass (400 kB): the bound-suite
# pass and the sweep cell take chunks(count, width) of draws `width` values
# wide, the bootstrap chunks(B, n k), as many replicates as their n x k
# resampled designs would fill. The suite and the cell run their chunks
# with run_chunks, so they hold one chunk per thread; the bootstrap holds
# one. The suite's and the bootstrap's memory stays flat in the draw or
# replicate count; the sweep cell's grows by its one loss per replication
# and estimator.
CHUNK_ELEMS = 512 * 25 * 4

_local = threading.local()


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


def _worker_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_chunks(fn, count, dim):
    """[fn(lo, hi) for lo, hi in chunks(count, dim)], run by the calling
    thread and helper threads started for this call, one thread per CPU
    this process may use in all, and joined before it returns. The calling
    thread runs the first chunk; each thread takes the next chunk when it
    is done with its last, so at most that many chunks are in flight.

    Each chunk runs in a copy of the caller's context, so the caller's
    np.errstate holds in it. Once a chunk fails no further chunk starts;
    the chunks in flight finish, and the first failure in chunk order is
    raised. A call made from inside a chunk runs its chunks inline.
    """
    spans = list(chunks(count, dim))
    width = min(_worker_count(), len(spans))
    if width <= 1 or getattr(_local, "worker", False):
        return [fn(lo, hi) for lo, hi in spans]
    context = contextvars.copy_context()
    results, failures = [None] * len(spans), {}
    lock, todo = threading.Lock(), iter(range(len(spans)))

    def claim():
        with lock:
            return None if failures else next(todo, None)

    def drain(i):
        _local.worker = True
        try:
            while i is not None:
                try:
                    results[i] = context.copy().run(fn, *spans[i])
                except BaseException as exc:
                    with lock:
                        failures[i] = exc
                i = claim()
        finally:
            _local.worker = False

    # chunk 0 is the caller's before any helper can take it
    first = claim()
    helpers = []
    try:
        for _ in range(width - 1):
            helper = threading.Thread(target=lambda: drain(claim()),
                                      name="steinrule-chunk")
            helper.start()
            helpers.append(helper)
        drain(first)
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def moments(rows):
    """One chunk's part of equal-length rows of per-draw terms: the count,
    each row's centre (its finite mean, else 0), its mean about the
    centre, and the co-moment matrix of the rows about their means.

    rows is a sequence of 1-D arrays, stacked into a new array, or a 2-D
    float array, which is consumed: it is centred in place."""
    terms = rows if isinstance(rows, np.ndarray) else np.stack(rows)
    centre = np.nan_to_num(terms.mean(axis=1), posinf=0.0, neginf=0.0)
    terms -= centre[:, None]
    mean = terms.mean(axis=1)
    terms -= mean[:, None]
    return terms.shape[1], centre, mean, terms @ terms.T


def _merge(a, b):
    """Two parts as one, about the first one's centre, by the pairwise
    update of Chan, Golub and LeVeque (1979)."""
    (na, ca, ma, Ma), (nb, cb, mb, Mb) = a, b
    n = na + nb
    with np.errstate(invalid="ignore"):
        delta = (cb - ca) + (mb - ma)
        # a row holding inf merges its sums, so it stays inf as in np.mean
        mean = np.where(np.isfinite(delta), ma + delta * (nb / n),
                        (na * ma + nb * (mb + (cb - ca))) / n)
        return n, ca, mean, Ma + Mb + np.outer(delta, delta) * (na * nb / n)


def pool(parts):
    """The parts of consecutive chunks merged in order, equal numbers of
    chunks at a time, so rounding grows with the log of the chunk count."""
    stack = []    # (chunks merged, part), halving down
    for part in parts:
        merged = 1
        while stack and stack[-1][0] == merged:
            part = _merge(stack.pop()[1], part)
            merged *= 2
        stack.append((merged, part))
    return functools.reduce(_merge, [part for _, part in stack])


def mean_se(parts):
    """(mean, standard error of the mean) of each row of the pooled parts."""
    n, centre, mean, M = pool(parts)
    se = np.sqrt(np.diagonal(M) / (n - 1)) / np.sqrt(n)
    return [(float(mu), float(s)) for mu, s in zip(centre + mean, se)]


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
    start, dim = operator.index(start), operator.index(dim)
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
