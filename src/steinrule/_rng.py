"""Counter-based random streams, and the one splitter that runs a pass
over them in chunks.

Every draw is addressed by (seed, stream, index), so batches can be
generated in any order, in parallel, and concatenated by index without
changing a single bit. Philox hands out 4 uint64 words per counter tick,
which `Generator.random` turns into 4 doubles, so a logical draw of
dimension d is padded to whole ticks: stride = ceil(d / 4) * 4 uniforms.

`chunks` tiles a pass into index ranges and `run_chunks` runs a function
over them on one thread per CPU the process may use; the sweep cell and
the bound suite run their chunks this way. Its numpy, scipy and BLAS
calls release the interpreter lock, so the chunks overlap; each chunk's
draws and arithmetic depend only on its index range (and, in the bound
suite, on the first chunk's means, taken before the others start), so
the results do not depend on the thread count. A bound-suite pass tiles
all its sections with one set of chunks, and each chunk draws its
standard normals once for all the sections that share them.
"""

import contextvars
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
# wide, the bootstrap fits CHUNK_ELEMS // (n k) replicates of an n x k
# design per chunk, so the memory of all three stays flat in the draw or
# replicate count. The sweep cell and the bound suite run their chunks
# with run_chunks, so they hold one chunk per thread.
CHUNK_ELEMS = 512 * 25 * 4

# run_chunks' helper threads, (threads, executor), made on first use so
# that importing the package starts no thread
_pool = None
_pool_lock = threading.Lock()
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


def _executor(threads):
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != threads:
            from concurrent.futures import ThreadPoolExecutor
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (threads, ThreadPoolExecutor(threads, "steinrule-chunk"))
        return _pool[1]


def _forget_pool():
    # a forked child has none of its parent's threads; it makes its own pool
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_chunks(fn, count, dim):
    """[fn(lo, hi) for lo, hi in chunks(count, dim)], run by the calling
    thread and a pool of helpers, one thread per CPU this process may use.
    Each thread takes the next chunk when it is done with its last, so at
    most that many chunks are in flight.

    Each chunk runs in a copy of the caller's context, so the caller's
    np.errstate holds in it. Once a chunk fails no further chunk starts;
    the chunks in flight finish, and the first failure in chunk order is
    raised. A call made from inside a chunk runs its chunks inline.
    """
    spans = list(chunks(count, dim))
    threads = _worker_count()
    width = min(threads, len(spans))
    if width <= 1 or getattr(_local, "worker", False):
        return [fn(lo, hi) for lo, hi in spans]
    from concurrent.futures import wait

    context = contextvars.copy_context()
    results, failures = [None] * len(spans), {}
    lock, todo = threading.Lock(), iter(range(len(spans)))

    def drain():
        _local.worker = True
        try:
            while True:
                with lock:
                    i = None if failures else next(todo, None)
                if i is None:
                    return
                try:
                    results[i] = context.copy().run(fn, *spans[i])
                except BaseException as exc:
                    with lock:
                        failures[i] = exc
        finally:
            _local.worker = False

    pool = _executor(threads - 1)
    helpers = [pool.submit(drain) for _ in range(width - 1)]
    try:
        drain()
    finally:
        wait(helpers)
    if failures:
        raise failures[min(failures)]
    return results


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
