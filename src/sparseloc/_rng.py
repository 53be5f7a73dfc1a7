"""Counter-based random streams: one Philox stream per (seed, site index).

Every random quantity in the package is drawn from a stream keyed by a
64-bit experiment seed plus the canonical index of the consumer (a site,
a trial block, a pipeline cell).  Streams with distinct keys are
independent by construction, so results never depend on iteration order
or on how work is split across workers.

Stream (seed, i) is Philox4x64-10 (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11) with key (seed, i): counter block
b+1 gives the uint64 words of columns 4b..4b+3, and column t is
u = (x >> 11) * 2^-53.  With s = seed mod 2^64 this is, bit for bit, the
stream of ``np.random.Generator(np.random.Philox(key)).random()`` with
``key = np.array([s, i], dtype=np.uint64)``.  (``Philox(key=[s, i])``
with s >= 2^63 converts the key through float64 and gives another stream.)

Two loops compute it, chosen by the shape of the request alone.  A row of
at least _WIDE_BLOCKS counter blocks (the lemma's few sites by many
trials) is drawn one site at a time by numpy's compiled Philox; narrower
requests (one column over many sites, as certify cells sample) go
through a vectorized kernel over all sites and blocks at once.  Only the
compiled loop and `derive_seed` import ``numpy.random``, so a run whose
draws are all narrow never loads it.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_LO32 = np.uint64(0xFFFFFFFF)
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
# Counter blocks per row from which one compiled stream per site beats the
# vectorized kernel: both took equal time at 16 blocks for 300-4000 sites
# on a 2-core Intel Xeon, and the compiled loop took half the time at 32.
_WIDE_BLOCKS = 16


def derive_seed(seed: int, *tags: int) -> int:
    """Derive an independent 64-bit sub-seed from `seed` and integer tags."""
    from numpy.random import SeedSequence

    ss = SeedSequence(entropy=seed & _MASK64, spawn_key=tuple(t & _MASK64 for t in tags))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of m * x, from 32-bit halves."""
    m_lo, m_hi = m & _LO32, m >> np.uint64(32)
    x_lo, x_hi = x & _LO32, x >> np.uint64(32)
    t = m_lo * x_hi + ((m_lo * x_lo) >> np.uint64(32))
    w = (t & _LO32) + m_hi * x_lo
    return m_hi * x_hi + (t >> np.uint64(32)) + (w >> np.uint64(32)), m * x


def _philox_uniforms(seed: int, indices: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Columns start..stop-1 of every site's stream, shape (len(indices), stop-start)."""
    indices = np.asarray(indices, dtype=np.int64)
    if stop <= start or indices.size == 0:
        return np.empty((indices.size, max(stop - start, 0)))
    first, last = start // 4, (stop - 1) // 4
    if last - first + 1 >= _WIDE_BLOCKS:
        return _compiled_rows(seed, indices, start, stop)
    # Words broadcast over (sites, counter blocks); all have the full shape from round 3.
    k0 = np.full((1, 1), seed & _MASK64, dtype=np.uint64)
    k1 = indices.astype(np.uint64).reshape(-1, 1)
    c0 = np.arange(first + 1, last + 2, dtype=np.uint64).reshape(1, -1)
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    for rnd in range(10):
        if rnd:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack((c0, c1, c2, c3), axis=-1).reshape(indices.size, -1)
    words = words[:, start - 4 * first : stop - 4 * first]
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _compiled_rows(seed: int, indices: np.ndarray, start: int, stop: int) -> np.ndarray:
    """_philox_uniforms one site at a time, from numpy's compiled Philox.

    One generator serves every site: resetting its state to (key, counter)
    took 2 us against 17 us for constructing a Philox, which also seeds an
    unused SeedSequence from OS entropy.
    """
    from numpy.random import Generator, Philox

    first = start // 4
    key = np.array([seed & _MASK64, 0], dtype=np.uint64)
    bits = Philox(key=key)
    gen = Generator(bits)
    # numpy increments the counter before each block, so block `first` comes first
    state = bits.state
    state["state"]["counter"] = np.array([first, 0, 0, 0], dtype=np.uint64)
    state["state"]["key"] = key
    rows = np.empty((indices.size, stop - 4 * first))
    for row, i in zip(rows, indices.astype(np.uint64)):
        key[1] = i
        bits.state = state
        gen.random(out=row)
    return rows[:, start - 4 * first :]


def site_uniforms(seed: int, indices: np.ndarray, trials: int = 1, start: int = 0) -> np.ndarray:
    """Uniform[0,1) draws, shape (len(indices), trials).

    Row i holds columns start..start+trials-1 of the stream keyed by
    (seed, indices[i]); column t is reproducible independently of which
    other sites or trials are requested.
    """
    return _philox_uniforms(seed, indices, start, start + trials)


def site_uniform_batches(
    seed: int, indices: np.ndarray, trials: int, batch: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (trial_offset, block) pairs covering `trials` columns.

    Memory-bounded variant of :func:`site_uniforms`: each block has shape
    (len(indices), <=batch) and concatenating the blocks reproduces the
    full matrix exactly.
    """
    for done in range(0, trials, batch):
        yield done, _philox_uniforms(seed, indices, done, min(done + batch, trials))
