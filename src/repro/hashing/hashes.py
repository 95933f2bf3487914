"""64-bit integer hash functions (Figure 5).

ElGA hashes 64-bit vertex IDs on every edge access, so the hash must be
fast and high quality (uniform).  The paper compares Thomas Wang's
64-bit integer hash (the winner, used everywhere else in this repo),
the multiplicative hash from Steele et al.'s splittable PRNG work, a
non-deterministic Abseil-style hash, and CRC64; cryptographic hashes are
deliberately avoided as too slow.

All functions are vectorized over ``numpy.uint64`` arrays and also accept
Python ints, returning the same shape they were given.  Overflow wraps
modulo 2^64, matching C semantics.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Union

import numpy as np

from repro import kernels

U64 = np.uint64
_MASK64 = (1 << 64) - 1

HashInput = Union[int, np.ndarray]


def _as_u64(x: HashInput) -> np.ndarray:
    arr = np.asarray(x)
    if arr.dtype != np.uint64:
        arr = arr.astype(np.int64, copy=False).view(np.uint64) if arr.dtype.kind == "i" else arr.astype(np.uint64)
    return arr


def as_u64_keys(x: HashInput) -> np.ndarray:
    """Canonical ``uint64`` reinterpretation of vertex ids for hashing.

    Signed integers are first widened to ``int64`` and then *bit-viewed*
    as ``uint64`` (two's complement), so a negative or narrow-dtype
    vertex id hashes to the same value no matter which code path (or
    which endpoint of an edge) produced it.  Every placement-level hash
    input must go through this one helper.

    Examples
    --------
    >>> int(as_u64_keys(np.array([-1], dtype=np.int32))[0]) == 2**64 - 1
    True
    >>> int(as_u64_keys(np.array([-1], dtype=np.int64))[0]) == 2**64 - 1
    True
    """
    return _as_u64(np.atleast_1d(np.asarray(x)))


def _restore(result: np.ndarray, original: HashInput) -> HashInput:
    if np.ndim(original) == 0 and not isinstance(original, np.ndarray):
        return int(result)
    return result


def wang64(x: HashInput) -> HashInput:
    """Thomas Wang's 64-bit integer hash — the paper's best performer.

    Examples
    --------
    >>> wang64(0) != 0
    True
    >>> import numpy as np
    >>> out = wang64(np.arange(4, dtype=np.uint64))
    >>> out.dtype
    dtype('uint64')
    """
    key = _as_u64(x)
    # Any C-contiguous array — the sketch's 2-d (depth, n) row batches
    # too — goes through the kernel seam; scalars stay off it.
    if key.ndim and key.flags.c_contiguous:
        return _restore(kernels.wang64_u64(key), x)
    return _restore(kernels.reference.wang64_u64(key), x)


def is_wang64(fn: Callable) -> bool:
    """Whether ``fn`` is :func:`wang64`, or a wrapper of it that names it
    as ``__wrapped__`` (:func:`functools.wraps`, as a tracing seam does):
    the compiled placement kernels mix keys with wang64 themselves, so
    they stand in for this hash only.

    Examples
    --------
    >>> is_wang64(wang64), is_wang64(HASH_FUNCTIONS["wang"]), is_wang64(mult64)
    (True, True, False)
    """
    return inspect.unwrap(fn) is inspect.unwrap(wang64)


def mult64(x: HashInput) -> HashInput:
    """Multiplicative (Fibonacci) hash from Steele, Lea & Flood's
    splittable PRNG — "Mult" in Figure 5.

    A single odd-constant multiply: very fast, but low bits mix poorly,
    which shows up as worse edge-distribution quality in the figure.
    """
    key = _as_u64(x)
    with np.errstate(over="ignore"):
        key = key * U64(0x9E3779B97F4A7C15)
    return _restore(key, x)


_ABSEIL_SALT = U64(0x8C32E1D6F9A45B27)


def abseil64(x: HashInput, salt: int = None) -> HashInput:
    """Abseil-style salted mix ("Abseil" in Figure 5).

    Abseil's hash is process-nondeterministic; here the salt defaults to
    a fixed constant so experiments stay reproducible, but callers can
    supply their own to model the nondeterminism.
    """
    key = _as_u64(x)
    s = _ABSEIL_SALT if salt is None else U64(salt & _MASK64)
    with np.errstate(over="ignore"):
        key = (key ^ s) * U64(0x9DDFEA08EB382D69)
        key ^= key >> U64(44)
        key = key * U64(0x9DDFEA08EB382D69)
        key ^= key >> U64(41)
    return _restore(key, x)


def _build_crc64_table() -> np.ndarray:
    """256-entry table for the ECMA-182 polynomial (MSB-first)."""
    poly = 0x42F0E1EBA9EA3693
    table = np.empty(256, dtype=np.uint64)
    for byte in range(256):
        crc = byte << 56
        for _ in range(8):
            if crc & (1 << 63):
                crc = ((crc << 1) ^ poly) & _MASK64
            else:
                crc = (crc << 1) & _MASK64
        table[byte] = crc
    return table


_CRC64_TABLE = _build_crc64_table()


def crc64(x: HashInput) -> HashInput:
    """CRC64 (ECMA-182), processing the key's 8 bytes MSB first.

    CRCs are designed for error detection, not avalanche, and the figure
    shows their distribution quality trails Wang's hash.
    """
    key = _as_u64(x)
    crc = np.zeros_like(key, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for shift in range(56, -8, -8):
            byte = (key >> U64(shift)) & U64(0xFF)
            idx = ((crc >> U64(56)) ^ byte).astype(np.int64)
            crc = _CRC64_TABLE[idx] ^ (crc << U64(8))
    return _restore(crc, x)


def identity64(x: HashInput) -> HashInput:
    """The identity "hash" — a deliberately terrible control.

    Sequential vertex IDs land on adjacent ring positions, collapsing
    the load balance; useful in tests and ablations to show the system's
    sensitivity to hash quality.
    """
    key = _as_u64(x)
    return _restore(key.copy(), x)


HASH_FUNCTIONS: Dict[str, Callable[[HashInput], HashInput]] = {
    "wang": wang64,
    "mult": mult64,
    "abseil": abseil64,
    "crc64": crc64,
    "identity": identity64,
}
"""Registry keyed by the names used in Figure 5 (plus ``identity``)."""
