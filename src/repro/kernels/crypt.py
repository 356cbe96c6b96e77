"""Crypt kernel: IDEA block-cipher encryption (Java Grande section 2, *Crypt*).

The Java Grande Crypt benchmark encrypts and decrypts an ``N``-byte array
with the International Data Encryption Algorithm.  This is a faithful port:
the cipher operates on 64-bit blocks as four 16-bit words, 8 rounds plus an
output transformation, driven by 52 16-bit subkeys expanded from a 128-bit
user key.  The rounds are written twice, bit for bit the same cipher: numpy
rows of uint16 words and, for inputs too small to pay for ~90 numpy calls,
plain integers per block; :data:`SCALAR_MAX_BLOCKS` is the measured size
where they cross.  The rows multiply modulo 2**16 + 1 by one lookup in a
table built once per key schedule, or, past :data:`TABLE_MAX_BLOCKS`, where
reading the tables costs more than the calls they save, by the low/high
lemma.

The workload is embarrassingly parallel over blocks, which is what the
original benchmark parallelises with ``omp for``; :func:`encrypt_chunks`
exposes the same decomposition for our worksharing layer.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "generate_key",
    "encryption_subkeys",
    "decryption_subkeys",
    "idea_cipher",
    "encrypt",
    "decrypt",
    "encrypt_chunks",
    "block_slices",
]

_MOD_MUL = 0x10001  # 2**16 + 1
_MASK = 0xFFFF
ROUNDS = 8
SUBKEYS = 6 * ROUNDS + 4  # 52


def generate_key(seed: int = 136506717) -> np.ndarray:
    """A deterministic 128-bit user key as eight 16-bit words.

    Java Grande seeds its linear-congruential generator with a constant; any
    fixed seed preserves reproducibility, which is all the benchmark needs.
    """
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 16, size=8, dtype=np.uint32)


def _mul_inv(x: int) -> int:
    """Multiplicative inverse modulo 2**16 + 1 under IDEA's convention that
    the word 0 represents 2**16."""
    if x <= 1:
        # 0 -> represents 65536 whose inverse is itself (i.e. encoded 0);
        # 1 -> 1.
        return x
    return pow(int(x), _MOD_MUL - 2, _MOD_MUL) & _MASK


def _add_inv(x: int) -> int:
    """Additive inverse modulo 2**16."""
    return (-int(x)) & _MASK


def encryption_subkeys(user_key: np.ndarray) -> np.ndarray:
    """Expand a 128-bit user key into the 52 encryption subkeys.

    Standard IDEA schedule: the first eight subkeys are the key itself; each
    following batch comes from rotating the 128-bit key left by 25 bits.
    """
    if user_key.shape != (8,):
        raise ValueError("user key must be eight 16-bit words")
    key = [int(w) & _MASK for w in user_key]
    subkeys = list(key)
    while len(subkeys) < SUBKEYS:
        # Rotate the most recent 8-word window left by 25 bits.
        window = subkeys[-8:]
        bits = 0
        for w in window:
            bits = (bits << 16) | w
        bits = ((bits << 25) | (bits >> (128 - 25))) & ((1 << 128) - 1)
        for shift in range(112, -1, -16):
            subkeys.append((bits >> shift) & _MASK)
    return np.array(subkeys[:SUBKEYS], dtype=np.uint32)


def decryption_subkeys(enc: np.ndarray) -> np.ndarray:
    """Invert an encryption key schedule (standard IDEA construction)."""
    if enc.shape != (SUBKEYS,):
        raise ValueError(f"expected {SUBKEYS} subkeys")
    e = [int(x) for x in enc]
    d = [0] * SUBKEYS
    # Output transform of encryption becomes the first round of decryption.
    d[0] = _mul_inv(e[48])
    d[1] = _add_inv(e[49])
    d[2] = _add_inv(e[50])
    d[3] = _mul_inv(e[51])
    d[4] = e[46]
    d[5] = e[47]
    pos = 6
    for r in range(1, ROUNDS):
        base = (ROUNDS - r) * 6
        d[pos] = _mul_inv(e[base])
        # Middle additive keys swap for all but the outermost transforms.
        d[pos + 1] = _add_inv(e[base + 2])
        d[pos + 2] = _add_inv(e[base + 1])
        d[pos + 3] = _mul_inv(e[base + 3])
        d[pos + 4] = e[base - 2]
        d[pos + 5] = e[base - 1]
        pos += 6
    d[48] = _mul_inv(e[0])
    d[49] = _add_inv(e[1])
    d[50] = _add_inv(e[2])
    d[51] = _mul_inv(e[3])
    return np.array(d, dtype=np.uint32)


# At most this many 8-byte blocks run on plain integers.  Measured on the
# reference host (2 cores, CPython 3.11, numpy 2.4), each path forced onto
# the same input: the rows ~85 us flat up to here, the integers 6 us + 6 us
# a block; 12 blocks 79 vs 89 us, 14 87 vs 82, 16 105 vs 90, 20 130 vs 90.
SCALAR_MAX_BLOCKS = 14


def _cipher_ints(blocks: list[list[int]], subkeys: list[int]) -> list[tuple[int, ...]]:
    """The rounds on plain Python integers, one block at a time."""
    # The word 0 stands for 2**16 under multiplication; in a key the extra
    # bit is masked off again by every addition, so it is set once, here.
    k = [x or 0x10000 for x in subkeys]
    rounds = [k[i:i + 6] for i in range(0, 6 * ROUNDS, 6)]
    o1, o2, o3, o4 = k[6 * ROUNDS:]
    out = []
    for x1, x2, x3, x4 in blocks:
        for k1, k2, k3, k4, k5, k6 in rounds:
            x1 = (x1 or 0x10000) * k1 % _MOD_MUL & _MASK
            x2 = x2 + k2 & _MASK
            x3 = x3 + k3 & _MASK
            x4 = (x4 or 0x10000) * k4 % _MOD_MUL & _MASK
            t1 = ((x1 ^ x3) or 0x10000) * k5 % _MOD_MUL & _MASK
            t2 = ((t1 + (x2 ^ x4) & _MASK) or 0x10000) * k6 % _MOD_MUL & _MASK
            t1 = t1 + t2 & _MASK
            x1 ^= t2
            x4 ^= t1
            x2, x3 = x3 ^ t2, x2 ^ t1
        # The final transform undoes the last round's middle swap.
        out.append(((x1 or 0x10000) * o1 % _MOD_MUL & _MASK, x3 + o2 & _MASK,
                    x2 + o3 & _MASK, (x4 or 0x10000) * o4 % _MOD_MUL & _MASK))
    return out


# Key schedules whose multiplication tables (4.5 MB each) are kept: at least
# an encrypt/decrypt pair.
_SCHEDULES_KEPT = 4


@functools.lru_cache(maxsize=_SCHEDULES_KEPT)
def _mul_tables(schedule: bytes) -> np.ndarray:
    """Read-only rows, one per multiplicative subkey of *schedule* (52 uint16
    words) in cipher order: ``row[a]`` is ``a`` times the subkey."""
    # Powers of 3, a generator of the units modulo 2**16 + 1, and their logs
    # (2**16 written 0): 3**i * 3**j = 3**(i + j), and as 3 has order 2**16
    # the exponents add modulo 2**16, which is how uint16 words add.
    exp, g = np.ones(1, np.int64), 3
    while exp.size < 1 << 16:  # exp[n:2n] = exp[:n] * 3**n
        exp, g = np.concatenate([exp, exp * g % _MOD_MUL]), g * g % _MOD_MUL
    log = np.empty(1 << 16, np.uint16)
    log[exp & _MASK] = np.arange(1 << 16)
    # k1, k4, k5 and k6 of each round, then k1 and k4 of the output transform.
    k = np.frombuffer(schedule, np.uint16)[[i for i in range(SUBKEYS) if i % 6 in (0, 3, 4, 5)]]
    tables = exp.astype(np.uint16)[np.add(log, log[k, None], dtype=np.uint16)]
    tables.flags.writeable = False
    return tables


# Rows of at most this many blocks multiply by table lookup, longer ones by
# the low/high lemma.  A schedule's tables (4.5 MB) outgrow a core's 2 MB
# L2, and a caller that idled between requests finds them cold.  Measured on
# the reference host, each path forced, the call after a 20 ms sleep: 4 KiB
# 0.55-0.61 vs 0.90-0.93 ms (lookup vs lemma), 8 KiB 0.70-0.77 vs
# 0.91-0.94, 16 KiB 0.96-1.04 vs 0.96-1.03, 32 KiB 1.23-1.40 vs 0.98-1.29.
TABLE_MAX_BLOCKS = 2048


def _cipher_rows(words: np.ndarray, subkeys: np.ndarray) -> np.ndarray:
    """The rounds on rows of uint16 words, in state that belongs to this call
    (lanes of one worker encrypt concurrently; they share only the tables)."""
    n = words.shape[0]
    k16 = subkeys.astype(np.uint16)
    x = np.empty((4, n), np.uint16)
    x[...] = words.T
    # A round multiplies x1 and x4, and adds to x2 and x3, by independent
    # keys: each pair is one (2, n) operand (lookups take `outer` row by
    # row).  `mid` is (x3, x2); a round leaves the two swapped in place, so
    # the next reads the reversed view.
    (x1, _, _, x4), outer, mid, mid_swapped = x, x[0::3], x[2:0:-1], x[1:3]
    t = np.empty((2, n), np.uint16)
    (t1, t2), t_swapped = t, t[::-1]
    if n <= TABLE_MAX_BLOCKS:
        rows = iter(_mul_tables(k16.tobytes()))  # in the order they are used

        def mul(a, i):
            # uint16 indices never clip; "clip", unlike "raise", writes `out`
            # unbuffered.
            next(rows).take(a, out=a, mode="clip")

        def mul_outer(i):
            mul(x1, i)
            mul(x4, i + 3)
    else:
        k32 = subkeys.astype(np.uint32)
        k32[k32 == 0] = 0x10000
        k_zero = (1 - k32).astype(np.uint16)  # 2**16 * k = 1 - k  (mod 2**16 + 1)
        scratch = (np.uint16, np.uint16, np.uint32, np.bool_)
        pair = lo, hi, wide, flag = [np.empty((2, n), dtype) for dtype in scratch]
        row = lo[0], hi[0], wide[0], flag[0]

        def lemma(a, i, lo, hi, wide, flag):
            # 2**16 = -1 (mod 2**16 + 1), so a 32-bit product is lo - hi, plus
            # one when that borrows.  The word 0 multiplies as 0 here (as 2**16
            # it could overflow 32 bits) and is patched from `k_zero`.
            np.multiply(a, k32[i], out=wide, dtype=np.uint32)
            np.multiply(a, k16[i], out=lo)
            np.right_shift(wide, 16, out=hi, casting="unsafe")
            np.equal(a, 0, out=flag)
            np.subtract(lo, hi, out=a)
            np.copyto(a, k_zero[i], where=flag)
            np.less(lo, hi, out=flag)
            np.add(a, flag, out=a)

        def mul(a, i):
            lemma(a, i, *row)

        def mul_outer(i):
            lemma(outer, np.s_[i:i + 4:3, None], *pair)

    for pos in range(0, 6 * ROUNDS, 6):
        mul_outer(pos)
        np.add(mid, k16[pos + 2:pos:-1, None], out=mid)
        np.bitwise_xor(outer, mid, out=t)
        mul(t1, pos + 4)
        np.add(t2, t1, out=t2)
        mul(t2, pos + 5)
        np.add(t1, t2, out=t1)
        np.bitwise_xor(outer, t_swapped, out=outer)
        np.bitwise_xor(mid, t_swapped, out=mid)
        mid, mid_swapped = mid_swapped, mid
    # The final transform undoes the last round's middle swap: `mid` as is.
    mul_outer(6 * ROUNDS)
    np.add(mid, k16[6 * ROUNDS + 1:6 * ROUNDS + 3, None], out=mid)
    out = np.empty_like(words)
    out[:, 0::3] = outer.T
    out[:, 1:3] = mid.T
    return out


def idea_cipher(words: np.ndarray, subkeys: np.ndarray) -> np.ndarray:
    """Run the IDEA rounds over blocks given as an ``(n, 4)`` array of 16-bit
    words in any integer dtype; the result has the same dtype.

    This is the per-block body that Java Grande's inner loop performs
    byte-wise.  The number of blocks alone selects the arithmetic, and not
    the answer: both paths read the words modulo 2**16 and write the uint16
    result into the input dtype with numpy's wrapping cast.
    """
    if words.ndim != 2 or words.shape[1] != 4:
        raise ValueError("blocks must have shape (n, 4)")
    if words.shape[0] > SCALAR_MAX_BLOCKS:
        return _cipher_rows(words, subkeys)
    out = _cipher_ints(words.astype(np.uint16).tolist(), subkeys.tolist())
    return np.array(out, np.uint16).reshape(words.shape).astype(words.dtype)


def encrypt(data: np.ndarray, subkeys: np.ndarray) -> np.ndarray:
    """Encrypt a uint8 array (length divisible by 8) with IDEA."""
    if data.dtype != np.uint8:
        raise ValueError("plaintext must be uint8")
    if data.size % 8:
        raise ValueError("data length must be a multiple of 8 bytes")
    # Byte pairs are big-endian words: a view going in, a view coming out.
    words = np.ascontiguousarray(data).reshape(-1, 8).view(">u2")
    return idea_cipher(words, subkeys).view(np.uint8).reshape(-1)


def decrypt(data: np.ndarray, subkeys: np.ndarray) -> np.ndarray:
    """Decrypt; identical machinery with the inverted key schedule."""
    return encrypt(data, subkeys)


def block_slices(n_bytes: int, n_chunks: int) -> list[slice]:
    """Split a byte range into ``n_chunks`` block-aligned slices.

    Mirrors the static ``omp for`` decomposition of the Java Grande kernel.
    """
    if n_bytes % 8:
        raise ValueError("length must be a multiple of the 8-byte block size")
    n_blocks = n_bytes // 8
    chunks = []
    base, extra = divmod(n_blocks, n_chunks)
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(slice(start * 8, (start + size) * 8))
        start += size
    return chunks


def encrypt_chunks(
    data: np.ndarray, subkeys: np.ndarray, n_chunks: int
) -> list[tuple[slice, np.ndarray]]:
    """Encryption decomposed into independent chunk tasks.

    Returns ``(slice, ciphertext_chunk)`` pairs; callers may run the chunk
    computations on worker threads and stitch results by slice.
    """
    return [(s, encrypt(data[s], subkeys)) for s in block_slices(data.size, n_chunks)]
