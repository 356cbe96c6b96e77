"""Tests for the IDEA Crypt kernel."""

import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PjRuntime
from repro.core.region import TargetRegion
from repro.kernels import crypt
from repro.serve import encrypt_payload

# Block counts on either side of the kernel's two arithmetic paths.
CROSSOVER = crypt.SCALAR_MAX_BLOCKS
BELOW, ABOVE = 8, 512  # the benchmark's 64 B and 4 KiB payloads
assert BELOW < CROSSOVER < ABOVE


def _ref_mul(a: int, b: int) -> int:
    """Multiplication in the group of units modulo 2**16 + 1, in which the
    16-bit word 0 is how the element 2**16 is written."""
    product = (a or 1 << 16) * (b or 1 << 16) % ((1 << 16) + 1)
    return product & 0xFFFF


def _ref_add(a: int, b: int) -> int:
    return (a + b) % (1 << 16)


def reference_cipher(data: bytes, subkeys) -> bytes:
    """IDEA written block by block from the specification (Lai & Massey
    1991; Schneier, *Applied Cryptography* section 13.9): the oracle both of
    the kernel's arithmetic paths are compared against."""
    z = [int(k) for k in subkeys]
    out = bytearray()
    for at in range(0, len(data), 8):
        x1, x2, x3, x4 = (int.from_bytes(data[i:i + 2], "big") for i in range(at, at + 8, 2))
        for r in range(8):
            z1, z2, z3, z4, z5, z6 = z[6 * r:6 * r + 6]
            s1 = _ref_mul(x1, z1)        # steps 1-4
            s2 = _ref_add(x2, z2)
            s3 = _ref_add(x3, z3)
            s4 = _ref_mul(x4, z4)
            s5 = s1 ^ s3                 # steps 5-6
            s6 = s2 ^ s4
            s7 = _ref_mul(s5, z5)        # steps 7-10: the MA structure
            s8 = _ref_add(s6, s7)
            s9 = _ref_mul(s8, z6)
            s10 = _ref_add(s7, s9)
            # steps 11-14, then the swap of the two inner words
            x1, x2, x3, x4 = s1 ^ s9, s3 ^ s9, s2 ^ s10, s4 ^ s10
        # Output transformation; the last round's swap is not performed.
        y = (_ref_mul(x1, z[48]), _ref_add(x3, z[49]), _ref_add(x2, z[50]), _ref_mul(x4, z[51]))
        for word in y:
            out += word.to_bytes(2, "big")
    return bytes(out)


@pytest.fixture(scope="module")
def keys():
    user = crypt.generate_key()
    ek = crypt.encryption_subkeys(user)
    dk = crypt.decryption_subkeys(ek)
    return ek, dk


class TestKeySchedule:
    def test_subkey_count_and_range(self, keys):
        ek, dk = keys
        assert ek.shape == (52,)
        assert dk.shape == (52,)
        assert (ek <= 0xFFFF).all()
        assert (dk <= 0xFFFF).all()

    def test_first_eight_subkeys_are_user_key(self):
        user = crypt.generate_key(seed=7)
        ek = crypt.encryption_subkeys(user)
        assert np.array_equal(ek[:8], user)

    def test_generate_key_deterministic(self):
        assert np.array_equal(crypt.generate_key(5), crypt.generate_key(5))
        assert not np.array_equal(crypt.generate_key(5), crypt.generate_key(6))

    def test_bad_key_shape_rejected(self):
        with pytest.raises(ValueError):
            crypt.encryption_subkeys(np.zeros(7, dtype=np.uint32))
        with pytest.raises(ValueError):
            crypt.decryption_subkeys(np.zeros(10, dtype=np.uint32))

    def test_double_inversion_is_identity(self, keys):
        ek, dk = keys
        assert np.array_equal(crypt.decryption_subkeys(dk), ek)


class TestCipher:
    def test_roundtrip(self, keys):
        ek, dk = keys
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=8 * 500, dtype=np.uint8)
        assert np.array_equal(crypt.decrypt(crypt.encrypt(data, ek), dk), data)

    def test_ciphertext_differs_from_plaintext(self, keys):
        ek, _ = keys
        data = np.zeros(8 * 100, dtype=np.uint8)
        assert not np.array_equal(crypt.encrypt(data, ek), data)

    def test_deterministic(self, keys):
        ek, _ = keys
        data = np.arange(80, dtype=np.uint8)
        assert np.array_equal(crypt.encrypt(data, ek), crypt.encrypt(data, ek))

    def test_key_sensitivity(self):
        data = np.arange(64, dtype=np.uint8)
        ct1 = crypt.encrypt(data, crypt.encryption_subkeys(crypt.generate_key(1)))
        ct2 = crypt.encrypt(data, crypt.encryption_subkeys(crypt.generate_key(2)))
        assert not np.array_equal(ct1, ct2)

    def test_block_independence(self, keys):
        # ECB mode: identical blocks encrypt identically, different blocks
        # can be processed in any partition -> parallelisable.
        ek, _ = keys
        block = np.arange(8, dtype=np.uint8)
        two = np.concatenate([block, block])
        ct = crypt.encrypt(two, ek)
        assert np.array_equal(ct[:8], ct[8:])

    def test_rejects_unaligned_length(self, keys):
        ek, _ = keys
        with pytest.raises(ValueError):
            crypt.encrypt(np.zeros(7, dtype=np.uint8), ek)

    def test_rejects_wrong_dtype(self, keys):
        ek, _ = keys
        with pytest.raises(ValueError):
            crypt.encrypt(np.zeros(8, dtype=np.int32), ek)

    def test_cipher_shape_check(self, keys):
        ek, _ = keys
        with pytest.raises(ValueError):
            crypt.idea_cipher(np.zeros((4, 3), dtype=np.uint32), ek)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, seed, n_blocks):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=8 * n_blocks, dtype=np.uint8)
        user = crypt.generate_key(seed)
        ek = crypt.encryption_subkeys(user)
        dk = crypt.decryption_subkeys(ek)
        assert np.array_equal(crypt.decrypt(crypt.encrypt(data, ek), dk), data)


class TestKnownAnswer:
    """The published test vector (Lai's thesis; Schneier section 13.9)."""

    KEY = np.arange(1, 9, dtype=np.uint32)
    PLAIN = [0x0000, 0x0001, 0x0002, 0x0003]
    CIPHER = [0x11FB, 0xED2B, 0x0198, 0x6DE5]

    @staticmethod
    def _bytes(words):
        return np.array(words, dtype=">u2").view(np.uint8)

    def test_encrypts_to_the_published_ciphertext(self):
        ek = crypt.encryption_subkeys(self.KEY)
        assert crypt.encrypt(self._bytes(self.PLAIN), ek).tolist() == self._bytes(self.CIPHER).tolist()
        words = crypt.idea_cipher(np.array([self.PLAIN], dtype=np.uint32), ek)
        assert words.tolist() == [self.CIPHER]

    def test_inverted_schedule_decrypts_it(self):
        dk = crypt.decryption_subkeys(crypt.encryption_subkeys(self.KEY))
        assert crypt.decrypt(self._bytes(self.CIPHER), dk).tolist() == self._bytes(self.PLAIN).tolist()

    @pytest.mark.parametrize("n_blocks", [CROSSOVER, CROSSOVER + 1, ABOVE])
    def test_holds_in_every_block_of_a_longer_input(self, n_blocks):
        ek = crypt.encryption_subkeys(self.KEY)
        ct = crypt.encrypt(np.tile(self._bytes(self.PLAIN), n_blocks), ek)
        assert ct.reshape(n_blocks, 8).tolist() == [self._bytes(self.CIPHER).tolist()] * n_blocks

    def test_reference_agrees_with_the_vector(self):
        ek = crypt.encryption_subkeys(self.KEY)
        assert reference_cipher(self._bytes(self.PLAIN).tobytes(), ek) == self._bytes(self.CIPHER).tobytes()


class TestAgainstReference:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_blocks=st.sampled_from([1, 2, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, 100, 3000]),
        zero_key_word=st.integers(0, 7),
        inverted=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_both_paths_match_the_specification(self, seed, n_blocks, zero_key_word, inverted):
        # 0 standing for 2**16 is the one subtle piece of arithmetic in the
        # cipher: force it into the key and into half the plaintext words.
        rng = np.random.default_rng(seed)
        user = rng.integers(0, 1 << 16, size=8, dtype=np.uint32)
        user[zero_key_word] = 0
        keys = crypt.encryption_subkeys(user)
        if inverted:
            keys = crypt.decryption_subkeys(keys)
        words = rng.integers(0, 1 << 16, size=4 * n_blocks, dtype=np.uint16)
        words[rng.random(words.size) < 0.5] = 0
        data = words.view(np.uint8)
        assert crypt.encrypt(data, keys).tobytes() == reference_cipher(data.tobytes(), keys)

    def test_all_zero_key_and_data(self):
        # Every multiplication is 2**16 * 2**16, the product that does not
        # fit in 32 bits.
        keys = crypt.encryption_subkeys(np.zeros(8, dtype=np.uint32))
        for n_blocks in (BELOW, ABOVE):
            data = np.zeros(8 * n_blocks, dtype=np.uint8)
            assert crypt.encrypt(data, keys).tobytes() == reference_cipher(data.tobytes(), keys)

    @pytest.mark.parametrize("n_blocks", [crypt.TABLE_MAX_BLOCKS, crypt.TABLE_MAX_BLOCKS + 1])
    def test_both_row_multiplies_match_the_specification(self, n_blocks):
        # Table lookup up to the bound, the low/high lemma past it; a zero
        # key word and zero data words send 2**16 through both.
        rng = np.random.default_rng(n_blocks)
        user = rng.integers(0, 1 << 16, size=8, dtype=np.uint32)
        user[3] = 0
        keys = crypt.encryption_subkeys(user)
        words = rng.integers(0, 1 << 16, size=4 * n_blocks, dtype=np.uint16)
        words[rng.random(words.size) < 0.25] = 0
        data = words.view(np.uint8)
        for k in (keys, crypt.decryption_subkeys(keys)):
            assert crypt.encrypt(data, k).tobytes() == reference_cipher(data.tobytes(), k)


class TestInputContract:
    def test_empty_in_empty_out(self, keys):
        ek, _ = keys
        out = crypt.encrypt(np.zeros(0, dtype=np.uint8), ek)
        assert out.dtype == np.uint8 and out.shape == (0,)
        assert crypt.idea_cipher(np.zeros((0, 4), dtype=np.uint32), ek).shape == (0, 4)
        assert encrypt_payload(b"") == b""

    @pytest.mark.parametrize("n_blocks", [BELOW, ABOVE])
    def test_non_contiguous_input(self, keys, n_blocks):
        ek, _ = keys
        strided = (np.arange(16 * n_blocks) % 251).astype(np.uint8)[::2]
        assert not strided.flags.c_contiguous
        assert np.array_equal(crypt.encrypt(strided, ek), crypt.encrypt(strided.copy(), ek))

    @pytest.mark.parametrize("n_blocks", [BELOW, ABOVE])
    def test_read_only_input_is_accepted_and_left_alone(self, keys, n_blocks):
        # What encrypt_payload and the process backend hand the kernel.
        ek, _ = keys
        raw = bytes(i % 256 for i in range(8 * n_blocks))
        data = np.frombuffer(raw, dtype=np.uint8)
        assert not data.flags.writeable
        out = crypt.encrypt(data, ek)
        assert data.tobytes() == raw and not np.shares_memory(out, data)
        assert out.flags.writeable and out.shape == data.shape
        assert encrypt_payload(raw) == out.tobytes()

    @pytest.mark.parametrize("n_blocks", [BELOW, ABOVE])
    def test_rejections_on_both_paths(self, keys, n_blocks):
        ek, _ = keys
        with pytest.raises(ValueError):
            crypt.encrypt(np.zeros(8 * n_blocks, dtype=np.int8), ek)
        with pytest.raises(ValueError):
            crypt.encrypt(np.zeros(8 * n_blocks + 4, dtype=np.uint8), ek)
        with pytest.raises(ValueError):
            crypt.idea_cipher(np.zeros((n_blocks, 3), dtype=np.uint32), ek)

    @pytest.mark.parametrize("dtype, stray", [(np.int16, None), (np.int64, -1), (np.uint32, 0x1FFFF)])
    def test_both_paths_take_words_modulo_2_16_and_wrap_alike(self, keys, dtype, stray):
        # Which path runs must not change the answer: words outside uint16
        # (negative int16 words, or a stray -1 or 0x1FFFF) are read modulo
        # 2**16 on both, and both write back through the same cast.
        ek, _ = keys
        rng = np.random.default_rng(12)
        words = rng.integers(0, 1 << 16, size=(CROSSOVER + 1, 4)).astype(dtype)
        if stray is not None:
            words[::2] = stray
        ints, rows = crypt.idea_cipher(words[:CROSSOVER], ek), crypt.idea_cipher(words, ek)
        assert ints.dtype == rows.dtype == dtype
        assert ints.tolist() == rows[:CROSSOVER].tolist()
        wrapped = crypt.idea_cipher(words.astype(np.uint16), ek)
        assert rows.tolist() == wrapped.astype(dtype).tolist()

    def test_lanes_of_one_worker_encrypt_concurrently(self, keys):
        """Two lanes, each with its own 4 KiB and 64 B payloads: any scratch
        shared between calls (a module-level buffer) corrupts a result."""
        ek, _ = keys
        rng = np.random.default_rng(11)
        jobs = []
        for _ in range(2):
            payloads = [rng.integers(0, 256, size=8 * n, dtype=np.uint8) for n in (ABOVE, BELOW)]
            jobs.append((payloads, [crypt.encrypt(p, ek) for p in payloads]))

        def lane(payloads, expected):
            wrong = 0
            for _ in range(200):
                for p, want in zip(payloads, expected):
                    wrong += not np.array_equal(crypt.encrypt(p, ek), want)
            return wrong

        rt = PjRuntime()
        rt.create_worker("w", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            handles = [
                rt.invoke_target_block("w", TargetRegion(lane, *job), "nowait") for job in jobs
            ]
            assert [h.result(timeout=50) for h in handles] == [0, 0]
        finally:
            sys.setswitchinterval(interval)
            rt.shutdown(wait=False)


class TestMultiplyTables:
    """The row path multiplies by lookup in one table per multiplicative
    subkey, built once per key schedule and shared by every caller."""

    @pytest.mark.parametrize(
        "subkey", [0, 1, 2, 0x8000, 0xFFFF, int(np.random.default_rng(31).integers(1 << 16))]
    )
    def test_every_word_times_the_subkey(self, subkey):
        tables = crypt._mul_tables(np.full(crypt.SUBKEYS, subkey, np.uint16).tobytes())
        want = np.array([_ref_mul(a, subkey) for a in range(1 << 16)], np.uint16)
        assert tables.shape == (34, 1 << 16) and not tables.flags.writeable
        assert (tables == want).all()

    def test_one_row_per_multiplicative_subkey_in_cipher_order(self):
        # 1 times a subkey is the subkey: column 1 lists the keys looked up.
        schedule = np.arange(1, crypt.SUBKEYS + 1, dtype=np.uint16)
        at = [6 * r + i for r in range(crypt.ROUNDS) for i in (0, 3, 4, 5)] + [48, 51]
        assert crypt._mul_tables(schedule.tobytes())[:, 1].tolist() == schedule[at].tolist()

    def test_tables_are_kept_for_a_bounded_number_of_schedules(self):
        # Nothing grows with uptime: from the 10th new schedule to the 50th
        # the cache holds as many tables (4.5 MB a schedule) as before.
        rng = np.random.default_rng(41)
        data = rng.integers(0, 256, size=8 * ABOVE, dtype=np.uint8)
        tracemalloc.start()
        try:
            for i in range(50):
                user = rng.integers(0, 1 << 16, size=8, dtype=np.uint32)
                crypt.encrypt(data, crypt.encryption_subkeys(user))
                if i == 9:
                    at_10th = tracemalloc.get_traced_memory()[0]
            grown = tracemalloc.get_traced_memory()[0] - at_10th
        finally:
            tracemalloc.stop()
        info = crypt._mul_tables.cache_info()
        assert info.currsize == info.maxsize >= 2
        assert grown < 256 * 1024

    def test_importing_builds_no_tables(self):
        # The 4.5 MB of a schedule are paid by its first row-path call, not
        # by every process that imports the package.
        probe = ("import repro, repro.serve, repro.kernels.crypt as c; "
                 "print(c._mul_tables.cache_info().misses)")
        src = str(pathlib.Path(crypt.__file__).resolve().parents[2])
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             timeout=60, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "0"

    def test_two_lanes_build_a_new_schedules_tables_at_once(self):
        keys = crypt.encryption_subkeys(np.random.default_rng(43).integers(0, 1 << 16, size=8))
        rng = np.random.default_rng(44)
        payloads = [rng.integers(0, 256, size=8 * ABOVE, dtype=np.uint8) for _ in range(2)]
        both = threading.Barrier(2)

        def lane(data):
            both.wait(timeout=10)
            return crypt.encrypt(data, keys).tobytes()

        crypt._mul_tables.cache_clear()
        rt = PjRuntime()
        rt.create_worker("w", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            handles = [rt.invoke_target_block("w", TargetRegion(lane, p), "nowait") for p in payloads]
            got = [h.result(timeout=50) for h in handles]
        finally:
            sys.setswitchinterval(interval)
            rt.shutdown(wait=False)
        assert got == [reference_cipher(p.tobytes(), keys) for p in payloads]


class TestChunking:
    def test_block_slices_cover_range(self):
        slices = crypt.block_slices(8 * 10, 3)
        covered = []
        for s in slices:
            assert s.start % 8 == 0 and s.stop % 8 == 0
            covered.extend(range(s.start, s.stop))
        assert covered == list(range(80))

    def test_block_slices_reject_unaligned(self):
        with pytest.raises(ValueError):
            crypt.block_slices(81, 3)

    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 7, 16])
    def test_chunked_encrypt_matches_sequential(self, keys, n_chunks):
        ek, _ = keys
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, size=8 * 128, dtype=np.uint8)
        whole = crypt.encrypt(data, ek)
        stitched = np.empty_like(data)
        for s, chunk in crypt.encrypt_chunks(data, ek, n_chunks):
            stitched[s] = chunk
        assert np.array_equal(stitched, whole)

    def test_more_chunks_than_blocks(self, keys):
        ek, _ = keys
        data = np.arange(16, dtype=np.uint8)  # 2 blocks
        stitched = np.empty_like(data)
        for s, chunk in crypt.encrypt_chunks(data, ek, 5):
            stitched[s] = chunk
        assert np.array_equal(stitched, crypt.encrypt(data, ek))
