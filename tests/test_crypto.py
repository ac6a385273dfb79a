"""Key composition, ciphers, MACs, wrapping and the freshness source."""

import ctypes.util
import hashlib
import os
import random
import subprocess
import sys
import types

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives import hmac as oracle_hmac
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enclavesim import crypto
from enclavesim.crypto import (
    FreshnessSource,
    MacKey,
    PageMacKey,
    Ssk,
    compose_page_key,
    derive_block_key,
    ecb_decrypt_page,
    ecb_encrypt_page,
    keyed_mac8,
    page_mac,
    split_key,
    unwrap_key,
    wrap_key,
)

# Published AES-256 known-answer vector (FIPS-197 appendix C.3).
KAT_KEY = bytes.fromhex(
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
)
KAT_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
KAT_CT = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")

HW = 0x0123456789ABCDEF
EID = 0x55AA55AA
RND = 0xFEEDFACECAFEBEEF0123456789ABCDEF
PAGE = 0x3FFCAFE

key_fields = st.tuples(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**31 - 1),
    st.integers(0, 2**128 - 1),
    st.integers(0, 2**27 - 1),
)


def test_aes256_known_answer():
    assert crypto.aes_encrypt(KAT_KEY, KAT_PT) == KAT_CT
    assert crypto.aes_decrypt(KAT_KEY, KAT_CT) == KAT_PT


# ------------------------------------------- differential: `cryptography`


def _oracle(key: bytes, data: bytes, encrypt: bool = True) -> bytes:
    cipher = Cipher(algorithms.AES(key), modes.ECB())
    ctx = cipher.encryptor() if encrypt else cipher.decryptor()
    return ctx.update(data) + ctx.finalize()


def _oracle_page(page_key: bytes, page: bytes, encrypt: bool = True) -> bytes:
    return b"".join(
        _oracle(derive_block_key(page_key, b), page[b * 64 : (b + 1) * 64], encrypt)
        for b in range(64)
    )


keys32 = st.binary(min_size=32, max_size=32)
# random 4 KiB pages, drawn from a seed: a 4 KiB draw is too large for
# Hypothesis' example buffer
pages = st.integers(0, 2**64 - 1).map(lambda seed: random.Random(seed).randbytes(4096))


@given(keys32, pages)
@settings(max_examples=50)
def test_page_cipher_matches_cryptography(page_key, page):
    ct = ecb_encrypt_page(page_key, page)
    assert ct == _oracle_page(page_key, page)
    assert ecb_decrypt_page(page_key, ct) == page
    assert ecb_decrypt_page(page_key, page) == _oracle_page(page_key, page, False)


@given(keys32, st.integers(1, 8).flatmap(lambda n: st.binary(min_size=16 * n, max_size=16 * n)))
@settings(max_examples=100)
def test_aes_matches_cryptography(key, data):
    assert crypto.aes_encrypt(key, data) == _oracle(key, data)
    assert crypto.aes_decrypt(key, data) == _oracle(key, data, False)


@given(keys32, keys32, pages, pages)
@settings(max_examples=20)
def test_interleaved_calls_leak_no_state(key_a, key_b, page_a, page_b):
    first = ecb_encrypt_page(key_a, page_a)
    plain_b = ecb_decrypt_page(key_b, page_b)
    assert crypto.aes_encrypt(key_b, page_b[:16]) == _oracle(key_b, page_b[:16])
    assert ecb_encrypt_page(key_a, page_a) == first
    assert ecb_decrypt_page(key_b, page_b) == plain_b
    assert ecb_decrypt_page(key_a, first) == page_a


# ------------------------------- differential: the per-block Python loop

_REF_CONTEXTS = (crypto._ecb_context(0), crypto._ecb_context(1))
_REF_BUF = crypto._ffi.new("unsigned char[]", 4096)


def _python_loop(enc: int, key: bytes, data: bytes, page: bool) -> bytes:
    """The page cipher's loop as it ran in Python, one call into libcrypto
    per re-key and per block, on contexts of its own."""
    ffi, lib = crypto._ffi, crypto._lib
    if page:
        slices, low = [_REF_BUF + off for off in range(0, 4096, 64)], key[31] & 0xC0
    else:
        slices, low = [_REF_BUF], key[31]
    step = len(data) // len(slices)
    ok = step if crypto._ecb.lib.cipher_returns_count else 1
    ctx = _REF_CONTEXTS[enc]
    init = lib.EVP_EncryptInit if enc else lib.EVP_DecryptInit
    ffi.memmove(_REF_BUF, data, len(data))
    for p in slices:
        assert init(ctx, ffi.NULL, key[:31] + bytes((low,)), ffi.NULL) == 1
        assert lib.EVP_Cipher(ctx, p, p, step) == ok
        low += 1
    return ffi.buffer(_REF_BUF, len(data))[:]


@pytest.mark.parametrize("top", range(4))
@given(st.binary(min_size=31, max_size=31), st.integers(0, 63), pages)
@settings(max_examples=25)
def test_compiled_page_loop_matches_the_python_loop(top, head, low, page):
    # the block bits are replaced whatever they held, under each value of the
    # last key byte's top two bits
    key = head + bytes(((top << 6) | low,))
    assert ecb_encrypt_page(key, page) == _python_loop(1, key, page, True)
    assert ecb_decrypt_page(key, page) == _python_loop(0, key, page, True)


@given(
    keys32,
    st.tuples(st.integers(1, 256), st.integers(0, 2**64 - 1)).map(
        lambda t: random.Random(t[1]).randbytes(16 * t[0])
    ),
)
@example(KAT_KEY, KAT_PT)
@example(KAT_KEY, bytes(4096))
@settings(max_examples=100)
def test_compiled_slice_loop_matches_the_python_loop(key, data):
    assert crypto.aes_encrypt(key, data) == _python_loop(1, key, data, False)
    assert crypto.aes_decrypt(key, data) == _python_loop(0, key, data, False)


# ------------------------------------------------ checks at the C boundary


@pytest.mark.parametrize("key_len", [0, 16, 31, 33, 64])
def test_bad_key_length_is_rejected(key_len):
    key = bytes(range(key_len))
    with pytest.raises(ValueError):
        crypto.aes_encrypt(key, bytes(16))
    with pytest.raises(ValueError):
        crypto.aes_decrypt(key, bytes(16))
    with pytest.raises(ValueError):
        ecb_encrypt_page(key, bytes(4096))
    with pytest.raises(ValueError):
        ecb_decrypt_page(key, bytes(4096))


@pytest.mark.parametrize("data_len", [0, 1, 15, 17, 4095, 4097])
def test_bad_data_length_is_rejected(data_len):
    data = bytes(data_len)
    with pytest.raises(ValueError):
        crypto.aes_encrypt(KAT_KEY, data)
    with pytest.raises(ValueError):
        crypto.aes_decrypt(KAT_KEY, data)
    with pytest.raises(ValueError):
        ecb_encrypt_page(KAT_KEY, data)
    with pytest.raises(ValueError):
        ecb_decrypt_page(KAT_KEY, data)


_ECB = crypto._ecb  # the compiled loop: its EVP pointers are C globals
_REAL_CIPHER = _ECB.lib.evp_cipher


def _other_success_value(ctx, out, inp, inl):
    # EVP_Cipher as it would succeed under the other OpenSSL major version:
    # 1.1 returns 1 and 3.x the byte count, and each must be refused by the other
    got = _REAL_CIPHER(ctx, out, inp, inl)
    return 1 if got == inl else inl


# callbacks stand in for the loop's EVP pointers; they are built once and
# kept here, alive for as long as the C code may call them
C_FAILURES = {
    "re-key-returns-0": {
        "evp_encrypt_init": _ECB.ffi.callback("evp_init_fn", lambda *args: 0),
        "evp_decrypt_init": _ECB.ffi.callback("evp_init_fn", lambda *args: 0),
    },
    "cipher-returns-minus-1": {"evp_cipher": _ECB.ffi.callback("evp_cipher_fn", lambda *args: -1)},
    "cipher-returns-the-other-versions-success": {
        "evp_cipher": _ECB.ffi.callback("evp_cipher_fn", _other_success_value)
    },
}


@pytest.mark.parametrize("name", sorted(C_FAILURES))
def test_a_failed_c_call_raises_and_returns_no_bytes(monkeypatch, name):
    calls = (
        lambda: ecb_encrypt_page(KAT_KEY, bytes(4096)),
        lambda: ecb_decrypt_page(KAT_KEY, bytes(4096)),
        lambda: crypto.aes_encrypt(KAT_KEY, KAT_PT),
        lambda: crypto.aes_decrypt(KAT_KEY, KAT_CT),
    )
    for pointer, stand_in in C_FAILURES[name].items():
        monkeypatch.setattr(_ECB.lib, pointer, stand_in)
    for call in calls:
        with pytest.raises(RuntimeError, match="OpenSSL"):
            call()
    monkeypatch.undo()
    # the shared contexts come out of a failure usable
    assert crypto.aes_encrypt(KAT_KEY, KAT_PT) == KAT_CT
    assert crypto.aes_decrypt(KAT_KEY, KAT_CT) == KAT_PT


def test_compose_against_bitstring_oracle():
    # Independent construction: concatenate the binary field strings.
    bits = (
        format(HW, "064b")
        + format(EID, "031b")
        + format(RND, "0128b")
        + format(PAGE, "027b")
        + format(0, "06b")
    )
    assert len(bits) == 256
    expect = int(bits, 2).to_bytes(32, "big")
    assert compose_page_key(HW, EID, RND, PAGE) == expect


@given(key_fields)
@settings(max_examples=200)
def test_compose_split_roundtrip(fields):
    hw, eid, rnd, page = fields
    k = compose_page_key(hw, eid, rnd, page)
    f = split_key(k)
    assert (f.hw_key, f.enclave_id, f.random, f.page, f.block) == (
        hw,
        eid,
        rnd,
        page,
        0,
    )


def test_page_key_block_bits_zero_and_k0_identity():
    k = compose_page_key(HW, EID, RND, PAGE)
    assert split_key(k).block == 0
    assert derive_block_key(k, 0) == k


@given(key_fields, st.integers(1, 63))
@settings(max_examples=100)
def test_block_keys_differ_only_in_block_bits(fields, block):
    k = compose_page_key(*fields)
    kb = derive_block_key(k, block)
    f = split_key(kb)
    assert f.block == block
    assert (f.hw_key, f.enclave_id, f.random, f.page) == fields
    assert kb != k


@given(st.binary(min_size=32, max_size=32), pages)
@settings(max_examples=50)
def test_page_block_keys_equal_derive_block_key(page_key, page):
    # any 32 bytes: the low 6 bits of the last byte are replaced, not assumed 0
    ct = ecb_encrypt_page(page_key, page)
    for b in range(64):
        block = slice(b * 64, (b + 1) * 64)
        assert crypto.aes_encrypt(derive_block_key(page_key, b), page[block]) == ct[block]


def test_field_range_validation():
    with pytest.raises(ValueError):
        compose_page_key(1 << 64, 0, 0, 0)
    with pytest.raises(ValueError):
        compose_page_key(0, 1 << 31, 0, 0)
    with pytest.raises(ValueError):
        compose_page_key(0, 0, 1 << 128, 0)
    with pytest.raises(ValueError):
        compose_page_key(0, 0, 0, 1 << 27)
    with pytest.raises(ValueError):
        derive_block_key(bytes(32), 64)


def test_ecb_block_roundtrip_and_block_sensitivity():
    k = compose_page_key(HW, EID, RND, PAGE)
    pt = bytes(range(64))
    ct = ecb_encrypt_page(k, pt * 64)
    cts = [ct[b * 64 : (b + 1) * 64] for b in (0, 1, 7)]
    assert len(set(cts)) == 3  # same plaintext, distinct per block
    for b, block_ct in zip((0, 1, 7), cts):
        assert crypto.aes_decrypt(derive_block_key(k, b), block_ct) == pt
    assert ecb_decrypt_page(k, ct) == pt * 64


@given(st.binary(min_size=64, max_size=64), key_fields)
@settings(max_examples=20)
def test_ecb_page_roundtrip(chunk, fields):
    page = chunk * 64
    k = compose_page_key(*fields)
    assert ecb_decrypt_page(k, ecb_encrypt_page(k, page)) == page


def test_page_mac_sensitivity():
    k = compose_page_key(HW, EID, RND, PAGE)
    k2 = compose_page_key(HW, EID, RND ^ 1, PAGE)
    page = bytes(4096)
    m = page_mac(k, page)
    assert len(m) == 8
    assert page_mac(k, page) == m
    assert page_mac(k2, page) != m
    assert page_mac(k, b"\x01" + page[1:]) != m


@pytest.mark.parametrize(
    "parts",
    [(bytes(range(256)) * 16,), (b"\x00" * 8, b"group", b"\xff" * 128), (b"", b"x", b"")],
)
def test_keyed_mac8_is_truncated_hmac_over_domain_then_parts(parts):
    key = bytes(range(32))
    ref = oracle_hmac.HMAC(key, hashes.SHA256())
    for chunk in (b"forest-mid", *parts):
        ref.update(chunk)
    expect = ref.finalize()[:8]
    assert keyed_mac8(key, b"forest-mid", *parts) == expect
    assert keyed_mac8(PageMacKey(key), b"forest-mid", *parts) == expect


@given(
    st.binary(max_size=200),
    st.binary(max_size=16),
    st.lists(st.binary(max_size=300), max_size=4),
)
@example(bytes(64), b"tree-node", [])  # a key of exactly one hash block
@example(bytes(65), b"", [b""])  # one byte longer: the key is hashed first
@settings(max_examples=200)
def test_mac_key_gives_the_raw_key_hmac(key, domain, parts):
    ref = oracle_hmac.HMAC(key, hashes.SHA256())
    ref.update(domain + b"".join(parts))
    expect = ref.finalize()[:8]
    held = MacKey(key)
    assert keyed_mac8(key, domain, *parts) == expect
    assert keyed_mac8(held, domain, *parts) == expect
    # the held pad states are copied, never advanced
    assert keyed_mac8(held, domain, *parts) == expect
    if parts:  # a PageMacKey hashes the last part where it lies, a view too
        page_held = PageMacKey(key)
        last = memoryview(bytearray(parts[-1])).toreadonly()
        assert keyed_mac8(page_held, domain, *parts[:-1], last) == expect
        assert keyed_mac8(page_held, domain, *parts) == expect


def test_page_cipher_buffer_holds_at_most_a_page():
    with pytest.raises(ValueError, match="at most 4096 bytes"):
        crypto.aes_encrypt(KAT_KEY, bytes(4096 + 16))
    # the shared buffer does not leak one call's bytes into the next
    assert crypto.aes_encrypt(KAT_KEY, KAT_PT) == KAT_CT
    assert crypto.aes_decrypt(KAT_KEY, KAT_CT) == KAT_PT


def test_wrap_unwrap_roundtrip():
    ssk = Ssk(bytes(range(16)), bytes(range(16, 32)))
    k = compose_page_key(HW, EID, RND, PAGE)
    wrapped = wrap_key(ssk, k)
    assert len(wrapped) == 16
    assert unwrap_key(ssk, wrapped, HW, EID, PAGE) == k


@given(st.integers(0, 2**128 - 1), st.integers(0, 2**128 - 1))
@settings(max_examples=100)
def test_wrap_injective_in_random(r1, r2):
    ssk = Ssk(bytes(range(16)), bytes(range(16, 32)))
    k1 = compose_page_key(HW, EID, r1, PAGE)
    k2 = compose_page_key(HW, EID, r2, PAGE)
    if r1 == r2:
        assert wrap_key(ssk, k1) == wrap_key(ssk, k2)
    else:
        assert wrap_key(ssk, k1) != wrap_key(ssk, k2)


ssks = st.tuples(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))


@given(ssks, key_fields, keys32, pages)
@settings(max_examples=50)
def test_wrap_is_aes_of_the_random_field_under_the_ssk(ssk_parts, fields, other_key, page):
    ssk = Ssk(*ssk_parts)
    hw, eid, rnd, phys = fields
    k = compose_page_key(hw, eid, rnd, phys)
    # page-cipher calls on another key around each call: no state is shared
    ct = ecb_encrypt_page(other_key, page)
    slot = wrap_key(ssk, k)
    assert slot == _oracle(ssk.key_bytes, rnd.to_bytes(16, "big"))
    assert ecb_decrypt_page(other_key, ct) == page
    assert unwrap_key(ssk, slot, hw, eid, phys) == k
    assert ecb_encrypt_page(other_key, page) == ct


@given(ssks, st.binary(min_size=16, max_size=16), key_fields, keys32, pages)
@settings(max_examples=50)
def test_unwrap_is_aes_decryption_under_the_ssk(ssk_parts, slot, fields, other_key, page):
    ssk = Ssk(*ssk_parts)
    hw, eid, _, phys = fields
    ct = ecb_encrypt_page(other_key, page)
    rnd = int.from_bytes(_oracle(ssk.key_bytes, slot, False), "big")
    assert unwrap_key(ssk, slot, hw, eid, phys) == compose_page_key(hw, eid, rnd, phys)
    assert ecb_decrypt_page(other_key, ct) == page


@given(st.binary(min_size=16, max_size=16), st.integers(0, 2**64 - 1), keys32, pages)
@settings(max_examples=20)
def test_prng_draw_is_aes_of_the_draw_count_under_the_seed_key(boot_time, hw, other_key, page):
    seed_key = hashlib.sha256(b"freshness" + boot_time + hw.to_bytes(8, "big")).digest()
    source = FreshnessSource(boot_time, hw)
    for count in range(1, 6):
        ct = ecb_encrypt_page(other_key, page)
        expect = _oracle(seed_key, count.to_bytes(16, "big"))
        assert source.draw() == int.from_bytes(expect, "big")
        assert ecb_decrypt_page(other_key, ct) == page


def test_freshness_prng_deterministic_and_distinct():
    a = FreshnessSource(bytes(16), HW)
    b = FreshnessSource(bytes(16), HW)
    seq_a = [a.draw() for _ in range(100)]
    seq_b = [b.draw() for _ in range(100)]
    assert seq_a == seq_b
    assert len(set(seq_a)) == 100
    assert a.draws == 100
    c = FreshnessSource(b"\x01" + bytes(15), HW)
    assert [c.draw() for _ in range(100)] != seq_a


def test_freshness_counter_mode():
    f = FreshnessSource(bytes(16), HW, mode="counter")
    assert [f.draw() for _ in range(5)] == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        FreshnessSource(bytes(16), HW, mode="bogus")


def test_missing_libcrypto_is_an_import_error_that_names_it(monkeypatch):
    def no_library(name):
        raise OSError(f"cannot load library {name!r}")

    # the declarations' FFI is built by cffi and its methods are read-only,
    # so a stand-in whose dlopen finds nothing replaces it
    monkeypatch.setattr(crypto, "_ffi", types.SimpleNamespace(dlopen=no_library))
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
    with pytest.raises(ImportError, match="libcrypto"):
        crypto._load_libcrypto()
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: "libcrypto.so.0")
    with pytest.raises(ImportError, match="libcrypto"):
        crypto._load_libcrypto()


def test_a_found_soname_leaves_ctypes_unloaded():
    # ctypes is the platform search's alone; a fresh process that imports
    # the simulator and the adversary finds a soname and never loads it
    code = (
        "import sys, enclavesim.sim, enclavesim.adversary; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ctypes'))"
    )
    src = os.path.dirname(os.path.dirname(crypto.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# ------------------------------------------------- building the loop

_SRC = os.path.dirname(os.path.dirname(crypto.__file__))


def _fresh_process(code: str, cache, **env) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=_SRC, XDG_CACHE_HOME=str(cache), **env)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_first_import_builds_quietly_and_later_imports_reuse_the_build(tmp_path):
    code = (
        "import sys, enclavesim.sim; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('setuptools', 'distutils', 'ctypes', 'pycparser')))"
    )
    cold = _fresh_process(code, tmp_path)
    assert cold.returncode == 0, cold.stderr
    # the build's output is captured, and setuptools and cffi's C parser stay
    # in the build process
    assert cold.stdout == "[]\n"
    built = sorted((tmp_path / "enclavesim").iterdir())
    assert [p.suffix for p in built] == [".so", ".py"]
    stamps = [p.stat().st_mtime_ns for p in built]
    # a compiler that cannot start proves that the second process builds nothing
    warm = _fresh_process(code, tmp_path, CC="/nonexistent")
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == "[]\n"
    assert sorted((tmp_path / "enclavesim").iterdir()) == built
    assert [p.stat().st_mtime_ns for p in built] == stamps


def test_a_missing_compiler_is_an_import_error_that_names_it(tmp_path):
    out = _fresh_process("import enclavesim.crypto", tmp_path, CC="/nonexistent")
    assert out.returncode != 0
    assert out.stdout == ""
    message, build_output = out.stderr.split("ImportError: ", 1)[1].split("\n", 1)
    assert "C compiler (/nonexistent)" in message
    assert "/nonexistent" in build_output


def test_an_unwritable_cache_falls_back_to_a_temporary_dir(tmp_path):
    (tmp_path / "file").write_text("")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    code = (
        "from enclavesim import crypto; "
        "assert crypto.aes_encrypt(bytes(range(32)), bytes.fromhex('00112233445566778899aabbccddeeff'))"
        " == bytes.fromhex('8ea2b7ca516745bfeafc49904b496089'); "
        "print(crypto._ecb.__file__)"
    )
    # a cache under a regular file cannot be made, whoever runs the test
    out = _fresh_process(code, tmp_path / "file", TMPDIR=str(tmp))
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(str(tmp) + os.sep)
    # the temporary build is removed once it is loaded
    assert list(tmp.iterdir()) == []
