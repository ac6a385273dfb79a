"""Key composition, ciphers, MACs, wrapping and the freshness source."""

import ctypes.util
import hashlib
import os
import random
import subprocess
import sys

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


class _LibStub:
    """The loaded libcrypto with some of its functions replaced."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(_REAL_LIB, name)


_REAL_LIB = crypto._lib


def _other_success_value(ctx, out, inp, inl):
    # EVP_Cipher as it would succeed under the other OpenSSL major version:
    # 1.1 returns 1 and 3.x the byte count, and each must be refused by the other
    got = _REAL_LIB.EVP_Cipher(ctx, out, inp, inl)
    return 1 if got == inl else inl


C_FAILURES = {
    "re-key-returns-0": _LibStub(
        EVP_EncryptInit=lambda *args: 0, EVP_DecryptInit=lambda *args: 0
    ),
    "cipher-returns-minus-1": _LibStub(EVP_Cipher=lambda *args: -1),
    "cipher-returns-the-other-versions-success": _LibStub(EVP_Cipher=_other_success_value),
}


@pytest.mark.parametrize("name", sorted(C_FAILURES))
def test_a_failed_c_call_raises_and_returns_no_bytes(monkeypatch, name):
    calls = (
        lambda: ecb_encrypt_page(KAT_KEY, bytes(4096)),
        lambda: ecb_decrypt_page(KAT_KEY, bytes(4096)),
        lambda: crypto.aes_encrypt(KAT_KEY, KAT_PT),
        lambda: crypto.aes_decrypt(KAT_KEY, KAT_CT),
    )
    monkeypatch.setattr(crypto, "_lib", C_FAILURES[name])
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
    assert keyed_mac8(key, b"forest-mid", *parts) == ref.finalize()[:8]


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

    monkeypatch.setattr(crypto._ffi, "dlopen", no_library)
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
