"""Key composition, ciphers, MACs, wrapping and the freshness source."""

import random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim import crypto
from enclavesim.crypto import (
    FreshnessSource,
    Ssk,
    compose_page_key,
    derive_block_key,
    ecb_decrypt_page,
    ecb_encrypt_page,
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
    monkeypatch.setattr(crypto.ctypes.util, "find_library", lambda name: None)
    with pytest.raises(ImportError, match="libcrypto"):
        crypto._load_libcrypto()
    monkeypatch.setattr(crypto.ctypes.util, "find_library", lambda name: "libcrypto.so.0")
    with pytest.raises(ImportError, match="libcrypto"):
        crypto._load_libcrypto()
