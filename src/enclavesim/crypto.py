"""Key derivation, block ciphers, MACs, key wrapping and the freshness PRNG.

Every protected page is encrypted under its own 256-bit key assembled from
five bit fields (most significant first):

  hw_key      64 bits   per-device secret fused into the TCB
  enclave_id  31 bits   owner enclave
  random     128 bits   fresh draw on every write-back of the page
  page_addr   27 bits   physical page index (2^27 pages = 512 GiB)
  block_addr   6 bits   64-byte block within the page

The page key K has the block bits zeroed; the key for block b differs from K
only in those 6 bits, so k_0 == K.  Each 64-byte block is encrypted with
AES-256-ECB under its block key (four 16-byte cipher blocks).  Because the
random field changes on every write-back, ECB reuse across writes never
repeats a (key, plaintext) pair.

Only the 128-bit random field needs secrecy: the TCB re-derives the rest.  So
a stored key slot is AES-256(SSK, random) = 16 bytes, where the security
structure key SSK = device_key2 (128 bits) || boot_time (128 bits).

MACs are HMAC-SHA-256 truncated to 8 bytes: page MACs are keyed by the page
key K, upper forest levels and the EPC integrity tree by the SSK.  Domain
tags and node indices in the MAC input defeat cross-use and relocation.
The SSK never changes during a run, so its users hold it as a `MacKey`: the
SHA-256 states of its inner and outer pads, hashed once (RFC 2104 section
4), which halves the cost of a short MAC.  A page key is used once or
twice before the next write-back replaces it, so page MACs take the raw key.

AES-256-ECB runs in OpenSSL's libcrypto, loaded through cffi.  A single page
transfer touches 64 distinct block keys, so building a cipher object per key
would dominate the run; instead the module holds one EVP context per
direction and re-keys it before every key's slice of data.  ECB has no
chaining state, so nothing carries from one key to the next, and there is
no cache of contexts.  Data is ciphered in place in one static page-sized
buffer.  The two shared contexts and that buffer make this module not
thread-safe; nothing in enclavesim uses threads.
"""

from __future__ import annotations

import ctypes.util
import hashlib
import hmac
from collections.abc import Sequence
from dataclasses import dataclass

import cffi

from .layout import BLOCKS_PER_PAGE, PAGE_SIZE

HW_KEY_BITS = 64
ENCLAVE_ID_BITS = 31
RANDOM_BITS = 128
PAGE_ADDR_BITS = 27
BLOCK_ADDR_BITS = 6
KEY_BITS = HW_KEY_BITS + ENCLAVE_ID_BITS + RANDOM_BITS + PAGE_ADDR_BITS + BLOCK_ADDR_BITS
assert KEY_BITS == 256

_PAGE_SHIFT = BLOCK_ADDR_BITS
_RANDOM_SHIFT = _PAGE_SHIFT + PAGE_ADDR_BITS
_EID_SHIFT = _RANDOM_SHIFT + RANDOM_BITS
_HW_SHIFT = _EID_SHIFT + ENCLAVE_ID_BITS

MAC_BYTES = 8
WRAPPED_KEY_BYTES = 16
FRESHNESS_MODES = ("prng", "counter")


_AES_KEY_BYTES = 32
_AES_BLOCK_BYTES = 16

_ffi = cffi.FFI()
_ffi.cdef(
    """
    typedef struct evp_cipher_st EVP_CIPHER;
    typedef struct evp_cipher_ctx_st EVP_CIPHER_CTX;
    const EVP_CIPHER *EVP_aes_256_ecb(void);
    EVP_CIPHER_CTX *EVP_CIPHER_CTX_new(void);
    void EVP_CIPHER_CTX_free(EVP_CIPHER_CTX *ctx);
    int EVP_CIPHER_CTX_set_padding(EVP_CIPHER_CTX *ctx, int pad);
    int EVP_CipherInit_ex(EVP_CIPHER_CTX *ctx, const EVP_CIPHER *cipher,
                          void *impl, const unsigned char *key,
                          const unsigned char *iv, int enc);
    int EVP_CipherUpdate(EVP_CIPHER_CTX *ctx, unsigned char *out, int *outl,
                         const unsigned char *in, int inl);
    """
)


def _load_libcrypto():
    """OpenSSL 3 or 1.1 by soname, else whatever the platform search finds.

    The sonames come first because ``find_library`` may start a process
    (``ldconfig``) to search.
    """
    for name in ("libcrypto.so.3", "libcrypto.so.1.1"):
        try:
            return _ffi.dlopen(name)
        except OSError:
            pass
    path = ctypes.util.find_library("crypto")
    if path is None:
        raise ImportError("enclavesim.crypto needs OpenSSL's libcrypto; none was found")
    try:
        return _ffi.dlopen(path)
    except OSError as exc:
        raise ImportError(f"enclavesim.crypto cannot load libcrypto ({path}): {exc}") from exc


_lib = _load_libcrypto()


def _ecb_context(enc: int):
    """An AES-256-ECB context for one direction, with no key and no padding."""
    ctx = _lib.EVP_CIPHER_CTX_new()
    if ctx == _ffi.NULL:
        raise MemoryError("OpenSSL EVP_CIPHER_CTX_new failed")
    ctx = _ffi.gc(ctx, _lib.EVP_CIPHER_CTX_free)
    null = _ffi.NULL
    if _lib.EVP_CipherInit_ex(ctx, _lib.EVP_aes_256_ecb(), null, null, null, enc) != 1:
        raise RuntimeError("OpenSSL EVP_CipherInit_ex failed")
    # without this, decryption would hold back the last block as padding
    if _lib.EVP_CIPHER_CTX_set_padding(ctx, 0) != 1:
        raise RuntimeError("OpenSSL EVP_CIPHER_CTX_set_padding failed")
    return ctx


_CONTEXTS = (_ecb_context(0), _ecb_context(1))  # indexed by enc
_outl = _ffi.new("int *")
# the one working buffer, ciphered in place (EVP allows out == in but not a
# partial overlap), with a pointer to every cipher-block boundary built once
_BUF = _ffi.new("unsigned char[]", PAGE_SIZE)
_BUF_AT = {off: _BUF + off for off in range(0, PAGE_SIZE, _AES_BLOCK_BYTES)}


def _aes_ecb(enc: int, keys: Sequence[bytes], data: bytes) -> bytes:
    """AES-256-ECB over ``data`` cut into ``len(keys)`` equal slices, slice i
    under ``keys[i]``; ``enc`` is 1 to encrypt and 0 to decrypt.

    The lengths are checked here, before C reads them: every key must be
    exactly 32 bytes, every slice a positive multiple of 16, and the data no
    longer than a page.
    """
    n = len(data)
    step = n // len(keys)
    if step == 0 or step % _AES_BLOCK_BYTES or step * len(keys) != n:
        raise ValueError(
            f"AES data must be a positive multiple of {_AES_BLOCK_BYTES} bytes per key, "
            f"got {n} bytes for {len(keys)} key(s)"
        )
    if n > PAGE_SIZE:
        raise ValueError(f"AES data must be at most {PAGE_SIZE} bytes, got {n}")
    if any(len(key) != _AES_KEY_BYTES for key in keys):
        raise ValueError(f"AES-256 keys must be {_AES_KEY_BYTES} bytes")
    ctx, outl = _CONTEXTS[enc], _outl
    init, update = _lib.EVP_CipherInit_ex, _lib.EVP_CipherUpdate
    null, at = _ffi.NULL, _BUF_AT
    _ffi.memmove(_BUF, data, n)
    off = 0
    for key in keys:
        # re-key only: cipher, padding and direction stay as set up
        if init(ctx, null, null, key, null, enc) != 1:
            raise RuntimeError("OpenSSL EVP_CipherInit_ex failed")
        p = at[off]
        if update(ctx, p, outl, p, step) != 1 or outl[0] != step:
            raise RuntimeError("OpenSSL EVP_CipherUpdate failed")
        off += step
    return _ffi.buffer(_BUF, n)[:]


def aes_encrypt(key: bytes, data: bytes) -> bytes:
    return _aes_ecb(1, (key,), data)


def aes_decrypt(key: bytes, data: bytes) -> bytes:
    return _aes_ecb(0, (key,), data)


# ---------------------------------------------------------------- page keys


def compose_page_key(hw_key: int, enclave_id: int, random128: int, page: int) -> bytes:
    """Assemble a page key (block bits zero) as 32 big-endian bytes."""
    if not 0 <= hw_key < 1 << HW_KEY_BITS:
        raise ValueError("hw_key out of range")
    if not 0 <= enclave_id < 1 << ENCLAVE_ID_BITS:
        raise ValueError("enclave_id out of range")
    if not 0 <= random128 < 1 << RANDOM_BITS:
        raise ValueError("random component out of range")
    if not 0 <= page < 1 << PAGE_ADDR_BITS:
        raise ValueError("page index out of range")
    word = (
        (hw_key << _HW_SHIFT)
        | (enclave_id << _EID_SHIFT)
        | (random128 << _RANDOM_SHIFT)
        | (page << _PAGE_SHIFT)
    )
    return word.to_bytes(32, "big")


# every page transfer derives 64 block keys; a table lookup is about twice
# as fast as building bytes([b]) each time
_ONE_BYTE = tuple(bytes((i,)) for i in range(256))


def derive_block_key(page_key: bytes, block: int) -> bytes:
    """Block key: identical to the page key except the low 6 bits."""
    if len(page_key) != _AES_KEY_BYTES:
        raise ValueError(f"page key must be {_AES_KEY_BYTES} bytes")
    if not 0 <= block < BLOCKS_PER_PAGE:
        raise ValueError("block index out of range")
    return page_key[:31] + _ONE_BYTE[(page_key[31] & 0xC0) | block]


@dataclass(frozen=True)
class KeyFields:
    hw_key: int
    enclave_id: int
    random: int
    page: int
    block: int


def split_key(key: bytes) -> KeyFields:
    """Decompose a 256-bit key into its fields (test/diagnostic helper)."""
    word = int.from_bytes(key, "big")
    return KeyFields(
        hw_key=word >> _HW_SHIFT,
        enclave_id=(word >> _EID_SHIFT) & ((1 << ENCLAVE_ID_BITS) - 1),
        random=(word >> _RANDOM_SHIFT) & ((1 << RANDOM_BITS) - 1),
        page=(word >> _PAGE_SHIFT) & ((1 << PAGE_ADDR_BITS) - 1),
        block=word & ((1 << BLOCK_ADDR_BITS) - 1),
    )


# ----------------------------------------------------------------- ciphers


def _block_keys(page_key: bytes) -> list[bytes]:
    """derive_block_key(page_key, b) for every block b, from one prefix."""
    if len(page_key) != _AES_KEY_BYTES:
        raise ValueError(f"page key must be {_AES_KEY_BYTES} bytes")
    head, hi = page_key[:31], page_key[31] & 0xC0
    return [head + _ONE_BYTE[hi | b] for b in range(BLOCKS_PER_PAGE)]


def ecb_encrypt_page(page_key: bytes, page: bytes) -> bytes:
    """Encrypt a page block by block, each 64-byte block under its block key."""
    if len(page) != PAGE_SIZE:
        raise ValueError("page must be 4096 bytes")
    return _aes_ecb(1, _block_keys(page_key), page)


def ecb_decrypt_page(page_key: bytes, page: bytes) -> bytes:
    if len(page) != PAGE_SIZE:
        raise ValueError("page must be 4096 bytes")
    return _aes_ecb(0, _block_keys(page_key), page)


# -------------------------------------------------------------------- MACs


_SHA256_BLOCK = 64
_IPAD = bytes(b ^ 0x36 for b in range(256))  # translate tables: XOR each byte
_OPAD = bytes(b ^ 0x5C for b in range(256))


class MacKey:
    """A fixed HMAC-SHA-256 key held as its hashed inner and outer pads.

    RFC 2104 section 4: the SHA-256 states after absorbing ``key ^ ipad``
    and ``key ^ opad`` can be kept and copied for every message, which
    saves two compression calls per MAC.  A key longer than the 64-byte
    hash block is hashed first, as HMAC does.
    """

    __slots__ = ("inner", "outer")

    def __init__(self, key: bytes):
        if len(key) > _SHA256_BLOCK:
            key = hashlib.sha256(key).digest()
        key = bytes(key).ljust(_SHA256_BLOCK, b"\0")
        self.inner = hashlib.sha256(key.translate(_IPAD))
        self.outer = hashlib.sha256(key.translate(_OPAD))


def keyed_mac8(key: MacKey | bytes, domain: bytes, *parts: bytes) -> bytes:
    """8-byte truncated HMAC-SHA-256 with a domain separation tag.

    ``key`` is a `MacKey` or the raw key bytes; both give the same MAC.
    """
    msg = domain + b"".join(parts)
    if type(key) is not MacKey:
        return hmac.digest(key, msg, "sha256")[:MAC_BYTES]
    inner = key.inner.copy()
    inner.update(msg)
    outer = key.outer.copy()
    outer.update(inner.digest())
    return outer.digest()[:MAC_BYTES]


def page_mac(page_key: bytes, plaintext_page: bytes) -> bytes:
    """Leaf MAC over a full plaintext page, keyed by the page key."""
    if len(plaintext_page) != PAGE_SIZE:
        raise ValueError("page must be 4096 bytes")
    return keyed_mac8(page_key, b"page-mac", plaintext_page)


# ------------------------------------------------------------ key wrapping


@dataclass(frozen=True)
class Ssk:
    """Security structure key: second device key || boot timestamp."""

    device_key2: bytes  # 16 bytes
    boot_time: bytes  # 16 bytes

    def __post_init__(self):
        if len(self.device_key2) != 16 or len(self.boot_time) != 16:
            raise ValueError("SSK components must be 16 bytes each")

    @property
    def key_bytes(self) -> bytes:
        return self.device_key2 + self.boot_time


def wrap_key(ssk: Ssk, page_key: bytes) -> bytes:
    """Wrap only the 128-bit random component into a 16-byte key slot."""
    random128 = split_key(page_key).random
    return aes_encrypt(ssk.key_bytes, random128.to_bytes(16, "big"))


def unwrap_key(ssk: Ssk, wrapped: bytes, hw_key: int, enclave_id: int, page: int) -> bytes:
    """Recover the page key from a slot by re-deriving the public fields."""
    if len(wrapped) != WRAPPED_KEY_BYTES:
        raise ValueError("wrapped key slot must be 16 bytes")
    random128 = int.from_bytes(aes_decrypt(ssk.key_bytes, wrapped), "big")
    return compose_page_key(hw_key, enclave_id, random128, page)


# ------------------------------------------------------------------- PRNG


class FreshnessSource:
    """Deterministic 128-bit freshness generator for page-key randomness.

    "prng" mode is a counter-mode AES stream seeded from (boot_time, hw_key);
    "counter" mode falls back to a plain global counter, trading randomness
    for guaranteed uniqueness.  Both are reproducible from the run seed.
    """

    def __init__(self, boot_time: bytes, hw_key: int, mode: str = "prng"):
        if mode not in FRESHNESS_MODES:
            raise ValueError(f"unknown freshness mode {mode!r}")
        self.mode = mode
        self.draws = 0
        seed = hashlib.sha256(
            b"freshness" + boot_time + hw_key.to_bytes(8, "big")
        ).digest()
        self._seed_key = seed

    def draw(self) -> int:
        self.draws += 1
        if self.mode == "counter":
            return self.draws
        block = aes_encrypt(self._seed_key, self.draws.to_bytes(16, "big"))
        return int.from_bytes(block, "big")
