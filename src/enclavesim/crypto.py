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
direction.  For each 64-byte block it re-keys that context
(`EVP_EncryptInit` / `EVP_DecryptInit` with a NULL cipher, which keeps the
context as set up) and ciphers the block (`EVP_Cipher`).  ECB has no
chaining state, so nothing carries from one key to the next, and there is
no cache of contexts.  A page is thus 128 calls into C, and most of its time
is cffi's cost per call and per argument, not AES: the same calls from a C
loop take a small fraction of it.  So the loop passes as few arguments as
it can, checks the lengths once per page, and does no other Python work per
key.  Data is ciphered in place in one static page-sized buffer.  The two
shared contexts and that buffer make this module not thread-safe; nothing
in enclavesim uses threads.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

import cffi

from .layout import BLOCK_SIZE, BLOCKS_PER_PAGE, PAGE_SIZE

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
_RANDOM_MASK = (1 << RANDOM_BITS) - 1

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
    unsigned long OpenSSL_version_num(void);
    const EVP_CIPHER *EVP_aes_256_ecb(void);
    EVP_CIPHER_CTX *EVP_CIPHER_CTX_new(void);
    void EVP_CIPHER_CTX_free(EVP_CIPHER_CTX *ctx);
    int EVP_EncryptInit(EVP_CIPHER_CTX *ctx, const EVP_CIPHER *cipher,
                        const unsigned char *key, const unsigned char *iv);
    int EVP_DecryptInit(EVP_CIPHER_CTX *ctx, const EVP_CIPHER *cipher,
                        const unsigned char *key, const unsigned char *iv);
    int EVP_Cipher(EVP_CIPHER_CTX *ctx, unsigned char *out,
                   const unsigned char *in, unsigned int inl);
    """
)


def _load_libcrypto():
    """OpenSSL 3 or 1.1 by soname, else whatever the platform search finds.

    The sonames come first because ``find_library`` may start a process
    (``ldconfig``) to search; ``ctypes`` is imported only for that search,
    so a process that finds a soname never loads it.
    """
    for name in ("libcrypto.so.3", "libcrypto.so.1.1"):
        try:
            return _ffi.dlopen(name)
        except OSError:
            pass
    import ctypes.util

    path = ctypes.util.find_library("crypto")
    if path is None:
        raise ImportError("enclavesim.crypto needs OpenSSL's libcrypto; none was found")
    try:
        return _ffi.dlopen(path)
    except OSError as exc:
        raise ImportError(f"enclavesim.crypto cannot load libcrypto ({path}): {exc}") from exc


_lib = _load_libcrypto()


def _ecb_context(enc: int):
    """An AES-256-ECB context for one direction, with no key yet."""
    ctx = _lib.EVP_CIPHER_CTX_new()
    if ctx == _ffi.NULL:
        raise MemoryError("OpenSSL EVP_CIPHER_CTX_new failed")
    ctx = _ffi.gc(ctx, _lib.EVP_CIPHER_CTX_free)
    init = _lib.EVP_EncryptInit if enc else _lib.EVP_DecryptInit
    if init(ctx, _lib.EVP_aes_256_ecb(), _ffi.NULL, _ffi.NULL) != 1:
        raise RuntimeError("OpenSSL EVP_EncryptInit/EVP_DecryptInit failed")
    return ctx


_CONTEXTS = (_ecb_context(0), _ecb_context(1))  # indexed by enc
# EVP_Cipher's success value: the byte count under OpenSSL 3, 1 under 1.1
_CIPHER_RETURNS_COUNT = _lib.OpenSSL_version_num() >= 0x30000000
# the one working buffer, ciphered in place (EVP allows out == in but not a
# partial overlap), with a pointer to each of a page's blocks built once
_BUF = _ffi.new("unsigned char[]", PAGE_SIZE)
_WHOLE = (_BUF,)
_PAGE_BLOCKS = tuple(_BUF + off for off in range(0, PAGE_SIZE, BLOCK_SIZE))
# a page's block keys differ from its page key only in the last byte; a table
# lookup is about twice as fast as building bytes([b]) each time
_ONE_BYTE = tuple(bytes((i,)) for i in range(256))


def _aes_ecb(enc: int, key: bytes, data: bytes, page: bool) -> bytes:
    """AES-256-ECB over ``data``; ``enc`` is 1 to encrypt and 0 to decrypt.

    With ``page`` false, all of ``data`` is ciphered under ``key``.  With
    ``page`` true, ``data`` is a page and 64-byte block b is ciphered under
    ``derive_block_key(key, b)``.  The lengths are checked here, once, before
    C reads them: the key must be exactly 32 bytes, a page exactly a page,
    and other data a positive multiple of 16 bytes no longer than a page.
    """
    if len(key) != _AES_KEY_BYTES:
        raise ValueError(f"AES-256 keys must be {_AES_KEY_BYTES} bytes")
    n = len(data)
    if page:
        if n != PAGE_SIZE:
            raise ValueError(f"page must be {PAGE_SIZE} bytes")
        slices, low = _PAGE_BLOCKS, key[31] & 0xC0  # block 0's last key byte
    else:
        if n == 0 or n % _AES_BLOCK_BYTES:
            raise ValueError(f"AES data must be a positive multiple of {_AES_BLOCK_BYTES} bytes")
        if n > PAGE_SIZE:
            raise ValueError(f"AES data must be at most {PAGE_SIZE} bytes, got {n}")
        slices, low = _WHOLE, key[31]  # one slice under the key itself
    step = n // len(slices)
    ok = step if _CIPHER_RETURNS_COUNT else 1
    ctx = _CONTEXTS[enc]
    init = _lib.EVP_EncryptInit if enc else _lib.EVP_DecryptInit
    cipher, null, head, one = _lib.EVP_Cipher, _ffi.NULL, key[:31], _ONE_BYTE
    _ffi.memmove(_BUF, data, n)
    for p in slices:
        # a NULL cipher re-keys only: the context is not reset
        if init(ctx, null, head + one[low], null) != 1:
            raise RuntimeError("OpenSSL EVP_EncryptInit/EVP_DecryptInit failed")
        if cipher(ctx, p, p, step) != ok:
            raise RuntimeError("OpenSSL EVP_Cipher failed")
        low += 1
    return _ffi.buffer(_BUF, n)[:]


def aes_encrypt(key: bytes, data: bytes) -> bytes:
    return _aes_ecb(1, key, data, False)


def aes_decrypt(key: bytes, data: bytes) -> bytes:
    return _aes_ecb(0, key, data, False)


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
        random=(word >> _RANDOM_SHIFT) & _RANDOM_MASK,
        page=(word >> _PAGE_SHIFT) & ((1 << PAGE_ADDR_BITS) - 1),
        block=word & ((1 << BLOCK_ADDR_BITS) - 1),
    )


# ----------------------------------------------------------------- ciphers


def ecb_encrypt_page(page_key: bytes, page: bytes) -> bytes:
    """Encrypt a page block by block, each 64-byte block under its block key."""
    return _aes_ecb(1, page_key, page, True)


def ecb_decrypt_page(page_key: bytes, page: bytes) -> bytes:
    return _aes_ecb(0, page_key, page, True)


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
    random128 = (int.from_bytes(page_key, "big") >> _RANDOM_SHIFT) & _RANDOM_MASK
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
