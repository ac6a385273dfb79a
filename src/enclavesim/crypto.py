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
4), which halves the cost of a short MAC.  The counter tree's data MACs end
in a page, so they hold the SSK as a `PageMacKey`, which hashes the page
where it lies instead of copying it into the message.  A page key is used
once or twice before the next write-back replaces it, so page MACs take the
raw key.

AES-256-ECB runs in OpenSSL's libcrypto.  A single page transfer touches 64
distinct block keys, so building a cipher object per key would dominate the
run; instead the module holds one EVP context per direction and re-keys it
for each 64-byte block (`EVP_EncryptInit` / `EVP_DecryptInit` with a NULL
cipher, which keeps the context as set up) before ciphering the block
(`EVP_Cipher`).  ECB has no chaining state, so nothing carries from one key
to the next.  Driven from Python through cffi, a page would be 128 calls
into C, and cffi's cost per call and per argument, not AES, most of its
time.  So that loop is C: one small function, compiled through cffi's API
mode, takes a page and its key, and sets each block key's last byte,
re-keys, ciphers and checks every return code itself; a key wrap, an unwrap
and a PRNG draw are the same function over one slice under one key.  Python
checks every length before C reads anything.  The function calls EVP through
pointers taken from the libcrypto loaded here through cffi's ABI mode, so it
needs a C compiler and Python's headers but no OpenSSL headers and no
libcrypto to link against.  The loop and libcrypto's declarations are built
once, at first import, in a separate process, and cached (see
`_load_built`).  The two shared contexts and the static page-sized output
buffer make this module not thread-safe; nothing in enclavesim uses threads.
"""

from __future__ import annotations

import hashlib
import hmac
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import _cffi_backend

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
_RANDOM_MASK = (1 << RANDOM_BITS) - 1

MAC_BYTES = 8
WRAPPED_KEY_BYTES = 16
FRESHNESS_MODES = ("prng", "counter")


_AES_KEY_BYTES = 32
_AES_BLOCK_BYTES = 16

# libcrypto's functions, called through cffi's ABI mode: no OpenSSL headers
_LIBCRYPTO_CDEF = """
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
# The page cipher's loop.  The source has no OpenSSL headers, so a context is
# a `void *` and the EVP functions are pointers, set below from the libcrypto
# loaded through the declarations above.
_ECB_CDEF = """
typedef int (*evp_init_fn)(void *, const void *, const unsigned char *,
                           const unsigned char *);
typedef int (*evp_cipher_fn)(void *, unsigned char *, const unsigned char *,
                             unsigned int);
extern evp_init_fn evp_encrypt_init, evp_decrypt_init;
extern evp_cipher_fn evp_cipher;
extern void *evp_ctx[2];          /* indexed by enc */
extern int cipher_returns_count;  /* EVP_Cipher's success value: n, else 1 */
extern unsigned char ecb_out[4096];
int ecb(int enc, const unsigned char *key, const unsigned char *in,
        unsigned int n, int page);
"""
_ECB_SOURCE = _ECB_CDEF + r"""
#include <string.h>

evp_init_fn evp_encrypt_init, evp_decrypt_init;
evp_cipher_fn evp_cipher;
void *evp_ctx[2];
int cipher_returns_count;
unsigned char ecb_out[4096];

/* AES-256-ECB of n bytes of `in` into ecb_out.  With `page` set, each
   64-byte block b is ciphered under the key with its last byte's low 6 bits
   set to b; else all n bytes under the key itself.  The caller has checked
   the lengths.  Returns 0, 1 if a re-key failed, 2 if a cipher call did. */
int ecb(int enc, const unsigned char *key, const unsigned char *in,
        unsigned int n, int page)
{
    evp_init_fn init = enc ? evp_encrypt_init : evp_decrypt_init;
    void *ctx = evp_ctx[enc ? 1 : 0];
    unsigned int step = page ? 64 : n, off;
    int ok = cipher_returns_count ? (int)step : 1;
    unsigned char k[32];

    memcpy(k, key, sizeof k);
    if (page)
        k[31] &= 0xC0;
    for (off = 0; off < n; off += step, k[31]++) {
        /* a NULL cipher re-keys only: the context is not reset */
        if (init(ctx, NULL, k, NULL) != 1)
            return 1;
        if (evp_cipher(ctx, ecb_out + off, in + off, step) != ok)
            return 2;
    }
    return 0;
}
"""
# Run by `sys.executable`, so that cffi's C parser and setuptools, which it
# builds with, never enter the simulator's process.  The declarations become
# a Python module (cffi's out-of-line ABI mode) and the loop an extension;
# `os.replace` installs each atomically, the extension last.
_BUILD = """
import os, sys, cffi
abi_name, ecb_name, scratch, abi_path, ecb_path = sys.argv[1:6]
abi, ecb = cffi.FFI(), cffi.FFI()
abi.cdef(sys.argv[6])
abi.set_source(abi_name, None)
abi.emit_python_code(os.path.join(scratch, abi_name + ".py"))
ecb.cdef(sys.argv[7])
ecb.set_source(ecb_name, sys.argv[8])
built = ecb.compile(tmpdir=scratch)
os.replace(os.path.join(scratch, abi_name + ".py"), abi_path)
os.replace(built, ecb_path)
"""


def _build(names: tuple[str, str], scratch: str, paths: tuple[str, str]):
    import subprocess

    out = subprocess.run(
        [sys.executable, "-c", _BUILD, *names, scratch, *paths,
         _LIBCRYPTO_CDEF, _ECB_CDEF, _ECB_SOURCE],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    if out.returncode:
        import sysconfig

        cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
        raise ImportError(
            f"enclavesim.crypto builds its page cipher at first import and needs "
            f"a C compiler ({cc}) and Python's headers; the build failed:\n"
            f"{out.stdout}{out.stderr}"
        )


def _load_built():
    """libcrypto's declarations and the page-cipher loop, as two modules
    built on first use and cached.

    The build is keyed by a hash of libcrypto's declarations, the loop's
    source (which begins with its cdef), the cffi version and the
    interpreter's cache tag, and kept in ``$XDG_CACHE_HOME/enclavesim``
    (else ``~/.cache/enclavesim``).  Where that cannot be written, it is
    built in a fresh temporary directory, loaded, and the directory
    removed.  Each build works in its own scratch directory, so processes
    that build at once do not collide.  Only a build imports what it needs
    (`subprocess`, `tempfile`, `shutil`), so an import that finds the build
    cached loads none of them.
    """
    tag = "\0".join((_LIBCRYPTO_CDEF, _ECB_SOURCE,
                     _cffi_backend.__version__, str(sys.implementation.cache_tag)))
    stem = "_enclavesim_" + hashlib.sha256(tag.encode()).hexdigest()[:16]
    names = (stem + "_libcrypto", stem + "_ecb")
    files = (names[0] + ".py", names[1] + importlib.machinery.EXTENSION_SUFFIXES[0])
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    cache = os.path.join(base, "enclavesim")
    paths = tuple(os.path.join(cache, f) for f in files)
    if os.path.exists(paths[1]):
        return _load(names, paths)
    import shutil
    import tempfile

    try:
        os.makedirs(cache, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="build-", dir=cache)
    except OSError:
        scratch = tempfile.mkdtemp(prefix="enclavesim-")
        paths = tuple(os.path.join(scratch, f) for f in files)
    try:
        _build(names, scratch, paths)
        return _load(names, paths)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _load(names, paths) -> list:
    modules = []
    for name, path in zip(names, paths):
        spec = importlib.util.spec_from_file_location(name, path)
        modules.append(importlib.util.module_from_spec(spec))
        spec.loader.exec_module(modules[-1])
    return modules


_abi, _ecb = _load_built()
_ffi = _abi.ffi


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


_CONTEXTS = (_ecb_context(0), _ecb_context(1))  # indexed by enc; kept alive here
_ecb.lib.evp_ctx[0], _ecb.lib.evp_ctx[1] = _CONTEXTS
_ecb.lib.evp_encrypt_init = _ecb.ffi.cast("evp_init_fn", _ffi.addressof(_lib, "EVP_EncryptInit"))
_ecb.lib.evp_decrypt_init = _ecb.ffi.cast("evp_init_fn", _ffi.addressof(_lib, "EVP_DecryptInit"))
_ecb.lib.evp_cipher = _ecb.ffi.cast("evp_cipher_fn", _ffi.addressof(_lib, "EVP_Cipher"))
# EVP_Cipher's success value: the byte count under OpenSSL 3, 1 under 1.1
_ecb.lib.cipher_returns_count = _lib.OpenSSL_version_num() >= 0x30000000
_ecb_run, _BUF, _buffer = _ecb.lib.ecb, _ecb.lib.ecb_out, _ecb.ffi.buffer
_C_FAILURES = (
    None,
    "OpenSSL EVP_EncryptInit/EVP_DecryptInit failed",
    "OpenSSL EVP_Cipher failed",
)


def _aes_ecb(enc: int, key: bytes, data: bytes, page: bool) -> bytes:
    """AES-256-ECB over ``data``; ``enc`` is 1 to encrypt and 0 to decrypt.

    With ``page`` false, all of ``data`` is ciphered under ``key``.  With
    ``page`` true, ``data`` is a page and 64-byte block b is ciphered under
    ``derive_block_key(key, b)``.  The lengths are checked here, before C
    reads them: the key must be exactly 32 bytes, a page exactly a page,
    and other data a positive multiple of 16 bytes no longer than a page.
    """
    if len(key) != _AES_KEY_BYTES:
        raise ValueError(f"AES-256 keys must be {_AES_KEY_BYTES} bytes")
    n = len(data)
    if page:
        if n != PAGE_SIZE:
            raise ValueError(f"page must be {PAGE_SIZE} bytes")
    else:
        if n == 0 or n % _AES_BLOCK_BYTES:
            raise ValueError(f"AES data must be a positive multiple of {_AES_BLOCK_BYTES} bytes")
        if n > PAGE_SIZE:
            raise ValueError(f"AES data must be at most {PAGE_SIZE} bytes, got {n}")
    failed = _ecb_run(enc, key, data, n, page)
    if failed:
        raise RuntimeError(_C_FAILURES[failed])
    return _buffer(_BUF, n)[:]


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
    return page_key[:31] + bytes(((page_key[31] & 0xC0) | block,))


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


class PageMacKey(MacKey):
    """A `MacKey` for messages that end in a page.

    `keyed_mac8` hashes the short header and then the page, where it lies,
    as two updates, where a `MacKey` joins its message into one: a page
    would be copied twice, and the extra update would slow a short MAC.
    """

    __slots__ = ()


def keyed_mac8(key: MacKey | bytes, domain: bytes, *parts: bytes) -> bytes:
    """8-byte truncated HMAC-SHA-256 with a domain separation tag.

    ``key`` is a `MacKey`, a `PageMacKey` (whose last part is the page) or
    the raw key bytes; all give the same MAC.
    """
    if type(key) is MacKey:
        inner = key.inner.copy()
        inner.update(domain + b"".join(parts))
    elif type(key) is PageMacKey:
        inner = key.inner.copy()
        inner.update(domain + b"".join(parts[:-1]))
        inner.update(parts[-1])
    else:
        return hmac.digest(key, domain + b"".join(parts), "sha256")[:MAC_BYTES]
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
