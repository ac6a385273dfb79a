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
4), which halves the cost of a short MAC.  A page key is used once or twice
before the next write-back replaces it, so page MACs take the raw key, whose
pads are worked out on each call.  Outside a counter-tree bind, every MAC
is one C call through `keyed_mac8`.  A forest or page MAC passes a domain tag and the message's
parts (the tag form).  The counter tree passes its fields instead, in one of
three packed formats: the integers as integers and the page as a pointer to
where it lies, and C lays out the same bytes as the tag form spells out, so
no tree MAC builds its message in Python.  A counter-tree bind is one C call
too, `tree_bind`: the counter bumps and wraps along a page's path and its
three kinds of MAC, in those packed formats, from the trusted path's bytes.

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
and a PRNG draw are the same function over one slice under one key.  The
MACs are C in the same module, over libcrypto's `SHA256_Init`,
`SHA256_Update` and `SHA256_Final`.  Python checks every length before C
reads anything.  The C code calls libcrypto through pointers taken from the
libcrypto loaded here through cffi's ABI mode, so it needs a C compiler and
Python's headers but no OpenSSL headers and no libcrypto to link against.
The C code and libcrypto's declarations are built once, at first import, in
a separate process, and cached (see `_load_built`).  The two shared cipher
contexts and the static output buffers (a page's, a bound path's) make
this module not thread-safe; nothing in enclavesim uses threads.
"""

from __future__ import annotations

import hashlib
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
typedef struct SHA256state_st SHA256_CTX;
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
int SHA256_Init(SHA256_CTX *c);
int SHA256_Update(SHA256_CTX *c, const void *data, size_t len);
int SHA256_Final(unsigned char *md, SHA256_CTX *c);
"""
# The page cipher's loop and the MACs.  The source has no OpenSSL headers, so
# a cipher context is a `void *`, a SHA-256 state is laid out here as
# OpenSSL's public sha.h lays out SHA256_CTX, and libcrypto's functions are
# pointers, set below from the libcrypto loaded through the declarations above.
_CORE_CDEF = """
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

typedef struct {
    unsigned int h[8];
    unsigned int Nl;
    unsigned int Nh;
    unsigned int data[16];
    unsigned int num;
    unsigned int md_len;
} sha256_ctx;
typedef struct { sha256_ctx inner; sha256_ctx outer; } mac_pads;
typedef int (*sha256_init_fn)(sha256_ctx *);
typedef int (*sha256_update_fn)(sha256_ctx *, const void *, size_t);
typedef int (*sha256_final_fn)(unsigned char *, sha256_ctx *);
extern sha256_init_fn sha256_init;
extern sha256_update_fn sha256_update;
extern sha256_final_fn sha256_final;
extern int mac_failed;
int mac_pads_init(mac_pads *pads, const unsigned char *key, size_t n);
uint64_t mac_msg(const mac_pads *pads, const unsigned char *msg, size_t n);
uint64_t mac_raw(const unsigned char *key, size_t key_n,
                 const unsigned char *msg, size_t n);
uint64_t mac_tree_leaf(const mac_pads *pads, uint64_t idx, uint64_t parent,
                       uint64_t major, const unsigned char *dmac);
uint64_t mac_tree_node(const mac_pads *pads, uint8_t level, uint64_t idx,
                       uint64_t parent, const unsigned char *blob);
uint64_t mac_tree_data(const mac_pads *pads, uint64_t page, uint64_t major,
                       const unsigned char *data);

#define TREE_ARITY_BITS 5
#define TREE_COUNTER_BITS 14
#define TREE_MAJOR_BITS 56
#define TREE_NODE_BYTES 64
#define TREE_MAX_LEVELS 8
#define TREE_EXHAUSTED -1
#define TREE_SHA_FAILED -2
extern unsigned char tree_out[512];  /* TREE_MAX_LEVELS nodes */
int tree_bind(const mac_pads *pads, uint64_t page, const unsigned char *data,
              const unsigned char *nodes, int levels, uint64_t root);
"""
_CORE_SOURCE = "#include <stdint.h>\n#include <stddef.h>\n" + _CORE_CDEF + r"""
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

/* HMAC-SHA-256 (RFC 2104) truncated to its first 8 bytes, returned as a
   big-endian integer.  A failed libcrypto call sets mac_failed and returns
   0, so a caller checks mac_failed only when a MAC reads 0.  The caller
   has checked every length that it does not pass. */
sha256_init_fn sha256_init;
sha256_update_fn sha256_update;
sha256_final_fn sha256_final;
int mac_failed;

static uint64_t failed(void)
{
    mac_failed = 1;
    return 0;
}

/* the pads of a key of n bytes; a key longer than the 64-byte block is
   hashed first.  Returns 1, else 0 if a libcrypto call failed. */
int mac_pads_init(mac_pads *pads, const unsigned char *key, size_t n)
{
    unsigned char k[64] = {0}, pad[64];
    sha256_ctx c;
    int i;

    if (n > sizeof k) {
        if (sha256_init(&c) != 1 || sha256_update(&c, key, n) != 1
            || sha256_final(k, &c) != 1)
            return 0;
    } else if (n) {
        memcpy(k, key, n);
    }
    for (i = 0; i < 64; i++)
        pad[i] = k[i] ^ 0x36;
    if (sha256_init(&pads->inner) != 1 || sha256_update(&pads->inner, pad, 64) != 1)
        return 0;
    for (i = 0; i < 64; i++)
        pad[i] = k[i] ^ 0x5C;
    return sha256_init(&pads->outer) == 1 && sha256_update(&pads->outer, pad, 64) == 1;
}

/* the MAC of head || tail from held pads, which are copied, never advanced */
static uint64_t mac2(const mac_pads *pads, const unsigned char *head, size_t head_n,
                     const unsigned char *tail, size_t tail_n)
{
    sha256_ctx inner, outer;
    unsigned char d[32];
    uint64_t m = 0;
    int i;

    mac_failed = 0;
    if (!pads)
        return failed();
    inner = pads->inner;
    outer = pads->outer;
    if (sha256_update(&inner, head, head_n) != 1
        || (tail_n && sha256_update(&inner, tail, tail_n) != 1)
        || sha256_final(d, &inner) != 1
        || sha256_update(&outer, d, sizeof d) != 1
        || sha256_final(d, &outer) != 1)
        return failed();
    for (i = 0; i < 8; i++)
        m = m << 8 | d[i];
    return m;
}

uint64_t mac_msg(const mac_pads *pads, const unsigned char *msg, size_t n)
{
    return mac2(pads, msg, n, NULL, 0);
}

uint64_t mac_raw(const unsigned char *key, size_t key_n,
                 const unsigned char *msg, size_t n)
{
    mac_pads pads;

    if (!mac_pads_init(&pads, key, key_n))
        return failed();
    return mac2(&pads, msg, n, NULL, 0);
}

/* The packed formats lay out exactly the bytes of the tag form: the tag,
   then each field as the counter tree spells it. */
static unsigned char *put_be64(unsigned char *p, uint64_t v)
{
    int i;

    for (i = 7; i >= 0; i--, v >>= 8)
        p[i] = (unsigned char)v;
    return p + 8;
}

static unsigned char *put_le64(unsigned char *p, uint64_t v)
{
    int i;

    for (i = 0; i < 8; i++, v >>= 8)
        p[i] = (unsigned char)v;
    return p + 8;
}

/* "tree-leaf" || idx BE64 || parent BE64 || major LE64 || dmac[8] */
uint64_t mac_tree_leaf(const mac_pads *pads, uint64_t idx, uint64_t parent,
                       uint64_t major, const unsigned char *dmac)
{
    unsigned char msg[9 + 8 + 8 + 8 + 8], *p = msg + 9;

    memcpy(msg, "tree-leaf", 9);
    p = put_be64(p, idx);
    p = put_be64(p, parent);
    p = put_le64(p, major);
    memcpy(p, dmac, 8);
    return mac2(pads, msg, sizeof msg, NULL, 0);
}

/* "tree-node" || level[1] || idx BE64 || parent BE64 || counters[56] */
uint64_t mac_tree_node(const mac_pads *pads, uint8_t level, uint64_t idx,
                       uint64_t parent, const unsigned char *blob)
{
    unsigned char msg[9 + 1 + 8 + 8 + 56], *p = msg + 10;

    memcpy(msg, "tree-node", 9);
    msg[9] = level;
    p = put_be64(p, idx);
    p = put_be64(p, parent);
    memcpy(p, blob, 56);
    return mac2(pads, msg, sizeof msg, NULL, 0);
}

/* "tree-data" || page BE64 || major LE64 || the page[4096], where it lies */
uint64_t mac_tree_data(const mac_pads *pads, uint64_t page, uint64_t major,
                       const unsigned char *data)
{
    unsigned char head[9 + 8 + 8], *p = head + 9;

    memcpy(head, "tree-data", 9);
    p = put_be64(p, page);
    put_le64(p, major);
    return mac2(pads, head, sizeof head, data, 4096);
}

/* One counter-tree bind.  `nodes` is the page's path as trusted, leaf
   first, `levels` nodes of 64 bytes; level l's node is page >> 5l, and the
   top's parent counter is `root`, already bumped.  The leaf takes the next
   major and the page's data MAC; every level's counter for the path child
   is bumped, or reset to 0 on a wrap; each node is re-MACed under its new
   parent counter.  The new nodes land in tree_out, leaf first.  Returns the
   wraps made, else TREE_EXHAUSTED before any MAC when the major has no
   value left, or TREE_SHA_FAILED.  The caller has checked the lengths. */
unsigned char tree_out[512];
typedef char tree_out_holds_the_deepest_path[
    sizeof tree_out == TREE_MAX_LEVELS * TREE_NODE_BYTES ? 1 : -1];

#define TREE_COUNTER_MAX ((1u << TREE_COUNTER_BITS) - 1)

/* bump the 14-bit little-endian slot of a 56-byte counter area, which
   spans two or three bytes; a wrap resets it to 0 */
static uint64_t bump(unsigned char *area, unsigned int slot, int *wraps)
{
    unsigned int bit = slot * TREE_COUNTER_BITS, at = bit >> 3, shift = bit & 7;
    unsigned int n = (shift + TREE_COUNTER_BITS + 7) >> 3, i;
    uint32_t word = 0, c;

    for (i = 0; i < n; i++)
        word |= (uint32_t)area[at + i] << 8 * i;
    c = word >> shift & TREE_COUNTER_MAX;
    if (c == TREE_COUNTER_MAX) {
        c = 0;
        ++*wraps;
    } else {
        c++;
    }
    word = (word & ~(TREE_COUNTER_MAX << shift)) | c << shift;
    for (i = 0; i < n; i++)
        area[at + i] = (unsigned char)(word >> 8 * i);
    return c;
}

int tree_bind(const mac_pads *pads, uint64_t page, const unsigned char *data,
              const unsigned char *nodes, int levels, uint64_t root)
{
    unsigned char dmac[8], *node;
    uint64_t major = 0, idx, parent, m;
    int level, i, wraps = 0;

    for (i = 7; i >= 0; i--)
        major = major << 8 | nodes[i];
    if (major >= ((uint64_t)1 << TREE_MAJOR_BITS) - 1)
        return TREE_EXHAUSTED;
    major++;
    m = mac_tree_data(pads, page, major, data);
    if (!m && mac_failed)
        return TREE_SHA_FAILED;
    put_be64(dmac, m);
    memcpy(tree_out, nodes, (size_t)levels * TREE_NODE_BYTES);
    /* bottom-up: level l's counter area was bumped at level l - 1 */
    for (level = 0, node = tree_out; level < levels; level++, node += TREE_NODE_BYTES) {
        idx = page >> TREE_ARITY_BITS * level;
        if (level == levels - 1)
            parent = root;
        else
            parent = bump(node + TREE_NODE_BYTES,
                          (unsigned int)(idx & ((1u << TREE_ARITY_BITS) - 1)), &wraps);
        if (level) {
            m = mac_tree_node(pads, (uint8_t)level, idx, parent, node);
        } else {
            put_le64(node, major);
            memcpy(node + 8, dmac, 8);
            memset(node + 16, 0, TREE_NODE_BYTES - 24);
            m = mac_tree_leaf(pads, idx, parent, major, dmac);
        }
        if (!m && mac_failed)
            return TREE_SHA_FAILED;
        put_be64(node + TREE_NODE_BYTES - 8, m);
    }
    return wraps;
}
"""
# Run by `sys.executable`, so that cffi's C parser and setuptools, which it
# builds with, never enter the simulator's process.  The declarations become
# a Python module (cffi's out-of-line ABI mode) and the C code an extension;
# `os.replace` installs each atomically, the extension last.
_BUILD = """
import os, sys, cffi
abi_name, core_name, scratch, abi_path, core_path = sys.argv[1:6]
abi, core = cffi.FFI(), cffi.FFI()
abi.cdef(sys.argv[6])
abi.set_source(abi_name, None)
abi.emit_python_code(os.path.join(scratch, abi_name + ".py"))
core.cdef(sys.argv[7])
core.set_source(core_name, sys.argv[8])
built = core.compile(tmpdir=scratch)
os.replace(os.path.join(scratch, abi_name + ".py"), abi_path)
os.replace(built, core_path)
"""


def _build(names: tuple[str, str], scratch: str, paths: tuple[str, str]):
    import subprocess

    out = subprocess.run(
        [sys.executable, "-c", _BUILD, *names, scratch, *paths,
         _LIBCRYPTO_CDEF, _CORE_CDEF, _CORE_SOURCE],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    if out.returncode:
        import sysconfig

        cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
        raise ImportError(
            f"enclavesim.crypto builds its page cipher and MACs at first import and needs "
            f"a C compiler ({cc}) and Python's headers; the build failed:\n"
            f"{out.stdout}{out.stderr}"
        )


def _load_built():
    """libcrypto's declarations and the C code, as two modules built on
    first use and cached.

    The build is keyed by a hash of libcrypto's declarations, the C source
    (which begins with its cdef), the cffi version and the interpreter's
    cache tag, and kept in ``$XDG_CACHE_HOME/enclavesim`` (else
    ``~/.cache/enclavesim``).  Once a build is installed there, the
    ``_enclavesim_*`` files of every other build are removed, so switching
    between versions rebuilds rather than piling up builds; another
    process's ``build-*`` scratch directory is left alone.  Where the cache
    cannot be written, the build is made in a fresh temporary directory,
    loaded, and the directory removed.  Each build works in its own scratch
    directory, so processes that build at once do not collide.  Only a
    build imports what it needs (`subprocess`, `tempfile`, `shutil`), so an
    import that finds the build cached loads none of them.
    """
    tag = "\0".join((_LIBCRYPTO_CDEF, _CORE_SOURCE,
                     _cffi_backend.__version__, str(sys.implementation.cache_tag)))
    stem = "_enclavesim_" + hashlib.sha256(tag.encode()).hexdigest()[:16]
    names = (stem + "_libcrypto", stem + "_core")
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
        cache = None
    try:
        _build(names, scratch, paths)
        modules = _load(names, paths)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if cache is not None:
        for name in os.listdir(cache):
            if name.startswith("_enclavesim_") and name not in files:
                try:
                    os.remove(os.path.join(cache, name))
                except OSError:  # gone already, or not ours to remove
                    pass
    return modules


def _load(names, paths) -> list:
    modules = []
    for name, path in zip(names, paths):
        spec = importlib.util.spec_from_file_location(name, path)
        modules.append(importlib.util.module_from_spec(spec))
        spec.loader.exec_module(modules[-1])
    return modules


_abi, _core = _load_built()
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


def _set_pointer(name: str, fn_type: str, symbol: str):
    setattr(_core.lib, name, _core.ffi.cast(fn_type, _ffi.addressof(_lib, symbol)))


_CONTEXTS = (_ecb_context(0), _ecb_context(1))  # indexed by enc; kept alive here
_core.lib.evp_ctx[0], _core.lib.evp_ctx[1] = _CONTEXTS
_set_pointer("evp_encrypt_init", "evp_init_fn", "EVP_EncryptInit")
_set_pointer("evp_decrypt_init", "evp_init_fn", "EVP_DecryptInit")
_set_pointer("evp_cipher", "evp_cipher_fn", "EVP_Cipher")
_set_pointer("sha256_init", "sha256_init_fn", "SHA256_Init")
_set_pointer("sha256_update", "sha256_update_fn", "SHA256_Update")
_set_pointer("sha256_final", "sha256_final_fn", "SHA256_Final")
# EVP_Cipher's success value: the byte count under OpenSSL 3, 1 under 1.1
_core.lib.cipher_returns_count = _lib.OpenSSL_version_num() >= 0x30000000
_ecb_run, _BUF, _buffer = _core.lib.ecb, _core.lib.ecb_out, _core.ffi.buffer
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


# The counter tree's packed formats: names, not tags.  C lays out the tag
# and the fields, exactly as the tag form spells them (see `keyed_mac8`).
TREE_LEAF = "tree-leaf"
TREE_NODE = "tree-node"
TREE_DATA = "tree-data"
_COUNTER_BLOB_BYTES = 56  # an internal tree node's counter area

_mac_pads_init, _mac_msg, _mac_raw = (
    _core.lib.mac_pads_init, _core.lib.mac_msg, _core.lib.mac_raw
)
_mac_leaf, _mac_node, _mac_data = (
    _core.lib.mac_tree_leaf, _core.lib.mac_tree_node, _core.lib.mac_tree_data
)
_from_buffer = _core.ffi.from_buffer
_SHA_FAILED = "OpenSSL SHA256_Init/SHA256_Update/SHA256_Final failed"


class MacKey:
    """A fixed HMAC-SHA-256 key held as its hashed inner and outer pads.

    RFC 2104 section 4: the SHA-256 states after absorbing ``key ^ ipad``
    and ``key ^ opad`` can be kept and copied for every message, which
    saves two compression calls per MAC.  C works the pads out once, into
    a ``mac_pads`` struct that only C reads; a key longer than the 64-byte
    hash block is hashed first, as HMAC does.
    """

    __slots__ = ("pads",)

    def __init__(self, key: bytes):
        key = bytes(key)
        pads = _core.ffi.new("mac_pads *")
        if not _mac_pads_init(pads, key, len(key)):
            raise RuntimeError(_SHA_FAILED)
        self.pads = pads


def keyed_mac8(key: MacKey | bytes, domain: bytes | str, *parts) -> bytes:
    """8-byte truncated HMAC-SHA-256, in one C call.

    In the tag form ``domain`` is a domain separation tag (bytes), the MAC
    is over ``domain`` and then ``parts`` joined, and ``key`` is a `MacKey`
    or the raw key bytes; both give the same MAC.

    The packed formats take a `MacKey` and the counter tree's fields, and
    give the MAC of the tag form that spells them out:

      TREE_LEAF, idx, parent, major, dmac  as  b"tree-leaf", idx 8 bytes
          big-endian, parent 8 big-endian, major 8 little-endian, dmac
      TREE_NODE, level, idx, parent, blob  as  b"tree-node", level 1 byte,
          idx 8 big-endian, parent 8 big-endian, blob
      TREE_DATA, page, major, data  as  b"tree-data", page 8 big-endian,
          major 8 little-endian, data

    ``dmac`` must be 8 bytes, ``blob`` 56 and ``data`` a page (any buffer,
    hashed where it lies); a field of another length is a ValueError, and
    an integer that does not fit its width an OverflowError, before C reads
    anything.
    """
    if domain is TREE_LEAF:
        idx, parent, major, dmac = parts
        if len(dmac) != MAC_BYTES:
            raise ValueError(f"a data MAC must be {MAC_BYTES} bytes")
        m = _mac_leaf(key.pads, idx, parent, major, dmac)
    elif domain is TREE_NODE:
        level, idx, parent, blob = parts
        if len(blob) != _COUNTER_BLOB_BYTES:
            raise ValueError(f"a counter blob must be {_COUNTER_BLOB_BYTES} bytes")
        m = _mac_node(key.pads, level, idx, parent, blob)
    elif domain is TREE_DATA:
        page, major, data = parts
        if len(data) != PAGE_SIZE:
            raise ValueError(f"page must be {PAGE_SIZE} bytes")
        m = _mac_data(key.pads, page, major, _from_buffer(data))
    else:
        msg = domain + b"".join(parts)
        if key.__class__ is MacKey:
            m = _mac_msg(key.pads, msg, len(msg))
        else:
            m = _mac_raw(key, len(key), msg, len(msg))
    if not m and _core.lib.mac_failed:
        raise RuntimeError(_SHA_FAILED)
    return m.to_bytes(MAC_BYTES, "big")


# The counter tree's bind, one C call (`tree_bind`), and the layout C fixes
# for it, which the tree checks against its own at import
TREE_ARITY = 1 << _core.lib.TREE_ARITY_BITS
TREE_COUNTER_BITS = _core.lib.TREE_COUNTER_BITS
TREE_MAJOR_BITS = _core.lib.TREE_MAJOR_BITS
TREE_NODE_BYTES = _core.lib.TREE_NODE_BYTES
TREE_MAX_LEVELS = _core.lib.TREE_MAX_LEVELS
_tree_bind, _TREE_OUT = _core.lib.tree_bind, _core.lib.tree_out
_TREE_EXHAUSTED = _core.lib.TREE_EXHAUSTED
# a path's length in bytes -> its level count, for every path C takes
_TREE_LEVELS = {n * TREE_NODE_BYTES: n for n in range(1, TREE_MAX_LEVELS + 1)}


def tree_bind(key: MacKey, page: int, data, nodes: bytes, root: int) -> tuple[bytes, int] | None:
    """One counter-tree bind of ``page``, in one C call.

    ``nodes`` is the page's path as trusted, its nodes joined leaf first
    (level l's node is ``page >> 5 * l``), ``data`` the page (any buffer,
    hashed where it lies) and ``root`` the top's root counter, already
    bumped.  C bumps the leaf's major counter, MACs the page under it with
    ``TREE_DATA``, bumps each level's counter for the path child (a wrap
    resets it to 0) and re-MACs each node with ``TREE_LEAF`` or
    ``TREE_NODE`` under its new parent counter.  Returns the new nodes,
    joined leaf first, and the wraps made; or None, before any MAC, when
    the leaf's major counter has no value left.  Nothing is kept: the
    caller commits the result.  A path that is not 1 to `TREE_MAX_LEVELS`
    whole nodes, or a page that is not a page, is a ValueError before C
    reads anything.
    """
    n = len(nodes)
    levels = _TREE_LEVELS.get(n)
    if levels is None:
        raise ValueError(f"a path must be 1 to {TREE_MAX_LEVELS} nodes of {TREE_NODE_BYTES} bytes")
    if len(data) != PAGE_SIZE:
        raise ValueError(f"page must be {PAGE_SIZE} bytes")
    wraps = _tree_bind(key.pads, page, _from_buffer(data), nodes, levels, root)
    if wraps < 0:
        if wraps == _TREE_EXHAUSTED:
            return None
        raise RuntimeError(_SHA_FAILED)
    return _buffer(_TREE_OUT, n)[:], wraps


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
