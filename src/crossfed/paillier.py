"""Paillier cryptosystem, fixed-point encoding, and encrypted aggregation.

Multiplying two ciphertexts adds their plaintexts mod n, and raising a
ciphertext to an integer power multiplies its plaintext, which is exactly
what a sample-count-weighted parameter sum needs. We use the standard
g = n + 1 simplification, so encryption is ``(1 + m*n) * r^n mod n^2``.

Nodes share the keypair and the aggregator holds only the public key. A
key holder knows p and q, so it can work modulo p^2 and q^2 and recombine
by the Chinese remainder theorem (Paillier 1999): ``decrypt`` always does,
and ``encrypt``/``encrypt_params`` do when given the secret key. The
results are the same integers the public-key formulas give. Per r^n,
CRT costs about what the public-key form does at 256-bit keys (37 against
34 us, medians of three runs on 2 shared vCPUs; 0-10% slower in
interleaved runs) and 1.8-2.7x less from 512 bits up (105 against 186 us
at 512 bits, 0.62 against 1.22 ms at 1024, 3.4 against 9.1 ms at 2048),
so one formula serves every key size. ``keygen`` is memoised on (bits, seed).

Every modular exponentiation goes through libcrypto, OpenSSL's Montgomery
exponentiation called through ``ctypes`` in the libcrypto that CPython's
``hashlib`` already links (``libcrypto.so.3``, else ``libcrypto.so.1.1``,
loaded by soname), some 10x faster than the builtin ``pow`` at 1024- and
2048-bit moduli. Each thread caches, per odd modulus, its BIGNUM and
``BN_MONT_CTX`` (up to the ``keygen`` memo's 128 keys x 5 moduli), so
``_powmod`` converts only the base and the exponent; even moduli and
modulus 1 take ``BN_mod_exp``. The key holder's r^n is one chain per CRT
half (``_crt_halves``): r goes in once, and the intermediate and the
key's fixed exponents stay BIGNUMs. A failed libcrypto call raises
``NumericError``, so it ends in the cell's status. Nothing needs
installing: where no libcrypto loads, the builtin ``pow`` serves, chosen
once at import and with the same integers, so keys, ciphertexts and every
output are the same either way; ``MODEXP_BACKEND`` names the one in use.
Neither is constant-time; that is fine in a simulator, whose secrets
never leave the process, not in a deployment.

The key holder's r^n mod n^2, the whole cost of an encryption, depends
only on the key and r, never on the plaintext, so ``_r_to_the_n`` is
memoised on (secret key, r), up to 2^17 entries (about 300 bytes each at
256-bit keys). The federation draws r from a stream seeded by (cell seed,
node, round), and ``keygen`` gives cells with the same seed the same key,
so the cells of a sweep that share a seed (``he-fl`` and ``ours``, each
sweep value) reuse one another's randomisers, as common random numbers.
Every ``encrypt`` still draws its r, and the ciphertexts are the same
integers. A deployment must never reuse r across uploads; here r repeats
only across simulated cells, never within one. The memo holds nothing
that the ``keygen`` memo, which keeps the secret keys, does not already.

The aggregator packs before it decrypts: ``decrypt_params`` shifts groups
of summed ciphertexts homomorphically into the slots of one plaintext (as
BatchCrypt packs, Zhang et al. 2020) and decrypts each group once, some
18 slots per 1024-bit plaintext for 2^40-scaled sums over a few hundred
samples. The slot width reveals only the bit length of the bound that
``check_sum_headroom`` returns, which comes from the same plaintexts the
headroom check already reads. Uploads and the wire format are unpacked.

Reals ride along as scaled residues: ``round(x * scale)`` mapped into
[0, modulus), with the upper half of the range decoding as negative. The
same ``FixedPointCodec`` serves Paillier (modulus n) and the SMC baseline
(the prime field of ``privacy``). Every weighted sum must keep its scaled
magnitude below modulus/2 or the signed mapping becomes ambiguous;
``check_sum_headroom`` bounds it before anything is encoded, and the
federation calls it for both the ``he`` and the ``smc`` aggregation.
"""
from __future__ import annotations

import ctypes
import functools
import math
import random
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CryptoRangeError, InvalidInputError, KeyGenError, NumericError
from .models import ModelArch, ModelParams

DEFAULT_SCALE = 1 << 40
KEY_BITS_CHOICES = (256, 512, 1024, 2048)
WIRE_MAGIC = b"FCS1"

_MR_ROUNDS = 40
_PRIME_SEARCH_CAP = 100_000
_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# entries of the (secret key, r) -> r^n mod n^2 memo; the shipped sweeps
# need up to ~93k distinct randomisers, and cells run strategy by strategy,
# so a smaller LRU evicts an entry before the next cell with its seed asks
_R_TO_THE_N_MEMO_SIZE = 1 << 17
# per-thread libcrypto caches, sized for the keygen memo's 128 keys: the
# moduli p, q, p^2, q^2 and n^2 of each, and the exponents q mod (p-1), p,
# p mod (q-1) and q of its chained r^n
_MONT_CACHE_SIZE = 128 * 5
_EXPONENT_CACHE_SIZE = 128 * 4
# loaded by soname only: ctypes.util.find_library would start ldconfig or
# gcc child processes, which nearly doubled a sweep's peak RSS
_LIBCRYPTO_SONAMES = ("libcrypto.so.3", "libcrypto.so.1.1")


def _pow_crt_halves(r: int, sk: PaillierPrivateKey) -> tuple[int, int]:
    """r^n mod p^2 and mod q^2 by the builtin ``pow``, as
    (r^(q mod (p-1)) mod p)^p mod p^2 and its twin (see ``_r_to_the_n``)."""
    return (
        pow(pow(r, sk.q_mod_p1, sk.p), sk.p, sk.p_squared),
        pow(pow(r, sk.p_mod_q1, sk.q), sk.q, sk.q_squared),
    )


def _libcrypto_powmod() -> tuple[str, Callable[[int, int, int], int], Callable]:
    """(backend name, powmod, CRT halves of r^n): OpenSSL's Montgomery
    exponentiation through ctypes, or the builtin ``pow`` when no libcrypto
    loads. Both give the same integers."""
    for soname in _LIBCRYPTO_SONAMES:
        try:
            lib = ctypes.CDLL(soname)
            version, bn_ctx_new, bn_new, bn_free, bn_ctx_free = (
                lib.OpenSSL_version, lib.BN_CTX_new, lib.BN_new, lib.BN_free, lib.BN_CTX_free)
            bin2bn, bn2binpad, mod_exp = lib.BN_bin2bn, lib.BN_bn2binpad, lib.BN_mod_exp
            mont_new, mont_set, mont_free, mod_exp_mont = (lib.BN_MONT_CTX_new,
                lib.BN_MONT_CTX_set, lib.BN_MONT_CTX_free, lib.BN_mod_exp_mont)
        except (OSError, AttributeError):  # absent, or too old for BN_bn2binpad
            continue
        break
    else:
        return "builtin pow", pow, _pow_crt_halves
    version.argtypes, version.restype = [ctypes.c_int], ctypes.c_char_p
    for fn in (bn_ctx_new, bn_new, mont_new):
        fn.argtypes, fn.restype = [], ctypes.c_void_p
    for fn in (bn_free, bn_ctx_free, mont_free):
        fn.argtypes, fn.restype = [ctypes.c_void_p], None
    bin2bn.argtypes = [ctypes.c_char_p, ctypes.c_int, ctypes.c_void_p]
    bin2bn.restype = ctypes.c_void_p
    bn2binpad.argtypes = [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int]
    bn2binpad.restype = ctypes.c_int
    mod_exp.argtypes, mod_exp.restype = [ctypes.c_void_p] * 5, ctypes.c_int
    mod_exp_mont.argtypes, mod_exp_mont.restype = [ctypes.c_void_p] * 6, ctypes.c_int
    mont_set.argtypes, mont_set.restype = [ctypes.c_void_p] * 3, ctypes.c_int

    def load(value: int, bn) -> int:
        """BIGNUM of a non-negative value: into bn, or a new one if bn is None."""
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        bn = bin2bn(raw, len(raw), bn)
        if not bn:
            raise NumericError("libcrypto BN_bin2bn failed")
        return bn

    def read(bn, out) -> int:
        size = len(out)
        if bn2binpad(bn, out, size) != size:
            raise NumericError("libcrypto BN_bn2binpad: result wider than the modulus")
        return int.from_bytes(out.raw, "big")

    class Scratch:
        """One thread's BN_CTX, working BIGNUMs and cached constants: ctypes
        releases the GIL during a call, so threads must not share them.

        ``moduli`` maps each odd modulus > 1 to its BIGNUM, BN_MONT_CTX and
        output buffer; ``exponents`` maps each fixed exponent of the chained
        r^n to its BIGNUM. Both are LRU caches, trimmed to
        ``_MONT_CACHE_SIZE`` and ``_EXPONENT_CACHE_SIZE`` entries whenever
        one is added."""

        def __init__(self):
            self.moduli, self.exponents = OrderedDict(), OrderedDict()
            self.ctx = bn_ctx_new()
            self.nums = [bn_new() for _ in range(4)]  # result, base, exponent, modulus
            if not self.ctx or not all(self.nums):
                self.close()
                raise NumericError("libcrypto could not allocate a BN_CTX or BIGNUM")

        def modulus(self, mod: int):
            """(BIGNUM, BN_MONT_CTX, output buffer) of an odd modulus > 1."""
            entry = self.moduli.get(mod)
            if entry is not None:
                self.moduli.move_to_end(mod)
                return entry
            bn, mont = load(mod, None), mont_new()
            if not mont or not mont_set(mont, bn, self.ctx):
                mont_free(mont)
                bn_free(bn)
                raise NumericError(
                    f"libcrypto BN_MONT_CTX_set failed, {mod.bit_length()}-bit modulus")
            out = ctypes.create_string_buffer((mod.bit_length() + 7) // 8)
            entry = self.moduli[mod] = bn, mont, out
            while len(self.moduli) > _MONT_CACHE_SIZE:
                old_bn, old_mont, _ = self.moduli.popitem(last=False)[1]
                mont_free(old_mont)
                bn_free(old_bn)
            return entry

        def exponent(self, exp: int):
            """BIGNUM of a fixed exponent."""
            bn = self.exponents.get(exp)
            if bn is not None:
                self.exponents.move_to_end(exp)
                return bn
            bn = self.exponents[exp] = load(exp, None)
            while len(self.exponents) > _EXPONENT_CACHE_SIZE:
                bn_free(self.exponents.popitem(last=False)[1])
            return bn

        def close(self):
            """Free everything; safe to call again."""
            for bn, mont, _ in self.moduli.values():
                mont_free(mont)
                bn_free(bn)
            for bn in [*self.exponents.values(), *self.nums]:
                bn_free(bn)
            bn_ctx_free(self.ctx)
            self.moduli.clear()
            self.exponents.clear()
            self.nums, self.ctx = [], None

        __del__ = close

    local = threading.local()

    def scratch() -> Scratch:
        """This thread's open Scratch, made on first use."""
        current = getattr(local, "scratch", None)
        if current is None or current.ctx is None:
            current = local.scratch = Scratch()
        return current

    def powmod(base: int, exp: int, mod: int) -> int:
        """``pow(base, exp, mod)``; libcrypto for exp >= 0 and mod >= 1."""
        if exp < 0 or mod < 1:  # inverses and mod <= 0: pow's own semantics
            return pow(base, exp, mod)
        s = scratch()
        result, bn_base, bn_exp, bn_mod = s.nums
        load(base % mod, bn_base)
        load(exp, bn_exp)
        if mod & 1 and mod > 1:
            bn_mod, mont, out = s.modulus(mod)
            ok = mod_exp_mont(result, bn_base, bn_exp, bn_mod, s.ctx, mont)
        else:  # Montgomery needs an odd modulus; 1 is BN_mod_exp's own case
            load(mod, bn_mod)
            out = ctypes.create_string_buffer((mod.bit_length() + 7) // 8)
            ok = mod_exp(result, bn_base, bn_exp, bn_mod, s.ctx)
        if not ok:
            raise NumericError(f"libcrypto BN_mod_exp failed, {mod.bit_length()}-bit modulus")
        return read(result, out)

    def crt_halves(r: int, sk: PaillierPrivateKey) -> tuple[int, int]:
        """``_pow_crt_halves`` without leaving libcrypto between the two
        exponentiations of a half: r goes in once, and the intermediate and
        the key's exponents stay BIGNUMs."""
        s = scratch()
        result, bn_r, middle, _ = s.nums
        load(r % sk.n if r < 0 else r, bn_r)  # BN_mod_exp_mont reduces r >= p
        halves = []
        for prime, square, reduced in (
            (sk.p, sk.p_squared, sk.q_mod_p1),
            (sk.q, sk.q_squared, sk.p_mod_q1),
        ):
            # middle = r^reduced mod prime, then result = middle^prime mod square
            for target, base, exp, mod in (
                (middle, bn_r, reduced, prime),
                (result, middle, prime, square),
            ):
                bn_mod, mont, out = s.modulus(mod)
                if not mod_exp_mont(target, base, s.exponent(exp), bn_mod, s.ctx, mont):
                    raise NumericError(
                        f"libcrypto BN_mod_exp failed, {mod.bit_length()}-bit modulus")
            halves.append(read(result, out))
        return halves[0], halves[1]

    powmod.scratch = scratch  # this thread's Scratch, for the tests of its caches
    release = " ".join(version(0).decode().split()[:2])  # "OpenSSL 3.0.19"
    return f"{soname} ({release})", powmod, crt_halves


# chosen once per process; every caller gets the same integers either way
MODEXP_BACKEND, _powmod, _crt_halves = _libcrypto_powmod()


@dataclass(frozen=True)
class PaillierPublicKey:
    n: int

    @property
    def g(self) -> int:
        return self.n + 1

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def bits(self) -> int:
        return self.n.bit_length()


@dataclass(frozen=True)
class PaillierPrivateKey:
    """The factorisation of n plus the constants CRT arithmetic needs,
    computed once by ``keypair_from_primes``."""

    p: int
    q: int
    lam: int  # lcm(p-1, q-1)
    mu: int  # inverse of L(g^lam mod n^2) mod n
    p_squared: int
    q_squared: int
    q_inv_p: int  # q^-1 mod p
    q_squared_inv_p_squared: int  # (q^2)^-1 mod p^2
    h_p: int  # (-q)^-1 mod p = L_p(g^(p-1) mod p^2)^-1 mod p
    h_q: int  # (-p)^-1 mod q
    q_mod_p1: int  # q mod (p-1): r^q = r^(q mod (p-1)) mod p
    p_mod_q1: int  # p mod (q-1)

    @property
    def n(self) -> int:
        return self.p * self.q


def _is_probable_prime(candidate: int, rng: random.Random, rounds: int = _MR_ROUNDS) -> bool:
    """Miller-Rabin with witnesses drawn from the caller's stream."""
    if candidate < 2:
        return False
    for p in _SMALL_PRIMES:
        if candidate % p == 0:
            return candidate == p
    d = candidate - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rng.randrange(2, candidate - 1)
        x = _powmod(a, d, candidate)
        if x == 1 or x == candidate - 1:
            continue
        for _ in range(s - 1):
            x = x * x % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    # top two bits forced so p*q always reaches the full modulus width
    for _ in range(_PRIME_SEARCH_CAP):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate
    raise KeyGenError(f"no {bits}-bit prime found within {_PRIME_SEARCH_CAP} attempts")


def _l_func(u: int, n: int) -> int:
    return (u - 1) // n


def keypair_from_primes(p: int, q: int) -> tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Build a keypair from explicit primes (tiny test keys included)."""
    if p == q:
        raise InvalidInputError("p and q must be distinct")
    n = p * q
    lam = math.lcm(p - 1, q - 1)
    if math.gcd(n, lam) != 1:
        raise InvalidInputError(f"gcd(pq, (p-1)(q-1)) != 1 for p={p}, q={q}")
    p_squared, q_squared = p * p, q * q
    sk = PaillierPrivateKey(
        p=p,
        q=q,
        lam=lam,
        # g^lam = (1 + n)^lam = 1 + lam*n mod n^2, so L(g^lam mod n^2) = lam mod n
        mu=pow(lam % n, -1, n),
        p_squared=p_squared,
        q_squared=q_squared,
        q_inv_p=pow(q, -1, p),
        q_squared_inv_p_squared=pow(q_squared, -1, p_squared),
        h_p=pow(-q, -1, p),
        h_q=pow(-p, -1, q),
        q_mod_p1=q % (p - 1),
        p_mod_q1=p % (q - 1),
    )
    return PaillierPublicKey(n), sk


@functools.lru_cache(maxsize=128)
def keygen(bits: int, seed: int) -> tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Seeded keypair with two distinct bits/2 probable primes.

    Memoised on (bits, seed): the keys are frozen, so callers share them,
    and every cell of a sweep that derives the same seed searches once.
    """
    if bits not in KEY_BITS_CHOICES:
        raise InvalidInputError(f"bits must be one of {KEY_BITS_CHOICES}, got {bits}")
    rng = random.Random(seed)
    p = _random_prime(bits // 2, rng)
    q = p
    while q == p:
        q = _random_prime(bits // 2, rng)
    return keypair_from_primes(p, q)


def _check_pair(sk: PaillierPrivateKey, pk: PaillierPublicKey) -> None:
    if sk.n != pk.n:
        raise InvalidInputError("secret key does not belong to the public key")


@functools.lru_cache(maxsize=_R_TO_THE_N_MEMO_SIZE)
def _r_to_the_n(sk: PaillierPrivateKey, r: int) -> int:
    """r^n mod n^2 by CRT, from the halves r^n mod p^2 and mod q^2 that
    ``_crt_halves`` computes. x^p mod p^2 depends only on x mod p, so
    r^n = (r^q)^p needs r^q only mod p, where Fermat shortens the exponent
    (q mod (p-1) is never 0 for a valid key, so r = 0 mod p still gives 0).

    Memoised on (sk, r): the frozen key hashes and compares by all of its
    fields, so two keys never share an entry, even when they share a prime."""
    x_p, x_q = _crt_halves(r, sk)
    return x_q + sk.q_squared * ((x_p - x_q) * sk.q_squared_inv_p_squared % sk.p_squared)


def encrypt(
    pk: PaillierPublicKey,
    m: int,
    rng: random.Random,
    r_value: int | None = None,
    sk: PaillierPrivateKey | None = None,
) -> int:
    """Encrypt m in [0, n); fresh randomness unless r_value is pinned.

    A key holder may pass ``sk`` to compute r^n by CRT; the ciphertext is
    the same integer either way.
    """
    if not 0 <= m < pk.n:
        raise CryptoRangeError(f"plaintext {m} outside [0, n)")
    n_squared = pk.n_squared
    if r_value is not None:
        r = r_value
    else:
        r = rng.randrange(1, pk.n)
        while math.gcd(r, pk.n) != 1:
            r = rng.randrange(1, pk.n)
    if sk is None:
        r_to_n = _powmod(r, pk.n, n_squared)
    else:
        _check_pair(sk, pk)
        r_to_n = _r_to_the_n(sk, r)
    return (1 + m * pk.n) % n_squared * r_to_n % n_squared


def decrypt(sk: PaillierPrivateKey, pk: PaillierPublicKey, c: int) -> int:
    """Plaintext of c by CRT decryption.

    m_p = L_p(c^(p-1) mod p^2) * h_p mod p, likewise mod q, recombined by
    Garner's formula. For every ciphertext (a unit mod n^2) this equals
    the textbook ``L(c^lam mod n^2) * mu mod n``.
    """
    if not 0 <= c < pk.n_squared:
        raise CryptoRangeError(f"ciphertext outside [0, n^2)")
    _check_pair(sk, pk)
    p, q = sk.p, sk.q
    m_p = _l_func(_powmod(c, p - 1, sk.p_squared), p) * sk.h_p % p
    m_q = _l_func(_powmod(c, q - 1, sk.q_squared), q) * sk.h_q % q
    return m_q + q * ((m_p - m_q) * sk.q_inv_p % p)


def add_cipher(pk: PaillierPublicKey, c1: int, c2: int) -> int:
    """Ciphertext of the plaintext sum."""
    n_squared = pk.n_squared
    if not (0 <= c1 < n_squared and 0 <= c2 < n_squared):
        raise CryptoRangeError("ciphertext outside [0, n^2)")
    return c1 * c2 % n_squared


def scalar_mul(pk: PaillierPublicKey, c: int, k: int) -> int:
    """Ciphertext of k times the plaintext, k a non-negative integer."""
    if not 0 <= c < pk.n_squared:
        raise CryptoRangeError("ciphertext outside [0, n^2)")
    if k < 0:
        raise CryptoRangeError(f"scalar must be >= 0, got {k}")
    return _powmod(c, k, pk.n_squared)


@dataclass(frozen=True)
class FixedPointCodec:
    """Signed fixed-point mapping of reals into [0, modulus)."""

    modulus: int
    scale: int = DEFAULT_SCALE

    def __post_init__(self):
        # a power of two keeps x * scale and v / scale exact in float64
        if self.scale < 1 or self.scale & (self.scale - 1):
            raise InvalidInputError(f"scale must be a power of two, got {self.scale}")
        if self.modulus < 4:
            raise InvalidInputError(f"modulus must be >= 4, got {self.modulus}")


def encode_real(codec: FixedPointCodec, x: float) -> int:
    x = float(x)
    product = x * codec.scale  # exact: scale is a power of two
    if not math.isfinite(product):  # NaN or inf, given or once scaled
        raise CryptoRangeError(f"cannot encode non-finite value {x} * scale")
    scaled = round(product)
    if 2 * abs(scaled) >= codec.modulus:
        raise CryptoRangeError(f"|{x}| * scale exceeds modulus/2")
    return scaled % codec.modulus


def decode_real(codec: FixedPointCodec, v: int) -> float:
    if not 0 <= v < codec.modulus:
        raise CryptoRangeError(f"encoded value outside [0, modulus)")
    if v > codec.modulus // 2:
        v -= codec.modulus
    return v / codec.scale


def check_sum_headroom(codec: FixedPointCodec, updates: Sequence[tuple[np.ndarray, int]]) -> int:
    """Return B = sum(count * round(max|w| * scale)) over the (w, count)
    pairs, which bounds every coordinate of the count-weighted sum of the
    encoded vectors; raise CryptoRangeError unless B < modulus/2, so that
    the sum decodes with the right sign."""
    scale = codec.scale
    bound = 0
    for values, count in updates:
        largest = float(np.max(np.abs(values)))
        if not math.isfinite(largest * scale):  # NaN or inf, given or once scaled
            raise CryptoRangeError(f"cannot encode non-finite value {largest} * scale")
        bound += count * round(largest * scale)
    if 2 * bound >= codec.modulus:
        raise CryptoRangeError(
            f"count-weighted sum of {len(updates)} updates exceeds n/2 "
            f"at scale {scale} (n: the {codec.modulus.bit_length()}-bit modulus)"
        )
    return bound


@dataclass
class CipherVector:
    """Encrypted parameter vector plus the key width it was made under."""

    elements: list[int]
    key_bits: int

    def __len__(self) -> int:
        return len(self.elements)


def encrypt_params(
    pk: PaillierPublicKey,
    codec: FixedPointCodec,
    params: ModelParams,
    rng: random.Random,
    sk: PaillierPrivateKey | None = None,
) -> CipherVector:
    """Elementwise encode-then-encrypt of a parameter vector; a key holder
    passes ``sk`` for CRT encryption (same ciphertexts, less work)."""
    elements = []
    for i, x in enumerate(params.values):
        try:
            elements.append(encrypt(pk, encode_real(codec, float(x)), rng, sk=sk))
        except CryptoRangeError as exc:
            raise CryptoRangeError(f"coordinate {i}: {exc}") from exc
    return CipherVector(elements, pk.bits)


def aggregate_encrypted(
    pk: PaillierPublicKey, updates: Sequence[tuple[CipherVector, int]]
) -> tuple[CipherVector, int]:
    """Homomorphic weighted sum: ciphertexts of sum(count_i * w_i).

    Weighting by integer sample counts keeps everything inside the additive
    homomorphism; the division by the total count happens after decryption.
    ``check_sum_headroom`` keeps sum(count_i * max|w_i|) * scale below n/2.
    """
    if not updates:
        raise InvalidInputError("no updates to aggregate")
    length = len(updates[0][0])
    n_squared = pk.n_squared
    acc = [1] * length  # deterministic encryption of zero
    total = 0
    for cv, count in updates:
        if len(cv) != length:
            raise InvalidInputError(
                f"cipher vector length {len(cv)} does not match {length}"
            )
        if count < 1:
            raise InvalidInputError(f"sample count must be >= 1, got {count}")
        total += count
        for j, c in enumerate(cv.elements):
            acc[j] = acc[j] * _powmod(c, count, n_squared) % n_squared
    return CipherVector(acc, pk.bits), total


def decrypt_params(
    sk: PaillierPrivateKey,
    pk: PaillierPublicKey,
    codec: FixedPointCodec,
    cv: CipherVector,
    divisor: int,
    arch: ModelArch,
    bound: int | None = None,
) -> ModelParams:
    """Decrypt and decode, then divide by the total count.

    ``bound`` caps the magnitude of every signed plaintext, as
    ``check_sum_headroom`` returns it. A slot of k = bound.bit_length() + 1
    bits holds any such value with its sign, so each group of
    s = (n.bit_length() - 2) // k ciphertexts is packed by Horner into
    C = prod c_j^(2^(k*j)) mod n^2 with the public key alone. The plaintext
    of C, sum v_j * 2^(k*j), stays below n/2 in magnitude, so one
    decryption yields it signed, and its signed base-2^k digits are the
    same integers v_j that decrypting each c_j would give. Without a bound
    each ciphertext is a group of its own.
    """
    if divisor < 1:
        raise InvalidInputError(f"divisor must be >= 1, got {divisor}")
    if len(cv) != arch.param_count:
        raise InvalidInputError(
            f"cipher vector length {len(cv)} does not match {arch.param_count} params"
        )
    n, n_squared = pk.n, pk.n_squared
    if not all(0 <= c < n_squared for c in cv.elements):
        raise CryptoRangeError("ciphertext outside [0, n^2)")
    if bound is None:
        bound = n // 2
    if bound < 0:
        raise InvalidInputError(f"bound must be >= 0, got {bound}")
    k = bound.bit_length() + 1
    slots = max(1, (n.bit_length() - 2) // k)
    half, mask = 1 << (k - 1), (1 << k) - 1
    sums = []
    for start in range(0, len(cv), slots):
        group = cv.elements[start : start + slots]
        packed = group[-1]
        for c in reversed(group[:-1]):
            packed = _powmod(packed, 1 << k, n_squared) * c % n_squared
        m = decrypt(sk, pk, packed)
        if m > n // 2:  # the signed mapping of decode_real
            m -= n
        for _ in group[:-1]:
            digit = ((m + half) & mask) - half
            sums.append(digit)
            m = (m - digit) >> k
        sums.append(m)
    values = np.array([v / codec.scale for v in sums], dtype=np.float64)
    return ModelParams(arch, values / divisor)


def serialize_cipher_vector(cv: CipherVector) -> bytes:
    """FCS1 wire format: magic, key bits, count, length-prefixed elements.

    All integers are big-endian; element payloads are minimal-length so the
    roundtrip is bytewise exact.
    """
    out = bytearray(WIRE_MAGIC)
    out += cv.key_bits.to_bytes(4, "big")
    out += len(cv.elements).to_bytes(4, "big")
    for el in cv.elements:
        if el < 0:
            raise InvalidInputError("ciphertext elements must be non-negative")
        raw = el.to_bytes(max(1, (el.bit_length() + 7) // 8), "big")
        out += len(raw).to_bytes(4, "big")
        out += raw
    return bytes(out)


def deserialize_cipher_vector(blob: bytes) -> CipherVector:
    if blob[:4] != WIRE_MAGIC:
        raise InvalidInputError("bad magic bytes, not an FCS1 payload")
    if len(blob) < 12:
        raise InvalidInputError("truncated FCS1 header")
    key_bits = int.from_bytes(blob[4:8], "big")
    count = int.from_bytes(blob[8:12], "big")
    offset = 12
    elements = []
    for _ in range(count):
        if offset + 4 > len(blob):
            raise InvalidInputError("truncated element length prefix")
        size = int.from_bytes(blob[offset : offset + 4], "big")
        offset += 4
        if offset + size > len(blob):
            raise InvalidInputError("truncated element payload")
        elements.append(int.from_bytes(blob[offset : offset + size], "big"))
        offset += size
    if offset != len(blob):
        raise InvalidInputError(f"{len(blob) - offset} trailing bytes after payload")
    return CipherVector(elements, key_bits)
