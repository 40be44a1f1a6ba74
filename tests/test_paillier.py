import ctypes
import functools
import math
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfed import paillier
from crossfed.errors import CryptoRangeError, InvalidInputError, NumericError
from crossfed.models import ModelArch, ModelParams
from crossfed.paillier import (
    KEY_BITS_CHOICES,
    CipherVector,
    FixedPointCodec,
    add_cipher,
    aggregate_encrypted,
    check_sum_headroom,
    decode_real,
    decrypt,
    decrypt_params,
    deserialize_cipher_vector,
    encode_real,
    encrypt,
    encrypt_params,
    keygen,
    keypair_from_primes,
    scalar_mul,
    serialize_cipher_vector,
)

TOY = keypair_from_primes(5, 7)  # n = 35


@pytest.fixture(scope="module")
def key256():
    return keygen(256, seed=1234)


# --- core cryptosystem -----------------------------------------------------


def test_toy_keypair_exhaustive_roundtrip():
    pk, sk = TOY
    rng = random.Random(0)
    for m in range(35):
        assert decrypt(sk, pk, encrypt(pk, m, rng)) == m


def test_pinned_toy_ciphertext():
    # regression vector: n=35, m=7, r=2 -> (36^7 * 2^35) mod 1225
    pk, _ = TOY
    expected = pow(36, 7, 1225) * pow(2, 35, 1225) % 1225
    c = encrypt(pk, 7, random.Random(0), r_value=2)
    assert c == expected == 753


def test_keygen_deterministic():
    a, _ = keygen(256, seed=5)
    b, _ = keygen(256, seed=5)
    c, _ = keygen(256, seed=6)
    assert a.n == b.n
    assert a.n != c.n
    assert a.bits == 256
    assert a.g == a.n + 1 and a.n_squared == a.n * a.n


def test_keygen_rejects_odd_sizes():
    with pytest.raises(InvalidInputError):
        keygen(300, seed=1)


def test_prime_search_cap_raises(monkeypatch):
    from crossfed import paillier as mod
    from crossfed.errors import KeyGenError

    monkeypatch.setattr(mod, "_PRIME_SEARCH_CAP", 0)
    keygen.cache_clear()  # an earlier test may have memoised keygen(256, 1)
    with pytest.raises(KeyGenError):
        keygen(256, seed=1)


def test_keygen_memoised_on_bits_and_seed():
    assert keygen(256, 77) is keygen(256, 77)
    assert keygen(256, 77) is not keygen(256, 78)
    assert keygen(256, 77)[0] != keygen(512, 77)[0]
    assert keygen.__wrapped__(256, 77) == keygen(256, 77)  # a fresh search agrees


def test_random_roundtrips_256(key256):
    pk, sk = key256
    rng = random.Random(9)
    for _ in range(100):
        m = rng.randrange(pk.n)
        assert decrypt(sk, pk, encrypt(pk, m, rng)) == m


def test_encrypt_rejects_out_of_range(key256):
    pk, _ = key256
    with pytest.raises(CryptoRangeError):
        encrypt(pk, pk.n, random.Random(0))
    with pytest.raises(CryptoRangeError):
        encrypt(pk, -1, random.Random(0))


def test_ciphertext_freshness(key256):
    pk, sk = key256
    rng = random.Random(3)
    seen = {encrypt(pk, 41, rng) for _ in range(100)}
    assert len(seen) == 100
    assert all(decrypt(sk, pk, c) == 41 for c in seen)


def test_additive_homomorphism(key256):
    pk, sk = key256
    rng = random.Random(11)
    for _ in range(50):
        a, b = rng.randrange(pk.n), rng.randrange(pk.n)
        total = add_cipher(pk, encrypt(pk, a, rng), encrypt(pk, b, rng))
        assert decrypt(sk, pk, total) == (a + b) % pk.n


def test_scalar_homomorphism(key256):
    pk, sk = key256
    rng = random.Random(12)
    for _ in range(50):
        a, k = rng.randrange(pk.n), rng.randrange(1, 10_000)
        assert decrypt(sk, pk, scalar_mul(pk, encrypt(pk, a, rng), k)) == a * k % pk.n


def test_scalar_mul_edge_exponents(key256):
    pk, sk = key256
    c = encrypt(pk, 123, random.Random(1))
    assert scalar_mul(pk, c, 1) == c
    assert decrypt(sk, pk, scalar_mul(pk, c, 0)) == 0
    with pytest.raises(CryptoRangeError):
        scalar_mul(pk, c, -2)


def test_combined_identity(key256):
    # 3a + b through the homomorphisms
    pk, sk = key256
    rng = random.Random(13)
    a, b = 1234567, 7654321
    c = add_cipher(pk, scalar_mul(pk, encrypt(pk, a, rng), 3), encrypt(pk, b, rng))
    assert decrypt(sk, pk, c) == (3 * a + b) % pk.n


def test_cipher_range_checks(key256):
    pk, _ = key256
    with pytest.raises(CryptoRangeError):
        add_cipher(pk, pk.n_squared, 1)
    with pytest.raises(CryptoRangeError):
        scalar_mul(pk, pk.n_squared, 2)
    with pytest.raises(CryptoRangeError):
        decrypt(keypair_from_primes(5, 7)[1], pk, -1)


# --- fixed-point codec -----------------------------------------------------


def test_codec_zero_and_exact_dyadic(key256):
    codec = FixedPointCodec(key256[0].n)
    assert encode_real(codec, 0.0) == 0
    assert decode_real(codec, 0) == 0.0
    assert decode_real(codec, encode_real(codec, -1.5)) == -1.5


def test_codec_tenth_within_bound(key256):
    codec = FixedPointCodec(key256[0].n)
    decoded = decode_real(codec, encode_real(codec, 0.1))
    assert abs(Fraction(decoded) - Fraction(1, 10)) <= Fraction(1, 2**41)


def test_codec_roundtrip_error_bound(key256):
    codec = FixedPointCodec(key256[0].n)
    rng = np.random.default_rng(4)
    for x in rng.uniform(-(2.0**20), 2.0**20, 200):
        assert abs(decode_real(codec, encode_real(codec, x)) - x) <= 0.5 / codec.scale


def test_codec_overflow_rejected():
    codec = FixedPointCodec(modulus=TOY[0].n, scale=1)
    with pytest.raises(CryptoRangeError):
        encode_real(codec, 30.0)  # 2*30 >= 35
    with pytest.raises(CryptoRangeError):
        encode_real(codec, float("nan"))
    with pytest.raises(CryptoRangeError):
        decode_real(codec, 35)
    with pytest.raises(CryptoRangeError):  # finite, but inf once scaled by 2^40
        encode_real(FixedPointCodec(1 << 512), 1e300)


def test_codec_scale_must_be_a_power_of_two():
    for scale in (1, 2, 1 << 20, 1 << 40, 1 << 80):
        assert FixedPointCodec(1 << 64, scale).scale == scale
    for scale in (0, -4, 3, 6, (1 << 20) + 1, 10**6):
        with pytest.raises(InvalidInputError, match="power of two"):
            FixedPointCodec(1 << 64, scale)


def test_sum_headroom_bound():
    codec = FixedPointCodec(modulus=TOY[0].n, scale=1)  # sums need 2 * |s| < 35
    assert check_sum_headroom(codec, [(np.array([8.0, -3.0]), 2)]) == 16  # 2 * 16 = 32
    assert check_sum_headroom(codec, [(np.array([-9.0]), 1), (np.array([8.4]), 1)]) == 17
    assert check_sum_headroom(codec, [(np.array([0.0, -0.0]), 3)]) == 0
    assert check_sum_headroom(FixedPointCodec(1 << 64), [(np.array([-0.75]), 2)]) == 3 << 39
    with pytest.raises(CryptoRangeError, match="exceeds n/2"):
        check_sum_headroom(codec, [(np.array([0.0, 9.0]), 2)])  # 2 * 18 = 36
    with pytest.raises(CryptoRangeError, match="exceeds n/2"):
        check_sum_headroom(codec, [(np.array([-9.0]), 1), (np.array([9.0]), 1)])
    for bad in (math.nan, math.inf):
        with pytest.raises(CryptoRangeError, match="non-finite"):
            check_sum_headroom(codec, [(np.array([0.0, bad]), 1)])
    with pytest.raises(CryptoRangeError, match="non-finite"):  # inf once scaled
        check_sum_headroom(FixedPointCodec(1 << 512), [(np.array([1e300]), 1)])


# --- parameter vectors -----------------------------------------------------


def _params(values):
    return ModelParams(ModelArch(len(values) - 1), np.asarray(values, dtype=np.float64))


def test_encrypt_params_roundtrip(key256):
    pk, sk = key256
    codec = FixedPointCodec(pk.n)
    rng = random.Random(21)
    w = _params([0.25, -3.75, 1e-6, 0.0, 12.5])
    cv = encrypt_params(pk, codec, w, rng)
    assert len(cv) == 5
    back = decrypt_params(sk, pk, codec, cv, 1, w.arch)
    assert np.max(np.abs(back.values - w.values)) <= 0.5 / codec.scale


def test_encrypt_params_zero_vector_exact(key256):
    pk, sk = key256
    codec = FixedPointCodec(pk.n)
    w = _params([0.0, 0.0, 0.0])
    back = decrypt_params(sk, pk, codec, encrypt_params(pk, codec, w, random.Random(0)), 1, w.arch)
    assert np.array_equal(back.values, w.values)


def test_encrypt_params_names_bad_coordinate(key256):
    pk, _ = key256
    codec = FixedPointCodec(pk.n, scale=1 << 40)
    w = _params([0.0, float(pk.n), 0.0])
    with pytest.raises(CryptoRangeError, match="coordinate 1"):
        encrypt_params(pk, codec, w, random.Random(0))


def test_aggregate_single_update_identity(key256):
    pk, sk = key256
    codec = FixedPointCodec(pk.n)
    w = _params([1.5, -2.25, 0.125])
    cv = encrypt_params(pk, codec, w, random.Random(5))
    agg, total = aggregate_encrypted(pk, [(cv, 1)])
    assert total == 1
    back = decrypt_params(sk, pk, codec, agg, total, w.arch)
    assert np.max(np.abs(back.values - w.values)) <= 0.5 / codec.scale


def test_aggregate_cancellation(key256):
    pk, sk = key256
    codec = FixedPointCodec(pk.n)
    w = _params([0.75, -1.5, 3.0])
    neg = ModelParams(w.arch, -w.values)
    rng = random.Random(6)
    agg, total = aggregate_encrypted(
        pk, [(encrypt_params(pk, codec, w, rng), 3), (encrypt_params(pk, codec, neg, rng), 3)]
    )
    back = decrypt_params(sk, pk, codec, agg, total, w.arch)
    assert np.max(np.abs(back.values)) <= 2 * 0.5 / codec.scale


def test_aggregate_matches_plaintext_weighted_mean(key256):
    pk, sk = key256
    codec = FixedPointCodec(pk.n)
    rng_np = np.random.default_rng(7)
    rng = random.Random(8)
    arch = ModelArch(9)
    updates, plain = [], []
    for _ in range(5):
        w = ModelParams(arch, rng_np.uniform(-5, 5, arch.param_count))
        count = int(rng_np.integers(1, 50))
        updates.append((encrypt_params(pk, codec, w, rng), count))
        plain.append((w.values, count))
    agg, total = aggregate_encrypted(pk, updates)
    back = decrypt_params(sk, pk, codec, agg, total, arch)
    expected = sum(v * c for v, c in plain) / total
    assert np.max(np.abs(back.values - expected)) < 1e-6


def test_aggregate_negative_signs_survive(key256):
    pk, sk = key256
    codec = FixedPointCodec(pk.n)
    w = _params([-0.5, -1e-3, -100.0])
    agg, total = aggregate_encrypted(
        pk, [(encrypt_params(pk, codec, w, random.Random(9)), 2)]
    )
    back = decrypt_params(sk, pk, codec, agg, total, w.arch)
    assert np.all(back.values < 0)
    assert np.max(np.abs(back.values - w.values)) <= 0.5 / codec.scale


def test_aggregate_validation(key256):
    pk, _ = key256
    with pytest.raises(InvalidInputError):
        aggregate_encrypted(pk, [])
    codec = FixedPointCodec(pk.n)
    cv = encrypt_params(pk, codec, _params([1.0, 2.0]), random.Random(0))
    short = CipherVector(cv.elements[:1], cv.key_bits)
    with pytest.raises(InvalidInputError):
        aggregate_encrypted(pk, [(cv, 1), (short, 1)])
    with pytest.raises(InvalidInputError):
        aggregate_encrypted(pk, [(cv, 0)])


def test_decrypt_params_validation(key256):
    pk, sk = key256
    codec = FixedPointCodec(pk.n)
    cv = encrypt_params(pk, codec, _params([1.0, 2.0]), random.Random(0))
    with pytest.raises(InvalidInputError):
        decrypt_params(sk, pk, codec, cv, 0, ModelArch(1))
    with pytest.raises(InvalidInputError):
        decrypt_params(sk, pk, codec, cv, 1, ModelArch(5))


# --- wire format -----------------------------------------------------------


def test_wire_roundtrip_bitwise(key256):
    pk, _ = key256
    codec = FixedPointCodec(pk.n)
    rng_np = np.random.default_rng(10)
    for _ in range(20):
        w = _params(rng_np.uniform(-10, 10, 7))
        cv = encrypt_params(pk, codec, w, random.Random(11))
        blob = serialize_cipher_vector(cv)
        back = deserialize_cipher_vector(blob)
        assert back.elements == cv.elements
        assert back.key_bits == cv.key_bits
        assert serialize_cipher_vector(back) == blob


def test_wire_format_layout():
    cv = CipherVector([0, 1, 256], key_bits=256)
    blob = serialize_cipher_vector(cv)
    assert blob[:4] == b"FCS1"
    assert int.from_bytes(blob[4:8], "big") == 256
    assert int.from_bytes(blob[8:12], "big") == 3
    assert deserialize_cipher_vector(blob).elements == [0, 1, 256]


def test_wire_format_rejects_garbage():
    cv = CipherVector([12345], key_bits=256)
    blob = serialize_cipher_vector(cv)
    with pytest.raises(InvalidInputError):
        deserialize_cipher_vector(b"NOPE" + blob[4:])
    with pytest.raises(InvalidInputError):
        deserialize_cipher_vector(blob[:-1])
    with pytest.raises(InvalidInputError):
        deserialize_cipher_vector(blob + b"\x00")


# --- key-holder CRT arithmetic -----------------------------------------------

_ODD_PRIMES = [p for p in range(3, 400) if all(p % d for d in range(2, math.isqrt(p) + 1))]
_SEEDED_KEYS = [keygen(256, seed=s) for s in (1, 2)] + [keygen(512, seed=3)]


def _valid_pair(pq):
    p, q = pq
    return p != q and math.gcd(p * q, (p - 1) * (q - 1)) == 1


_KEYS = st.one_of(
    st.just(TOY),
    st.sampled_from(_SEEDED_KEYS),
    st.tuples(st.sampled_from(_ODD_PRIMES), st.sampled_from(_ODD_PRIMES))
    .filter(_valid_pair)
    .map(lambda pq: keypair_from_primes(*pq)),
)


def _textbook_mu(sk, pk):
    return pow((pow(pk.g, sk.lam, pk.n_squared) - 1) // pk.n, -1, pk.n)


def _textbook_decrypt(sk, pk, c):
    # Paillier's L(c^lam mod n^2) * mu mod n, with mu from its definition
    return (pow(c, sk.lam, pk.n_squared) - 1) // pk.n * _textbook_mu(sk, pk) % pk.n


def test_toy_crt_decrypt_matches_textbook_on_every_unit():
    pk, sk = TOY
    units = [c for c in range(pk.n_squared) if math.gcd(c, pk.n) == 1]
    assert len(units) == 35 * 24  # n * phi(n) ciphertexts
    assert all(decrypt(sk, pk, c) == _textbook_decrypt(sk, pk, c) for c in units)


@settings(deadline=None)
@given(_KEYS)
def test_key_constants_match_definitions(key):
    pk, sk = key
    p, q = sk.p, sk.q
    assert sk.n == pk.n == p * q
    assert sk.lam == math.lcm(p - 1, q - 1)
    assert sk.mu == _textbook_mu(sk, pk)
    assert q * sk.q_inv_p % p == 1
    assert q * q * sk.q_squared_inv_p_squared % (p * p) == 1
    assert -q * sk.h_p % p == 1 and -p * sk.h_q % q == 1
    assert (sk.q_mod_p1, sk.p_mod_q1) == (q % (p - 1), p % (q - 1))


@settings(deadline=None)
@given(_KEYS, st.data())
def test_crt_decrypt_matches_textbook(key, data):
    pk, sk = key
    c = data.draw(st.integers(1, pk.n_squared - 1).filter(lambda c: math.gcd(c, pk.n) == 1))
    assert decrypt(sk, pk, c) == _textbook_decrypt(sk, pk, c)


@settings(deadline=None)
@given(_KEYS, st.data())
def test_crt_encrypt_matches_public_key_path(key, data):
    pk, sk = key
    m = data.draw(st.integers(0, pk.n - 1))
    seed = data.draw(st.integers(0, 2**32))
    c = encrypt(pk, m, random.Random(seed))
    assert encrypt(pk, m, random.Random(seed), sk=sk) == c
    assert decrypt(sk, pk, c) == m
    # a pinned r need not be a unit: r = 0 mod p must still agree
    r = data.draw(st.integers(0, pk.n_squared))
    pinned = encrypt(pk, m, random.Random(0), r_value=r)
    assert encrypt(pk, m, random.Random(0), r_value=r, sk=sk) == pinned


@settings(deadline=None)
@given(_KEYS, st.data())
def test_crt_encrypt_params_matches_public_key_path(key, data):
    pk, sk = key
    codec = FixedPointCodec(pk.n, scale=1)
    bound = pk.n // 4
    values = data.draw(st.lists(st.integers(-bound, bound), min_size=2, max_size=6))
    w = _params([float(v) for v in values])
    seed = data.draw(st.integers(0, 2**32))
    plain = encrypt_params(pk, codec, w, random.Random(seed))
    crt = encrypt_params(pk, codec, w, random.Random(seed), sk=sk)
    assert crt.elements == plain.elements
    assert crt.key_bits == plain.key_bits


def test_keypair_rejects_pair_sharing_a_factor_with_phi():
    with pytest.raises(InvalidInputError):
        keypair_from_primes(3, 7)  # gcd(21, 2 * 6) = 3


def test_mismatched_secret_key_rejected(key256):
    pk, _ = key256
    _, toy_sk = TOY
    c = encrypt(pk, 5, random.Random(0))
    with pytest.raises(InvalidInputError):
        decrypt(toy_sk, pk, c)
    with pytest.raises(InvalidInputError):
        encrypt(pk, 5, random.Random(0), sk=toy_sk)


# --- memo of the key holder's r^n -------------------------------------------


@st.composite
def _keys_and_randomisers(draw):
    pk, sk = draw(st.sampled_from([TOY] + _SEEDED_KEYS))
    n = pk.n
    pinned = st.sampled_from([0, 1, n - 1, sk.p, sk.q * 3, n, n + 1, n * n - 1])
    from_rng = st.integers(0, 2**32).map(lambda seed: random.Random(seed).randrange(1, n))
    rs = draw(st.lists(st.one_of(pinned, from_rng, st.integers(n, 2 * n * n)), max_size=4))
    return pk, sk, rs


@settings(deadline=None)
@given(st.lists(_keys_and_randomisers(), min_size=1, max_size=3))
def test_r_to_the_n_memo_matches_unmemoised(cases):
    # every key sees every key's r's, so an entry keyed on too little would leak
    rs = [r for _, _, key_rs in cases for r in key_rs]
    for pk, sk, _ in cases:
        for r in rs:
            expected = pow(r, pk.n, pk.n_squared)
            assert paillier._r_to_the_n.__wrapped__(sk, r) == expected
            assert paillier._r_to_the_n(sk, r) == expected
            assert paillier._r_to_the_n(sk, r) == expected  # served by the memo


def test_r_to_the_n_memo_separates_keys_sharing_a_prime():
    # (5, 11) is no Paillier key (gcd(55, 4 * 10) = 5), so (5, 13) shares p = 5
    (pk_a, sk_a), (pk_b, sk_b) = TOY, keypair_from_primes(5, 13)
    assert sk_a.p == sk_b.p
    paillier._r_to_the_n.cache_clear()
    for r in (2, 3, 12, 34):
        for pk, sk in ((pk_a, sk_a), (pk_b, sk_b), (pk_a, sk_a)):
            assert paillier._r_to_the_n(sk, r) == pow(r, pk.n, pk.n_squared)
    info = paillier._r_to_the_n.cache_info()
    assert (info.hits, info.misses) == (4, 8)
    assert info.maxsize == 1 << 17


def test_encrypt_reuses_the_memo_without_changing_ciphertexts(key256):
    pk, sk = key256
    paillier._r_to_the_n.cache_clear()
    first = [encrypt(pk, m, random.Random(9), sk=sk) for m in (0, 5, pk.n - 1)]
    info = paillier._r_to_the_n.cache_info()
    assert (info.hits, info.misses) == (2, 1)  # one r, three plaintexts
    assert first == [encrypt(pk, m, random.Random(9)) for m in (0, 5, pk.n - 1)]


# --- packed decryption of the aggregate ------------------------------------


def _slots(n, bound):
    # slots of bound.bit_length() + 1 bits, n.bit_length() - 2 bits per ciphertext
    return max(1, (n.bit_length() - 2) // (bound.bit_length() + 1))


def _decrypt_both_ways(key, sums, bound, divisor=1):
    """Encrypt the signed integers ``sums`` as an aggregate would hold them;
    return (packed decrypt_params values, per-element decrypt + decode_real
    values, decryptions the packed path made)."""
    pk, sk = key
    codec = FixedPointCodec(pk.n)
    rng = random.Random(len(sums))
    cv = CipherVector([encrypt(pk, v % pk.n, rng, sk=sk) for v in sums], pk.bits)
    arch = ModelArch(len(sums) - 1)
    with mock.patch.object(paillier, "decrypt", wraps=paillier.decrypt) as counted:
        packed = decrypt_params(sk, pk, codec, cv, divisor, arch, bound).values
    single = np.array([decode_real(codec, decrypt(sk, pk, c)) for c in cv.elements])
    return packed, single / divisor, counted.call_count


@st.composite
def _bounded_sums(draw):
    key = draw(_KEYS)
    limit = (key[0].n - 1) // 2  # the largest bound check_sum_headroom admits
    bound = draw(st.one_of(st.just(0), st.just(limit), st.integers(0, limit)))
    d = draw(st.integers(2, min(3 * _slots(key[0].n, bound) + 1, 40)))
    value = st.one_of(st.sampled_from([-bound, bound]), st.integers(-bound, bound))
    return key, bound, draw(st.lists(value, min_size=d, max_size=d))


@settings(deadline=None)
@given(_bounded_sums(), st.integers(1, 1000))
def test_packed_decrypt_matches_per_element(case, divisor):
    key, bound, sums = case
    packed, single, calls = _decrypt_both_ways(key, sums, bound, divisor)
    assert packed.tobytes() == single.tobytes()
    assert calls == -(-len(sums) // _slots(key[0].n, bound))


_KEY256 = keygen(256, seed=1234)
_N = _KEY256[0].n
_B50 = (1 << 50) - 1  # 51-bit slots: 4 per 256-bit ciphertext, 51 divides 255


@pytest.mark.parametrize(
    "bound, sums, calls",
    [
        ((_N - 1) // 2, [(_N - 1) // 2, -(_N - 1) // 2, 1 - _N // 2, 7], 4),  # s = 1
        (0, [0] * 9, 1),  # 254 one-bit slots
        (_B50, [_B50, -_B50, 3, -1, 0, _B50, -_B50 + 1, 2, -5, _B50], 3),  # 10 = 4 + 4 + 2
        (_B50, [_B50, _B50, _B50, -_B50] * 2 + [-_B50], 3),  # negative top slots
        (None, [_N // 2, -(_N // 2), _N // 2 - 1, 1 - _N // 2, 1, -1, 0], 7),  # no bound
    ],
    ids=["headroom-limit", "zero-bound", "ragged-groups", "negative-top-slot", "no-bound"],
)
def test_packed_decrypt_edge_cases(bound, sums, calls):
    packed, single, made = _decrypt_both_ways(_KEY256, sums, bound, divisor=3)
    assert packed.tobytes() == single.tobytes()
    assert packed.tolist() == [v / (1 << 40) / 3 for v in sums]
    assert made == calls


def test_packed_decrypt_validation():
    pk, sk = _KEY256
    codec = FixedPointCodec(pk.n)
    cv = encrypt_params(pk, codec, _params([1.0, 2.0]), random.Random(0))
    with pytest.raises(InvalidInputError, match="bound"):
        decrypt_params(sk, pk, codec, cv, 1, ModelArch(1), bound=-1)
    with pytest.raises(CryptoRangeError):
        decrypt_params(sk, pk, codec, CipherVector([1, pk.n_squared], 256), 1, ModelArch(1), 4)


# --- modular exponentiation backend -----------------------------------------


def _operand(max_bits):
    return st.integers(1, max_bits).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))


@settings(deadline=None)
@given(
    base=st.one_of(st.just(0), _operand(2048), _operand(2048).map(lambda v: -v)),
    exp=st.one_of(st.just(0), _operand(2048)),
    mod=_operand(2048),
)
def test_powmod_matches_builtin_pow(base, exp, mod):
    assert paillier._powmod(base, exp, mod) == pow(base, exp, mod)


_ODD_2048 = (1 << 2047) + 12345
_EVEN_2048 = (1 << 2047) * 3 // 2


@pytest.mark.parametrize(
    "base, exp, mod",
    [
        (5, 3, 1),  # modulus 1
        (0, 0, 1),
        (3, 5, 2),  # modulus 2
        (4, 5, 2),
        (0, 0, 2),
        (7, 12345, 1000),  # even moduli
        (3, (1 << 64) + 1, 1 << 64),
        (_ODD_2048, 65537, _EVEN_2048),
        (5, 0, 7),  # exponent 0
        (_ODD_2048, 0, _EVEN_2048),
        (0, 5, 7),  # base 0
        (0, _ODD_2048, _ODD_2048),
        (100, 3, 7),  # base >= modulus
        (7, 3, 7),
        (_EVEN_2048 + (1 << 2100), 65537, _ODD_2048),
        (-3, 5, 7),  # negative bases
        (-(1 << 1500), 3, _ODD_2048),
        (-_ODD_2048, 2, _ODD_2048 - 2),
        (_ODD_2048 - 1, 1 << 55, _ODD_2048),  # Horner's 2^k shifts
        (3, 1 << 1000, _EVEN_2048),
        (2, 3, -7),  # outside BN_mod_exp's domain, pow's semantics hold
        (3, -1, 7),
    ],
)
def test_powmod_edge_cases(base, exp, mod):
    assert paillier._powmod(base, exp, mod) == pow(base, exp, mod)


def test_powmod_rejects_modulus_zero_like_pow():
    with pytest.raises(ValueError):
        pow(3, 5, 0)
    with pytest.raises(ValueError):
        paillier._powmod(3, 5, 0)


@pytest.mark.parametrize("bits", [256, 1024])
def test_powmod_on_key_moduli(bits):
    pk, sk = keygen(bits, seed=77)
    rng = random.Random(bits)
    cases = [
        (sk.p, [sk.p - 1, sk.q_mod_p1]),
        (sk.p_squared, [sk.p, sk.p - 1]),
        (sk.q_squared, [sk.q, sk.q - 1]),
        (pk.n_squared, [pk.n, 1 << 54, 400, 1]),
    ]
    for mod, exps in cases:
        for exp in exps:
            bases = (rng.randrange(mod), rng.randrange(pk.n_squared), mod - 1, -rng.randrange(mod))
            for base in bases:
                assert paillier._powmod(base, exp, mod) == pow(base, exp, mod)


def test_powmod_threads_get_their_own_scratch():
    # the libcrypto call releases the GIL, so four threads run it at once
    pk, sk = keygen(1024, seed=78)
    rng = random.Random(4)
    moduli, exps = [pk.n_squared, sk.p_squared, sk.q_squared], [pk.n, sk.p, sk.q]
    jobs = [
        [(rng.randrange(pk.n_squared), rng.choice(exps), rng.choice(moduli)) for _ in range(40)]
        for _ in range(4)
    ]
    expected = [[pow(*job) for job in thread_jobs] for thread_jobs in jobs]
    results = [None] * 4

    def work(i):
        results[i] = [paillier._powmod(*job) for job in jobs[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == expected


def test_modexp_backend_named():
    backend = paillier.MODEXP_BACKEND
    if backend == "builtin pow":
        assert paillier._powmod is pow
    else:
        assert re.fullmatch(r"libcrypto\.so\.[\d.]+ \(OpenSSL \S+\)", backend), backend


# --- Montgomery contexts and the chained r^n --------------------------------

needs_libcrypto = pytest.mark.skipif(
    paillier.MODEXP_BACKEND == "builtin pow", reason="no libcrypto loaded"
)


def _fallback_backend():
    """The backend a process without libcrypto gets."""
    with mock.patch.object(paillier, "_LIBCRYPTO_SONAMES", ()):
        return paillier._libcrypto_powmod()


def _in_a_new_thread(work):
    # a new thread opens a new Scratch, with empty caches
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(work).result(timeout=120)


def test_fallback_backend_is_builtin_pow():
    name, powmod, crt_halves = _fallback_backend()
    assert (name, powmod, crt_halves) == ("builtin pow", pow, paillier._pow_crt_halves)


@functools.lru_cache(maxsize=None)
def _pow_r_to_the_n(n, r):
    return pow(r, n, n * n)


@pytest.mark.parametrize("backend", ["loaded", "builtin pow"])
@pytest.mark.parametrize("bits", KEY_BITS_CHOICES)
def test_chained_r_to_the_n_matches_pow(monkeypatch, bits, backend):
    pk, sk = keygen(bits, seed=79)
    n = pk.n
    rng = random.Random(bits)
    rs = [rng.randrange(1, n), rng.randrange(1, n), 0, 1, n - 1, -3,
          sk.p, sk.p * rng.randrange(1, sk.q), sk.q * 5,  # r = 0 mod p or mod q
          n, n + 1, sk.p * n + 2, rng.randrange(n, 2 * n * n)]  # r >= n
    if backend == "builtin pow":
        _, powmod, crt_halves = _fallback_backend()
        monkeypatch.setattr(paillier, "_powmod", powmod)
        monkeypatch.setattr(paillier, "_crt_halves", crt_halves)
    for r in rs:
        assert paillier._r_to_the_n.__wrapped__(sk, r) == _pow_r_to_the_n(n, r), r


@needs_libcrypto
@pytest.mark.parametrize("moduli_bound, exponents_bound", [(1, 1), (3, 2)])
def test_caches_evict_past_their_bound_with_pow_integers(
    monkeypatch, moduli_bound, exponents_bound
):
    monkeypatch.setattr(paillier, "_MONT_CACHE_SIZE", moduli_bound)
    monkeypatch.setattr(paillier, "_EXPONENT_CACHE_SIZE", exponents_bound)
    rng = random.Random(moduli_bound)
    odd = [rng.getrandbits(bits) | 1 | 1 << (bits - 1) for bits in (64, 255, 1024, 2048)]
    moduli = [3, 7, *odd]
    keys = [TOY, *_SEEDED_KEYS]

    def work():
        scratch = paillier._powmod.scratch()
        for _ in range(3):  # every modulus and key comes back after its eviction
            for mod in moduli:
                base, exp = rng.randrange(-mod, 2 * mod), rng.getrandbits(300)
                assert paillier._powmod(base, exp, mod) == pow(base, exp, mod)
                assert len(scratch.moduli) <= moduli_bound
            for pk, sk in keys:
                r = rng.randrange(2 * pk.n)
                assert paillier._crt_halves(r, sk) == paillier._pow_crt_halves(r, sk)
                assert paillier._r_to_the_n.__wrapped__(sk, r) == pow(r, pk.n, pk.n_squared)
                assert len(scratch.moduli) <= moduli_bound
                assert len(scratch.exponents) <= exponents_bound
        return len(scratch.moduli), len(scratch.exponents)

    assert _in_a_new_thread(work) == (moduli_bound, exponents_bound)


@needs_libcrypto
def test_scratch_close_twice_is_safe():
    pk, sk = _SEEDED_KEYS[0]

    def work():
        scratch = paillier._powmod.scratch()
        assert paillier._powmod(3, 5, 7) == 5
        assert paillier._powmod(3, 5, 8) == 3
        assert paillier._r_to_the_n.__wrapped__(sk, 2) == pow(2, pk.n, pk.n_squared)
        assert len(scratch.moduli) == 5  # 7, p, p^2, q, q^2
        assert len(scratch.exponents) == len({sk.q_mod_p1, sk.p, sk.p_mod_q1, sk.q})
        scratch.close()
        scratch.close()
        assert (len(scratch.moduli), len(scratch.exponents), scratch.nums, scratch.ctx) == (
            0, 0, [], None)
        # the thread's next call opens a new Scratch
        assert paillier._powmod(3, 5, 7) == 5
        assert paillier._powmod.scratch() is not scratch

    _in_a_new_thread(work)


@needs_libcrypto
@pytest.mark.parametrize(
    "name, mod, message",
    [
        ("BN_mod_exp_mont", 7, "BN_mod_exp failed, 3-bit modulus"),
        ("BN_MONT_CTX_set", 7, "BN_MONT_CTX_set failed, 3-bit modulus"),
    ],
)
def test_libcrypto_failure_is_a_numeric_error(monkeypatch, name, mod, message):
    loaded = ctypes.CDLL

    def failing(soname, *args, **kwargs):
        lib = loaded(soname, *args, **kwargs)
        setattr(lib, name, mock.Mock(return_value=0))  # reports failure
        return lib

    monkeypatch.setattr(ctypes, "CDLL", failing)
    _, powmod, crt_halves = paillier._libcrypto_powmod()
    with pytest.raises(NumericError, match=f"^libcrypto {message}$"):
        powmod(3, 5, mod)
    with pytest.raises(NumericError):
        crt_halves(2, TOY[1])
