import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfed import paillier
from crossfed.errors import CryptoRangeError, InvalidInputError
from crossfed.models import ModelArch, ModelParams
from crossfed.paillier import (
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
