import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfed.errors import CryptoRangeError, InvalidInputError
from crossfed.models import (
    LabeledDataset,
    ModelArch,
    ModelParams,
    TrainConfig,
    init_params,
    local_train,
)
from crossfed.paillier import FixedPointCodec, decode_real, encode_real
from crossfed.privacy import (
    SMC_FIELD_PRIME,
    SMC_SCALE,
    DpConfig,
    ShareBundle,
    clip_update,
    dp_privatize,
    gaussian_delta,
    gaussian_sigma,
    membership_advantage,
    reconstruct_field_sum,
    reconstruct_sum,
    share,
)


# --- clipping --------------------------------------------------------------


def test_clip_short_vector_unchanged():
    v = np.array([0.3, -0.4])
    np.testing.assert_array_equal(clip_update(v, 1.0), v)


def test_clip_three_four_five():
    np.testing.assert_allclose(clip_update([3.0, 4.0], 1.0), [0.6, 0.8], atol=1e-15)


def test_clip_norm_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=20) * rng.uniform(0.1, 10)
        c = rng.uniform(0.5, 5.0)
        clipped = np.linalg.norm(clip_update(v, c))
        assert abs(clipped - min(np.linalg.norm(v), c)) < 1e-12


def test_clip_zero_vector_passes():
    np.testing.assert_array_equal(clip_update(np.zeros(4), 2.0), np.zeros(4))


# --- gaussian calibration ----------------------------------------------------


def test_sigma_algebraic_identity():
    # delta = 1.25/e^2 makes the log term 2, so sigma = C * 2 / eps
    delta = 1.25 / math.e**2
    assert abs(gaussian_sigma(1.0, 2.0, delta) - 1.0) < 1e-12


def test_sigma_inverse_in_epsilon():
    assert gaussian_sigma(1.0, 1.0, 1e-5) / gaussian_sigma(1.0, 2.0, 1e-5) == 2.0


def test_sigma_reference_value():
    assert abs(gaussian_sigma(1.0, 1.0, 1e-5) - math.sqrt(2 * math.log(125000.0))) < 1e-12
    assert abs(gaussian_sigma(1.0, 1.0, 1e-5) - 4.844) < 1e-3


def _exact_gaussian_delta(sigma, eps, sensitivity):
    # the exact privacy curve of the Gaussian mechanism (Balle & Wang 2018, Thm 8):
    # delta = Phi(D/2s - eps*s/D) - e^eps * Phi(-D/2s - eps*s/D)
    def phi(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    a, b = sensitivity / (2.0 * sigma), eps * sigma / sensitivity
    return phi(a - b) - math.exp(eps) * phi(-a - b)


@pytest.mark.parametrize(
    "eps, exact",
    [(0.5, 1.6e-8), (1.0, 4.1e-8), (2.0, 1.3e-7), (4.0, 6.8e-7), (8.0, 8.0e-6)],
)
def test_classical_sigma_meets_delta_on_the_exact_curve(eps, exact):
    # the classical bound is proved only for eps < 1; the exact curve shows
    # it still meets delta = 1e-5 at every swept eps, with little margin at 8
    delta = _exact_gaussian_delta(gaussian_sigma(1.0, eps, 1e-5), eps, 1.0)
    assert delta < 1e-5
    assert delta == pytest.approx(exact, rel=0.05)
    # scaling the clip norm scales sigma and the sensitivity alike
    assert _exact_gaussian_delta(gaussian_sigma(3.0, eps, 1e-5), eps, 3.0) == pytest.approx(delta)
    # and the check can fail: half the noise breaks delta
    assert _exact_gaussian_delta(gaussian_sigma(1.0, eps, 1e-5) / 2, eps, 1.0) > 1e-5


@pytest.mark.parametrize(
    "eps, exact",
    [(0.5, 1.6e-8), (1.0, 4.1e-8), (2.0, 1.3e-7), (4.0, 6.8e-7), (8.0, 8.0e-6)],
)
def test_gaussian_delta_pinned_values(eps, exact):
    sigma = gaussian_sigma(1.0, eps, 1e-5)
    assert gaussian_delta(sigma, eps, 1.0) == pytest.approx(exact, rel=0.05)
    assert gaussian_delta(sigma, eps, 1.0) == pytest.approx(
        _exact_gaussian_delta(sigma, eps, 1.0), rel=1e-12
    )
    assert gaussian_delta(3.0 * sigma, eps, 3.0) == pytest.approx(gaussian_delta(sigma, eps, 1.0))


_SIGMA = st.floats(0.05, 50.0)
_EPS = st.floats(0.0, 20.0)
_STEP = st.floats(1e-3, 10.0)


@settings(deadline=None)
@given(_SIGMA, _EPS, st.floats(0.1, 10.0), _STEP)
def test_gaussian_delta_falls_as_sigma_grows(sigma, eps, sensitivity, step):
    low = gaussian_delta(sigma, eps, sensitivity)
    high = gaussian_delta(sigma * (1.0 + step), eps, sensitivity)
    assert 0.0 <= high <= low <= 1.0
    assert high < low or low in (0.0, 1.0)  # flat only where it saturates


@settings(deadline=None)
@given(_SIGMA, _EPS, st.floats(0.1, 10.0), _STEP)
def test_gaussian_delta_falls_as_epsilon_grows(sigma, eps, sensitivity, step):
    low = gaussian_delta(sigma, eps, sensitivity)
    high = gaussian_delta(sigma, eps + step, sensitivity)
    assert 0.0 <= high <= low <= 1.0
    assert high < low or low in (0.0, 1.0)  # flat only where it saturates


@settings(deadline=None)
@given(st.floats(1e-3, 0.999), st.floats(1e-12, 0.3), st.floats(0.1, 10.0))
def test_classical_calibration_meets_delta_below_epsilon_one(eps, delta, clip_norm):
    # the range where Dwork and Roth prove the classical bound
    sigma = gaussian_sigma(clip_norm, eps, delta)
    assert gaussian_delta(sigma, eps, clip_norm) <= delta


def test_gaussian_delta_rejects_bad_ranges():
    for args in [(0.0, 1.0, 1.0), (1.0, -0.5, 1.0), (1.0, 1.0, 0.0), (math.nan, 1.0, 1.0),
                 (1.0, math.inf, 1.0)]:
        with pytest.raises(InvalidInputError):
            gaussian_delta(*args)


def test_sigma_rejects_bad_ranges():
    with pytest.raises(InvalidInputError):
        gaussian_sigma(1.0, 0.0, 1e-5)
    with pytest.raises(InvalidInputError):
        gaussian_sigma(1.0, 1.0, 1.5)
    with pytest.raises(InvalidInputError):
        gaussian_sigma(-1.0, 1.0, 1e-5)


def test_privatize_vanishing_noise_limit():
    cfg = DpConfig(epsilon=1e9, clip_norm=1.0)
    v = np.array([3.0, 4.0])
    out = dp_privatize(v, cfg, np.random.default_rng(1))
    assert np.max(np.abs(out - clip_update(v, 1.0))) < 1e-6


def test_privatize_noise_calibration():
    cfg = DpConfig(epsilon=2.0, clip_norm=1.0)
    sigma = gaussian_sigma(1.0, 2.0, cfg.delta)
    rng = np.random.default_rng(2)
    noise = dp_privatize(np.zeros(100_000), cfg, rng)
    assert abs(np.std(noise) - sigma) / sigma < 0.05


def test_privatize_seed_sensitivity():
    cfg = DpConfig(epsilon=1.0, clip_norm=1.0)
    a = dp_privatize(np.ones(8), cfg, np.random.default_rng(1))
    b = dp_privatize(np.ones(8), cfg, np.random.default_rng(2))
    assert not np.array_equal(a, b)


def test_budget_composition_is_linear():
    cfg = DpConfig(epsilon=0.25, clip_norm=1.0, rounds=40)
    assert cfg.total_epsilon == 40 * 0.25


def test_dp_config_validation():
    with pytest.raises(InvalidInputError):
        DpConfig(epsilon=0.0, clip_norm=1.0)
    with pytest.raises(InvalidInputError):
        DpConfig(epsilon=1.0, clip_norm=-1.0)
    with pytest.raises(InvalidInputError):
        DpConfig(epsilon=1.0, clip_norm=1.0, delta=0.0)


# --- additive sharing --------------------------------------------------------


def test_share_roundtrip_single_node():
    rng = np.random.default_rng(3)
    update = rng.uniform(-4, 4, 12)
    bundle = share(update, SMC_SCALE, 2, rng)
    back = reconstruct_sum([bundle])
    assert np.max(np.abs(back - update)) <= 0.5 / SMC_SCALE


def test_share_cancellation():
    rng = np.random.default_rng(4)
    update = rng.uniform(-2, 2, 6)
    bundles = [share(update, SMC_SCALE, 3, rng), share(-update, SMC_SCALE, 3, rng)]
    assert np.max(np.abs(reconstruct_sum(bundles))) <= 2 * 0.5 / SMC_SCALE


def test_share_five_nodes_matches_plaintext_sum():
    rng = np.random.default_rng(5)
    updates = [rng.uniform(-10, 10, 30) for _ in range(5)]
    bundles = [share(u, SMC_SCALE, 4, rng) for u in updates]
    back = reconstruct_sum(bundles)
    assert np.max(np.abs(back - sum(updates))) <= 5 * 0.5 / SMC_SCALE


def test_field_reconstruction_is_exact():
    # integer multiples of 1/scale reconstruct with no tolerance at all
    rng = np.random.default_rng(6)
    scale = SMC_SCALE
    ints = rng.integers(-(10**6), 10**6, size=(3, 8))
    bundles = [share(row / scale, scale, 5, rng) for row in ints]
    totals = reconstruct_field_sum(bundles)
    expected = [int(s) % SMC_FIELD_PRIME for s in ints.sum(axis=0)]
    assert totals == expected


def test_share_marginal_uniformity():
    # coarse check: 16 equal buckets each get 4%-9% of 1e5 first-share draws
    rng = np.random.default_rng(7)
    draws = []
    for _ in range(100):
        bundle = share(np.zeros(1000), SMC_SCALE, 2, rng)
        draws.extend(bundle.shares[0].tolist())
    buckets = np.bincount(
        [d * 16 // SMC_FIELD_PRIME for d in draws], minlength=16
    ) / len(draws)
    assert np.all(buckets >= 0.04) and np.all(buckets <= 0.09)


def test_share_validation():
    rng = np.random.default_rng(8)
    with pytest.raises(InvalidInputError):
        share(np.ones(3), SMC_SCALE, 1, rng)
    with pytest.raises(CryptoRangeError):
        share(np.array([2.0**60]), SMC_SCALE, 2, rng)
    a = share(np.ones(3), SMC_SCALE, 2, rng)
    b = share(np.ones(3), SMC_SCALE, 3, rng)
    with pytest.raises(InvalidInputError):
        reconstruct_sum([a, b])
    with pytest.raises(InvalidInputError):
        reconstruct_sum([])


# --- sharing against the Python-int implementation it replaced ---------------


def _oracle_share(update, scale, num_parties, rng):
    p = SMC_FIELD_PRIME
    codec = FixedPointCodec(p, scale)
    encoded = [encode_real(codec, x) for x in update.tolist()]
    first = rng.integers(0, p, size=(num_parties - 1, update.size)).tolist()
    last = [(e - sum(column)) % p for e, column in zip(encoded, zip(*first))]
    return first + [last]


def _oracle_field_sum(share_rows):
    rows = [row for rows in share_rows for row in rows]
    return [sum(column) % SMC_FIELD_PRIME for column in zip(*rows)]


def _largest_encodable(scale):
    # the largest float whose scaled value stays below p/2 = 2^60 - 1/2
    return float(np.nextafter(2.0**60, 0.0)) / scale


_SCALES = st.sampled_from([1, SMC_SCALE, 1 << 40])


def _coordinates(scale):
    top = _largest_encodable(scale)
    # the extremes, ties that round half to even, and arbitrary reals
    pinned = [top, -top, 0.0, -0.0, 0.5 / scale, -0.5 / scale, 1.5 / scale,
              -2.5 / scale, (2.0**53 - 1.0) / scale]
    return st.one_of(st.sampled_from(pinned), st.floats(-top, top))


@settings(deadline=None, max_examples=200)
@given(
    _SCALES.flatmap(lambda scale: st.tuples(
        st.just(scale),
        st.integers(1, 6).flatmap(lambda d: st.lists(
            st.lists(_coordinates(scale), min_size=d, max_size=d), min_size=1, max_size=4)),
    )),
    st.integers(2, 16),
    st.integers(0, 2**32),
)
def test_share_and_sums_equal_python_int_oracle(scaled_nodes, parties, seed):
    scale, nodes = scaled_nodes
    updates = [np.array(n, dtype=np.float64) for n in nodes]
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    bundles = [share(u, scale, parties, rng) for u in updates]
    expected = [_oracle_share(u, scale, parties, oracle_rng) for u in updates]
    for bundle, rows in zip(bundles, expected):
        assert bundle.shares.dtype == np.int64 and bundle.shares.shape == (parties, len(nodes[0]))
        assert bundle.shares.tolist() == rows
    totals = _oracle_field_sum(expected)
    assert reconstruct_field_sum(bundles) == totals
    codec = FixedPointCodec(SMC_FIELD_PRIME, scale)
    decoded = np.array([decode_real(codec, t) for t in totals], dtype=np.float64)
    assert reconstruct_sum(bundles).tobytes() == decoded.tobytes()


@pytest.mark.parametrize("parties, nodes", [(2, 1), (8, 1), (16, 16)])
def test_field_sum_of_largest_residues_is_exact(parties, nodes):
    # every residue at p - 1: the largest sums any reduction schedule must hold
    p = SMC_FIELD_PRIME
    top = np.full((parties, 3), p - 1, dtype=np.int64)
    bundles = [ShareBundle(p, SMC_SCALE, top) for _ in range(nodes)]
    assert reconstruct_field_sum(bundles) == [parties * nodes * (p - 1) % p] * 3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308, 2.0**60, -(2.0**60)])
def test_share_raises_encode_real_error_for_first_bad_coordinate(bad):
    # 1e308 is finite but inf once scaled; 2^60 / scale is p/2 once scaled
    value = bad if bad == 1e308 or not math.isfinite(bad) else bad / SMC_SCALE
    codec = FixedPointCodec(SMC_FIELD_PRIME, SMC_SCALE)
    with pytest.raises(CryptoRangeError) as expected:
        encode_real(codec, value)
    later = math.nan if not math.isnan(value) else math.inf  # a different message
    update = np.array([0.25, _largest_encodable(SMC_SCALE), value, later, 1.0])
    with pytest.raises(CryptoRangeError) as raised:
        share(update, SMC_SCALE, 3, np.random.default_rng(0))
    assert str(raised.value) == str(expected.value)


def test_share_bundle_validation():
    p = SMC_FIELD_PRIME
    good = np.array([[0, 1], [p - 1, 2]], dtype=np.int64)
    ShareBundle(p, SMC_SCALE, good)
    bad_shares = [
        ((0, 1), (2, 3)),  # tuples, not an array
        good.astype(np.float64),
        good.astype(np.uint64),
        good[0],  # 1-D
        good[:1],  # one row
        np.array([[0, -1], [0, 0]], dtype=np.int64),
        np.array([[0, p], [0, 0]], dtype=np.int64),
    ]
    for shares in bad_shares:
        with pytest.raises(InvalidInputError):
            ShareBundle(p, SMC_SCALE, shares)
    with pytest.raises(InvalidInputError):
        ShareBundle((1 << 62) + 1, SMC_SCALE, good)  # above the field bound
    with pytest.raises(InvalidInputError, match="power of two"):
        ShareBundle(p, 3, good)
    with pytest.raises(InvalidInputError):
        share(np.ones(2), 3, 2, np.random.default_rng(0))  # scale not a power of two


# --- membership inference ----------------------------------------------------


def _random_sets(rng, n=1000, dim=4):
    members = LabeledDataset(rng.normal(size=(n, dim)), rng.integers(0, 2, n))
    nonmembers = LabeledDataset(rng.normal(size=(n, dim)), rng.integers(0, 2, n))
    return members, nonmembers


def test_null_attack_has_small_advantage():
    rng = np.random.default_rng(9)
    members, nonmembers = _random_sets(rng)
    model = ModelParams(ModelArch(4), rng.normal(size=5) * 0.3)
    assert membership_advantage(model, members, nonmembers) <= 0.1


def test_overfit_model_is_exposed():
    # high input dimension makes memorization decisive: member logits are
    # large while fresh points stay near the uncertain p = 0.5 band
    rng = np.random.default_rng(10)
    members = LabeledDataset(rng.normal(size=(10, 400)), rng.integers(0, 2, 10))
    nonmembers = LabeledDataset(rng.normal(size=(500, 400)), rng.integers(0, 2, 500))
    overfit, _ = local_train(
        init_params(ModelArch(400), 0), members, TrainConfig(0.5, 200, 10, 0)
    )
    assert membership_advantage(overfit, members, nonmembers) >= 0.5


def test_advantage_in_unit_interval():
    rng = np.random.default_rng(11)
    for _ in range(10):
        members, nonmembers = _random_sets(rng, n=50)
        model = ModelParams(ModelArch(4), rng.normal(size=5))
        assert 0.0 <= membership_advantage(model, members, nonmembers) <= 1.0


def test_advantage_rejects_empty_sets():
    rng = np.random.default_rng(12)
    members, _ = _random_sets(rng, n=5)
    empty = LabeledDataset(np.zeros((0, 4)), np.zeros(0, dtype=int))
    model = ModelParams(ModelArch(4), np.zeros(5))
    with pytest.raises(InvalidInputError):
        membership_advantage(model, members, empty)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
def test_share_rejects_non_finite(bad):
    # 1e308 is finite but overflows to inf once scaled
    rng = np.random.default_rng(9)
    with pytest.raises(CryptoRangeError):
        share(np.array([0.5, bad]), SMC_SCALE, 2, rng)


# --- field boundary ----------------------------------------------------------

_FIELD_BOUND = 1 << 60  # shares hold |x| * scale < field_prime / 2 = 2^60 - 1/2
# integers below 2^60 that float64 holds exactly, so x * scale is exact
_IN_RANGE = st.builds(
    lambda m, e: m << e, st.integers(-(1 << 53) + 1, (1 << 53) - 1), st.integers(0, 7)
)


@settings(deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda d: st.lists(st.lists(_IN_RANGE, min_size=d, max_size=d), min_size=1, max_size=5)
    ),
    st.integers(2, 5),
    st.integers(0, 2**32),
)
def test_share_reconstructs_exact_sum_below_field_bound(nodes, parties, seed):
    rng = np.random.default_rng(seed)
    bundles = [share(np.array(n, dtype=np.float64) / SMC_SCALE, SMC_SCALE, parties, rng)
               for n in nodes]
    totals = reconstruct_field_sum(bundles)
    sums = [sum(column) for column in zip(*nodes)]
    assert totals == [s % SMC_FIELD_PRIME for s in sums]
    if all(abs(s) < _FIELD_BOUND for s in sums):  # then the signed decode is exact too
        half = SMC_FIELD_PRIME // 2
        assert [t - SMC_FIELD_PRIME if t > half else t for t in totals] == sums
        assert np.array_equal(reconstruct_sum(bundles), np.array(sums, dtype=np.float64) / SMC_SCALE)


@settings(deadline=None)
@given(st.integers(_FIELD_BOUND, 1 << 70), st.sampled_from([1, -1]), st.integers(0, 7))
def test_share_rejects_node_at_field_bound(magnitude, sign, position):
    update = np.zeros(8)
    update[position] = sign * float(magnitude) / SMC_SCALE
    with pytest.raises(CryptoRangeError):
        share(update, SMC_SCALE, 2, np.random.default_rng(0))
