"""Transforms: trivial values, round trips, Plancherel, fast-vs-naive, shifts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtiframes import (
    Signal,
    Spectrum,
    character_column,
    constant_signal,
    delta_signal,
    dft,
    dft_naive,
    idft,
    idft_naive,
    inner,
    make_group,
    random_signal,
    subgroup_from_generators,
)
from gtiframes.fourier import _roll
from gtiframes.systems import translate


def test_delta_transforms_to_ones():
    g = make_group([7])
    spec = dft(delta_signal(g))
    assert np.allclose(spec.values, 1.0)


def test_constant_transforms_to_scaled_delta():
    g = make_group([6])
    spec = dft(constant_signal(g))
    expected = np.zeros(6)
    expected[0] = 6.0
    assert np.allclose(spec.values, expected, atol=1e-12)


def test_inverse_of_ones_is_delta():
    g = make_group([5])
    f = idft(Spectrum(g, np.ones(5)))
    assert np.allclose(f.values, delta_signal(g).values, atol=1e-12)


def test_inverse_of_scaled_delta_is_constant():
    g = make_group([6])
    spec = np.zeros(6)
    spec[0] = 6.0
    f = idft(Spectrum(g, spec))
    assert np.allclose(f.values, 1.0, atol=1e-12)


def test_roundtrip_product_group():
    g = make_group([8, 3])
    f = random_signal(g, 2)
    back = idft(dft(f))
    assert np.abs(back.values - f.values).max() < 1e-10 * np.abs(f.values).max()


def test_fast_matches_naive_z12():
    g = make_group([12])
    f = random_signal(g, 4)
    fast = dft(f).values
    naive = dft_naive(f).values
    assert np.abs(fast - naive).max() < 1e-10 * np.abs(naive).max()


@pytest.mark.parametrize(
    "orders",
    [(4,), (12,), (30,), (64,), (101,), (128,), (2, 4), (3, 3), (8, 3), (2, 2, 2), (6, 10)],
)
def test_fast_matches_naive_and_numpy(orders):
    g = make_group(orders)
    f = random_signal(g, sum(orders))
    fast = dft(f).values
    naive = dft_naive(f).values
    via_numpy = np.fft.fftn(f.values.reshape(orders)).reshape(-1)
    scale = np.abs(naive).max()
    assert np.abs(fast - naive).max() < 1e-9 * scale
    assert np.abs(fast - via_numpy).max() < 1e-9 * scale
    back = idft_naive(dft(f))
    assert np.abs(back.values - f.values).max() < 1e-10


@given(st.sampled_from([(4,), (6,), (9,), (2, 4), (3, 5)]), st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_plancherel(orders, seed):
    g = make_group(orders)
    f = random_signal(g, seed)
    h = random_signal(g, seed + 1)
    lhs = inner(f, h)
    rhs = complex(np.vdot(dft(h).values, dft(f).values)) / g.size
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_translation_is_phase_multiplier():
    g = make_group([2, 6])
    f = random_signal(g, 11)
    gamma = (1, 4)
    symbol = character_column(g, gamma).conj()
    shifted = idft(Spectrum(g, symbol * dft(f).values))
    direct = translate(gamma, f)
    assert np.abs(shifted.values - direct.values).max() < 1e-10


def test_shift_spectrum_indexing():
    g = make_group([4, 3])
    spec = dft(random_signal(g, 8))
    shifted = Spectrum(g, _roll(spec.values, g, (1, 2)))
    for xi in g.elements():
        assert shifted[xi] == pytest.approx(spec[g.add(xi, (1, 2))])


def test_signal_length_validation():
    g = make_group([4])
    with pytest.raises(ValueError, match="length"):
        Signal(g, np.zeros(5))
    with pytest.raises(ValueError, match="group mismatch"):
        inner(random_signal(make_group([2, 2]), 0), random_signal(g, 0))


def test_indicator_window_spectrum():
    g = make_group([8])
    sub = subgroup_from_generators(g, [(2,)])
    from gtiframes import indicator_signal

    spec = dft(indicator_signal(g, sub))
    # Indicator of a subgroup transforms to |Gamma| on the annihilator.
    for i in range(g.size):
        expected = 4.0 if i in sub.annihilator.indices else 0.0
        assert spec.values[i] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("orders, inverse", [((1024,), False), ((16, 64), False),
                                             ((4, 6, 8), True)],
                         ids=["Z1024", "Z16xZ64", "Z4xZ6xZ8-inverse"])
def test_transform_in_place_allocates_nothing_and_matches(orders, inverse):
    # A stack of 32 windows transformed into itself equals the copying transform bit
    # for bit, and holds no second stack: numpy.fft runs each line through its own
    # buffer, a few KiB.
    import tracemalloc

    from gtiframes.fourier import _transform

    g = make_group(list(orders))
    rng = np.random.default_rng(g.size)
    values = rng.standard_normal((2, 16, g.size)) + 1j * rng.standard_normal((2, 16, g.size))
    expected = _transform(values, g, inverse=inverse)
    tracemalloc.start()
    try:
        got = _transform(values, g, inverse=inverse, out=values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(got, values)
    assert got.tobytes() == expected.tobytes()
    assert peak < values.nbytes // 16


@pytest.mark.parametrize("orders", [(12,), (4, 6), (1024,)], ids=["Z12", "Z4xZ6", "Z1024"])
def test_random_signal_draws_real_then_imaginary_parts(orders):
    # The draw layout every seeded corpus rests on, by seed and from one shared Generator.
    g = make_group(orders)
    shared, ref_shared = np.random.default_rng(99), np.random.default_rng(99)
    for seed in range(20):
        for got, rng in ((random_signal(g, seed), np.random.default_rng(seed)),
                         (random_signal(g, shared), ref_shared)):
            want = (rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)) / np.sqrt(2.0)
            assert got.values.tobytes() == want.tobytes()
