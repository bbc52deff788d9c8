"""Operators and constructors: unitarity, spectral identities, expansions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtiframes import (
    StructureMismatchError,
    automorphism_from_matrix,
    delta_signal,
    dft,
    full_subgroup,
    identity_automorphism,
    make_group,
    random_signal,
    require_matching_structure,
    subgroup_from_generators,
    gabor_system,
    wavelet_system,
    wavepacket_system,
)
from gtiframes.systems import (
    GtiLayer,
    SuperSystemDescriptor,
    Verdict,
    WeightedGenerator,
    Witness,
    dilate,
    modulate,
    translate,
)

from helpers import as_member_set, loop_character_column, loop_expansion, system_members

# (orders, translation generators, modulation generators, dilation matrices
# besides the identity) for the bit-identity checks of the expansions.
EXPANSION_CASES = [
    ((8,), [(2,)], [(4,)], [[[3]], [[5]]]),
    ((12,), [(3,)], [(4,)], [[[5]], [[7]]]),
    ((2, 4), [(1, 0)], [(0, 2)], [[[1, 1], [0, 1]]]),
    ((3, 3), [(1, 0)], [(0, 1)], [[[1, 1], [0, 1]]]),
    ((4, 4), [(2, 0)], [(0, 1), (2, 2)], [[[1, 1], [0, 1]], [[3, 0], [0, 1]]]),
    ((1024,), [(16,)], [(32,)], [[[3]]]),
    # Characters repeat along axis m with period n_m / gcd(n_m, xi_m of every chi):
    # (4, 4) on Z12xZ8, (3, 2) on Z6xZ10, (1, 1) for the trivial Lambda and the
    # orders (4, 6) for the whole group.
    ((12, 8), [(2, 0)], [(3, 2)], [[[1, 3], [0, 1]], [[5, 0], [2, 1]]]),
    ((6, 10), [(0, 2)], [(2, 0), (0, 5)], [[[1, 3], [0, 1]], [[1, 0], [5, 3]]]),
    ((6, 4), [(2, 0)], [], [[[1, 3], [2, 1]]]),
    ((4, 6), [(1, 0)], [(1, 0), (0, 1)], [[[1, 2], [3, 1]]]),
]


class TestOperators:
    def test_translate_identity_and_delta(self):
        g = make_group([4])
        f = random_signal(g, 0)
        assert np.array_equal(translate((0,), f).values, f.values)
        assert np.allclose(translate((1,), delta_signal(g)).values, delta_signal(g, (1,)).values)

    def test_modulate_identity_and_z2(self):
        g2 = make_group([2])
        f = np.array([2.0, 3.0])
        out = modulate((1,), type(delta_signal(g2))(g2, f))
        assert np.allclose(out.values, [2.0, -3.0])

    @given(st.sampled_from([(5,), (8,), (2, 4), (3, 3)]), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_unitarity(self, orders, seed):
        g = make_group(orders)
        rng = np.random.default_rng(seed)
        f = random_signal(g, seed)
        gamma = tuple(int(rng.integers(n)) for n in g.orders)
        chi = tuple(int(rng.integers(n)) for n in g.orders)
        assert translate(gamma, f).norm() == pytest.approx(f.norm(), abs=1e-12)
        assert modulate(chi, f).norm() == pytest.approx(f.norm(), abs=1e-12)

    def test_translate_spectral_identity(self):
        g = make_group([6])
        f = random_signal(g, 1)
        gamma = (2,)
        lhs = dft(translate(gamma, f)).values
        from gtiframes import character_column

        rhs = character_column(g, gamma).conj() * dft(f).values
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_modulate_spectral_identity(self):
        g = make_group([2, 4])
        f = random_signal(g, 2)
        chi = (1, 3)
        lhs = dft(modulate(chi, f)).values
        rhs_spec = dft(f)
        # Spectrum is shifted: value at xi equals old value at xi - chi.
        for xi in g.elements():
            assert lhs[g.index_of(xi)] == pytest.approx(rhs_spec[g.sub(xi, chi)], abs=1e-10)

    def test_dilate_identity_and_permutation(self):
        g = make_group([5])
        f = random_signal(g, 3)
        assert np.array_equal(dilate(identity_automorphism(g), f).values, f.values)
        a = automorphism_from_matrix(g, [[2]])
        out = dilate(a, delta_signal(g, (1,)))
        assert out[(3,)] == pytest.approx(1.0)
        assert dilate(a, f).norm() == pytest.approx(f.norm(), abs=1e-12)

    def test_dilate_spectral_identity(self):
        g = make_group([7])
        f = random_signal(g, 4)
        a = automorphism_from_matrix(g, [[3]])
        lhs = dft(dilate(a, f))
        rhs = dft(f)
        for xi in g.elements():
            pulled = a.parent.element_at(int(a.adjoint_inv_perm[g.index_of(xi)]))
            assert lhs[xi] == pytest.approx(rhs[pulled], abs=1e-10)


class TestConstructors:
    def test_gabor_trivial(self):
        g = make_group([4])
        sys = gabor_system([[delta_signal(g)]], full_subgroup(g),
                           subgroup_from_generators(g, []))
        assert len(sys.layers) == 1
        assert len(sys.layers[0].generators) == 1
        assert np.allclose(sys.layers[0].generators[0].windows[0].values,
                           delta_signal(g).values)

    def test_gabor_generator_count(self):
        g = make_group([4])
        lat = subgroup_from_generators(g, [(2,)])
        sys = gabor_system([[random_signal(g, 0)]], lat, lat)
        assert len(sys.layers) == 1
        assert len(sys.layers[0].generators) == 2  # |J| * |Lambda| = 1 * 2

    def test_gabor_channels(self):
        g = make_group([4])
        win = [(random_signal(g, 0), random_signal(g, 1))]
        sys = gabor_system(win, full_subgroup(g), subgroup_from_generators(g, []))
        assert sys.channels == 2

    def test_gabor_matches_definition(self):
        g = make_group([6])
        gamma = subgroup_from_generators(g, [(2,)])
        lam = subgroup_from_generators(g, [(3,)])
        psi = random_signal(g, 7)
        sys = gabor_system([[psi]], gamma, lam)
        definition = []
        for chi in lam.elements():
            for t in gamma.elements():
                definition.append(np.stack([translate(t, modulate(chi, psi)).values]))
        assert as_member_set(system_members(sys)) == as_member_set(definition)

    def test_wavelet_identity_reduces_to_translates(self):
        g = make_group([5])
        gamma = full_subgroup(g)
        psi = random_signal(g, 9)
        sys = wavelet_system([[psi]], [identity_automorphism(g)], gamma)
        assert len(sys.layers) == 1
        assert sys.layers[0].subgroup.same_set(gamma)

    def test_wavelet_two_dilations_on_z8(self):
        g = make_group([8])
        gamma = subgroup_from_generators(g, [(4,)])
        autos = [automorphism_from_matrix(g, [[3]]), automorphism_from_matrix(g, [[5]])]
        psi = random_signal(g, 10)
        sys = wavelet_system([[psi]], autos, gamma)
        assert len(sys.layers) == 2
        assert all(layer.subgroup.order == 2 for layer in sys.layers)
        # Expanded members equal the definitional dilated translates.
        definition = []
        for a in autos:
            for t in gamma.elements():
                definition.append(np.stack([dilate(a, translate(t, psi)).values]))
        assert as_member_set(system_members(sys)) == as_member_set(definition)

    def test_wavepacket_matches_definition(self):
        g = make_group([3, 3])
        gamma = subgroup_from_generators(g, [(1, 0)])
        lam = subgroup_from_generators(g, [(0, 1)])
        autos = [identity_automorphism(g), automorphism_from_matrix(g, [[1, 1], [0, 1]])]
        psi = random_signal(g, 12)
        sys = wavepacket_system([[psi]], autos, gamma, lam)
        definition = []
        for a in autos:
            for chi in lam.elements():
                for t in gamma.elements():
                    definition.append(
                        np.stack([dilate(a, translate(t, modulate(chi, psi))).values])
                    )
        assert as_member_set(system_members(sys)) == as_member_set(definition)

    def test_wavepacket_degenerations(self):
        g = make_group([4])
        gamma = subgroup_from_generators(g, [(2,)])
        lam = subgroup_from_generators(g, [(2,)])
        trivial_lam = subgroup_from_generators(g, [])
        psi = random_signal(g, 13)
        ident = [identity_automorphism(g)]

        wp_gabor = wavepacket_system([[psi]], ident, gamma, lam)
        gab = gabor_system([[psi]], gamma, lam)
        assert as_member_set(system_members(wp_gabor)) == as_member_set(system_members(gab))

        wp_wavelet = wavepacket_system([[psi]], ident, gamma, trivial_lam)
        wav = wavelet_system([[psi]], ident, gamma)
        assert as_member_set(system_members(wp_wavelet)) == as_member_set(system_members(wav))

    def test_channel_count_mismatch_rejected(self):
        g = make_group([4])
        with pytest.raises(ValueError, match="channel count"):
            gabor_system(
                [[delta_signal(g)], [delta_signal(g), delta_signal(g)]],
                full_subgroup(g),
                subgroup_from_generators(g, []),
            )


@pytest.mark.parametrize("orders, trans, mod, matrices", EXPANSION_CASES,
                         ids=[str(c[0]) for c in EXPANSION_CASES])
@pytest.mark.parametrize("channels, tuples", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_expansions_equal_per_element_loop_bit_for_bit(orders, trans, mod, matrices,
                                                        channels, tuples):
    g = make_group(orders)
    gamma = subgroup_from_generators(g, trans)
    lam = subgroup_from_generators(g, mod)
    autos = [identity_automorphism(g)] + [automorphism_from_matrix(g, m) for m in matrices]
    windows = [[random_signal(g, 10 * t + n) for n in range(channels)] for t in range(tuples)]

    def stacks(system):
        return [np.array([[w.values for w in gen.windows] for gen in layer.generators])
                for layer in system.layers]

    for got, want in [
        (stacks(gabor_system(windows, gamma, lam)), loop_expansion(windows, None, lam)),
        (stacks(wavelet_system(windows, autos, gamma)), loop_expansion(windows, autos, None)),
        (stacks(wavepacket_system(windows, autos, gamma, lam)),
         loop_expansion(windows, autos, lam)),
    ]:
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    chi = lam.elements()[-1]
    assert np.array_equal(modulate(chi, windows[0][0]).values,
                          loop_character_column(g, chi) * windows[0][0].values)


class TestDescriptors:
    def test_structure_mismatch_detection(self):
        g = make_group([4])
        sub_a = full_subgroup(g)
        sub_b = subgroup_from_generators(g, [(2,)])
        w = random_signal(g, 2)
        sys_a = SuperSystemDescriptor(g, 1, [GtiLayer(sub_a, [WeightedGenerator(1.0, (w,))])])
        sys_b = SuperSystemDescriptor(g, 1, [GtiLayer(sub_b, [WeightedGenerator(1.0, (w,))])])
        sys_c = SuperSystemDescriptor(g, 1, [GtiLayer(sub_a, [WeightedGenerator(2.0, (w,))])])
        require_matching_structure(sys_a, sys_a)
        with pytest.raises(StructureMismatchError, match="subgroup"):
            require_matching_structure(sys_a, sys_b)
        with pytest.raises(StructureMismatchError, match="weights"):
            require_matching_structure(sys_a, sys_c)

    def test_negative_weight_rejected(self):
        g = make_group([4])
        with pytest.raises(ValueError, match="nonnegative"):
            WeightedGenerator(-1.0, (random_signal(g, 0),))

    def test_verdict_threshold(self):
        w = [Witness((0, 0), (0,), (1,), 0.5), Witness((0, 0), (2,), (0,), 1.5)]
        v = Verdict.from_witnesses(w, tolerance=1.0)
        assert not v.passed and v.max_residual == 1.5
        assert v.witnesses[0].residual == 1.5
        assert Verdict.from_witnesses(w, tolerance=2.0).passed

    def test_verdict_refuses_negative_top_k(self):
        w = [Witness((0, 0), (0,), (1,), 0.5), Witness((0, 0), (2,), (0,), 1.5)]
        assert Verdict.from_witnesses(w, tolerance=1.0, top_k=0).witnesses == []
        with pytest.raises(ValueError, match="top_k must be non-negative"):
            Verdict.from_witnesses(w, tolerance=1.0, top_k=-1)

    @pytest.mark.parametrize("tolerance", [np.inf, np.nan, -1e-9])
    def test_verdict_refuses_invalid_tolerance(self, tolerance):
        w = [Witness((0, 0), (0,), (1,), np.nan)]
        assert Verdict.from_witnesses(w, tolerance=0.0).passed is False
        with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
            Verdict.from_witnesses(w, tolerance=tolerance)
