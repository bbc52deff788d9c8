"""Dense oracle computations: analysis/synthesis, frame operator, Gramians,
canonical duals, multiplexing."""

import json
import warnings

import numpy as np
import pytest

from gtiframes import (
    CapExceededError,
    CoefficientMap,
    NotAFrameError,
    Signal,
    SuperSignal,
    UncertifiedPairError,
    analysis_coeffs,
    check_gabor_duality,
    check_parseval_super,
    check_super_duality,
    default_tolerance,
    delta_signal,
    frame_bounds,
    full_subgroup,
    gabor_canonical_dual,
    gabor_system,
    indicator_signal,
    make_group,
    mixed_dual_gramian,
    multiplex_decode,
    multiplex_encode,
    random_signal,
    subgroup_from_generators,
    synthesis,
)
from gtiframes.analysis import _translate_quadratic_form
from gtiframes.characterization import _block_pass, _coset_gramians
from gtiframes.configio import coefficients_from_json, coefficients_to_json
from gtiframes.fourier import _spectra
from gtiframes.sweeps import (
    _fiberwise_pair_layer,
    _random_windows,
    all_small_subgroups,
    dual_pair,
    matched_random_pair,
    sweep_cases,
)
from gtiframes.systems import GtiLayer, SuperSystemDescriptor, WeightedGenerator

from helpers import (
    channel_split_parseval,
    delta_system,
    loop_analysis_entry,
    loop_mixed_dual_gramian,
    loop_translate_quadratic_form,
    random_super,
)


def small_gramian_pairs():
    """Z2xZ4 and Z3xZ3 pairs with 2-3 layers and 1-3 channels, the second
    generator of the first layer carrying zero mass."""
    rng = np.random.default_rng(47)
    for orders in [(2, 4), (3, 3)]:
        for channels in (1, 2, 3):
            for n_layers in (2, 3):
                pair = matched_random_pair(rng, make_group(orders), channels, n_layers, 2)
                for system in pair:
                    system.layers[0].generators[1].weight = 0.0
                yield pair


class TestAnalysisSynthesis:
    def test_delta_system_analysis_reads_off_values(self):
        g = make_group([5])
        sys = delta_system(g)
        f = random_signal(g, 0)
        coeffs = analysis_coeffs(sys, SuperSignal((f,)))
        for i, gamma in enumerate(sys.layers[0].subgroup.elements()):
            assert coeffs.entries[0][0, i] == pytest.approx(f[gamma])

    def test_zero_signal_gives_zero_map(self):
        g = make_group([6])
        sys = delta_system(g, channels=1)
        zero = SuperSignal((Signal(g, np.zeros(6)),))
        assert all(np.all(e == 0.0) for e in analysis_coeffs(sys, zero).entries)

    def test_matches_independent_loop(self):
        g = make_group([6])
        rng = np.random.default_rng(17)
        sys, _ = matched_random_pair(rng, g, 2, 2, 2)
        f = random_super(rng, g, 2)
        coeffs = analysis_coeffs(sys, f)
        for j, layer in enumerate(sys.layers):
            for p in range(len(layer.generators)):
                for i, gamma in enumerate(layer.subgroup.elements()):
                    expected = loop_analysis_entry(sys, f, j, p, gamma)
                    assert coeffs.entries[j][p, i] == pytest.approx(expected, abs=1e-10)

    def test_zero_coefficients_synthesize_zero(self):
        g = make_group([4])
        sys = delta_system(g)
        coeffs = analysis_coeffs(sys, SuperSignal((random_signal(g, 1),)))
        for e in coeffs.entries:
            e[:] = 0.0
        out = synthesis(sys, coeffs)
        assert out.norm() == 0.0

    def test_synthesis_refuses_another_channel_count(self):
        g = make_group([4])
        coeffs = analysis_coeffs(delta_system(g), SuperSignal((random_signal(g, 1),)))
        with pytest.raises(ValueError, match="1 channels, system expects 2"):
            synthesis(delta_system(g, channels=2), coeffs)

    def test_overflow_refused_not_returned(self):
        # Each step is finite on its own; the transforms overflow float64.
        g = make_group([4])
        sys = delta_system(g, scale=1e200)
        big = SuperSignal((Signal(g, [1e200, 1e200, 0, 0]),))
        with pytest.raises(ValueError, match="analysis overflows"):
            analysis_coeffs(sys, big)
        coeffs = analysis_coeffs(delta_system(g), big)
        with pytest.raises(ValueError, match="synthesis overflows"):
            synthesis(sys, coeffs)

    def test_non_finite_input_named_not_called_overflow(self):
        # A NaN or inf input is named where it sits; only finite inputs overflow.
        g = make_group([8])
        f_sys, h_sys = dual_pair(np.random.default_rng(0), g, 2)
        signal = SuperSignal.from_stacked(g, np.random.default_rng(1).standard_normal((2, 8)))
        values = signal.stacked()
        values[1, 3] = np.nan
        with pytest.raises(ValueError,
                           match="^signal channel 1 has a non-finite value at index 3$"):
            analysis_coeffs(f_sys, SuperSignal.from_stacked(g, values))
        coeffs = analysis_coeffs(f_sys, signal)
        coeffs.entries[0][1, 0] = np.inf
        with pytest.raises(ValueError,
                           match="^coefficients layer 0 row 1 has a non-finite value at index 0$"):
            synthesis(h_sys, coeffs)
        h_sys.layers[0].generators[2].windows[1].values[5] = np.nan
        with pytest.raises(ValueError,
                           match="^system layer 0 generator 2 window 1 has a non-finite value "
                                 "at index 5$"):
            analysis_coeffs(h_sys, signal)

    def test_layer_of_dead_generators_adds_nothing(self):
        # A layer whose generators all have weight 0 is not read, NaN samples and all.
        g = make_group([8])
        f_sys, _ = dual_pair(np.random.default_rng(5), g, 2, n_layers=2)
        coeffs = analysis_coeffs(f_sys, random_super(np.random.default_rng(6), g, 2))
        dead = [WeightedGenerator(0.0, (Signal(g, np.full(8, np.nan)), delta_signal(g)))] * 2
        sub = subgroup_from_generators(g, [(2,)])
        with_dead = SuperSystemDescriptor(g, 2, [*f_sys.layers, GtiLayer(sub, dead)])
        coeffs_dead = CoefficientMap(g, 2, [*coeffs.entries, np.full((2, 4), np.nan)])
        clean = synthesis(f_sys, coeffs).stacked()
        assert synthesis(with_dead, coeffs_dead).stacked().tobytes() == clean.tobytes()

    def test_delta_system_roundtrip_identity(self):
        g = make_group([7])
        sys = delta_system(g)
        f = SuperSignal((random_signal(g, 2),))
        out = synthesis(sys, analysis_coeffs(sys, f))
        assert np.abs(out.channels[0].values - f.channels[0].values).max() < 1e-12

    def test_synthesis_analysis_equals_matrix(self):
        g = make_group([8])
        rng = np.random.default_rng(23)
        sys, _ = matched_random_pair(rng, g, 2, 2, 3)
        matrix = mixed_dual_gramian(sys, sys)
        f = random_super(rng, g, 2)
        applied = synthesis(sys, analysis_coeffs(sys, f)).stacked().reshape(-1)
        expected = matrix @ f.stacked().reshape(-1)
        assert np.abs(applied - expected).max() < 1e-10 * np.abs(matrix).max()


def _mixed_pair_with_dead_generator(rng, group, subgroup_gens, channels=2):
    """A structure-matched mixed pair, plus the same pair with one extra
    weight-0 generator per layer whose windows hold a NaN sample.

    Returns (f, h, f_dead, h_dead); the dead generator must contribute
    nothing to synthesis.
    """
    def window():
        return Signal(group, rng.standard_normal(group.size) + 1j * rng.standard_normal(group.size))

    def nan_window():
        values = window().values
        values[1] = np.nan
        return Signal(group, values)

    subgroups = [subgroup_from_generators(group, gens) for gens in subgroup_gens]
    weights = [[float(rng.uniform(0.5, 2.0)) for _ in range(2)] for _ in subgroups]
    pair, dead_pair = [], []
    for _ in range(2):
        layers, dead_layers = [], []
        for sub, ws in zip(subgroups, weights):
            gens = [WeightedGenerator(w, tuple(window() for _ in range(channels))) for w in ws]
            dead = WeightedGenerator(0.0, tuple(nan_window() for _ in range(channels)))
            layers.append(GtiLayer(sub, gens))
            dead_layers.append(GtiLayer(sub, gens[:1] + [dead] + gens[1:]))
        pair.append(SuperSystemDescriptor(group, channels, layers))
        dead_pair.append(SuperSystemDescriptor(group, channels, dead_layers))
    return pair[0], pair[1], dead_pair[0], dead_pair[1]


# Product groups with subgroups off the coordinate axes, two layers each.
CODEC_CASES = [
    ((4, 6), [[(1, 2)], [(2, 3)]]),
    ((2, 2, 3), [[(1, 1, 1)], [(1, 0, 0), (0, 0, 1)]]),
]


class TestTransformCodec:
    @pytest.mark.parametrize("orders, subgroup_gens", CODEC_CASES)
    def test_analysis_matches_independent_loop(self, orders, subgroup_gens):
        g = make_group(orders)
        rng = np.random.default_rng(61)
        f_sys, _, _, _ = _mixed_pair_with_dead_generator(rng, g, subgroup_gens)
        x = random_super(rng, g, 2)
        coeffs = analysis_coeffs(f_sys, x)
        for j, layer in enumerate(f_sys.layers):
            for p in range(len(layer.generators)):
                for i, gamma in enumerate(layer.subgroup.elements()):
                    expected = loop_analysis_entry(f_sys, x, j, p, gamma)
                    assert coeffs.entries[j][p, i] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("orders, subgroup_gens", CODEC_CASES)
    def test_mixed_pair_roundtrip_matches_oracle(self, orders, subgroup_gens):
        g = make_group(orders)
        rng = np.random.default_rng(67)
        f_sys, h_sys, f_dead, h_dead = _mixed_pair_with_dead_generator(rng, g, subgroup_gens)
        x = random_super(rng, g, 2)
        oracle = mixed_dual_gramian(f_sys, h_sys) @ x.stacked().reshape(-1)
        for f, h in [(f_sys, h_sys), (f_dead, h_dead)]:
            applied = synthesis(f, analysis_coeffs(h, x)).stacked().reshape(-1)
            assert np.all(np.isfinite(applied))
            assert np.abs(applied - oracle).max() <= 1e-12 * np.abs(oracle).max()
        # The dense oracle skips the zero-mass generator and its NaN windows too.
        assert np.array_equal(mixed_dual_gramian(f_dead, h_dead), mixed_dual_gramian(f_sys, h_sys))


class TestFrameOperator:
    def test_delta_system_is_identity(self):
        g = make_group([6])
        system = delta_system(g)
        matrix = mixed_dual_gramian(system, system)
        assert np.abs(matrix - np.eye(6)).max() < 1e-13

    def test_empty_generator_layer_gives_zero(self):
        g = make_group([4])
        sys = SuperSystemDescriptor(g, 1, [GtiLayer(full_subgroup(g), [])])
        assert np.abs(mixed_dual_gramian(sys, sys)).max() == 0.0

    @pytest.mark.parametrize("ratio, expected", [(1e-7, True), (1e-9, False)])
    def test_frame_threshold_is_relative_1e_8(self, ratio, expected):
        # A translation-invariant system on Z4 with ghat = (1, sqrt(r), 1, 1): the
        # frame operator's eigenvalues are |ghat|^2, so lower / upper = r.
        g = make_group([4])
        window = np.fft.ifft([1.0, ratio ** 0.5, 1.0, 1.0])
        layer = GtiLayer(full_subgroup(g), [WeightedGenerator(1.0, (Signal(g, window),))])
        bounds = frame_bounds(SuperSystemDescriptor(g, 1, [layer]))
        assert bounds.lower / bounds.upper == pytest.approx(ratio, rel=1e-6)
        assert bounds.is_frame is expected

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_full_gabor_gives_size_times_identity(self, n):
        g = make_group([n])
        w = random_signal(g, n)
        w = Signal(g, w.values / w.norm())
        sys = gabor_system([[w]], full_subgroup(g), full_subgroup(g))
        matrix = mixed_dual_gramian(sys, sys)
        assert np.abs(matrix - n * np.eye(n)).max() < 1e-10 * n

    def test_hermitian_psd(self):
        rng = np.random.default_rng(31)
        for orders, channels in [((8,), 1), ((2, 4), 2), ((3, 3), 3)]:
            g = make_group(orders)
            sys, _ = matched_random_pair(rng, g, channels, 2, 2)
            matrix = mixed_dual_gramian(sys, sys)
            scale = np.abs(matrix).max()
            assert np.abs(matrix - matrix.conj().T).max() <= 1e-10 * scale
            assert np.linalg.eigvalsh(matrix).min() >= -1e-10 * scale

    def test_bounds_delta_and_doubled(self):
        g = make_group([5])
        single = delta_system(g)
        assert frame_bounds(single).lower == pytest.approx(1.0, abs=1e-12)
        assert frame_bounds(single).upper == pytest.approx(1.0, abs=1e-12)
        doubled = SuperSystemDescriptor(
            g, 1, [single.layers[0], delta_system(g).layers[0]]
        )
        b = frame_bounds(doubled)
        assert b.lower == pytest.approx(2.0, abs=1e-12)
        assert b.upper == pytest.approx(2.0, abs=1e-12)

    def test_bounds_full_gabor_z4(self):
        g = make_group([4])
        w = random_signal(g, 9)
        w = Signal(g, w.values / w.norm())
        sys = gabor_system([[w]], full_subgroup(g), full_subgroup(g))
        b = frame_bounds(sys)
        assert b.lower == pytest.approx(4.0, abs=1e-10)
        assert b.upper == pytest.approx(4.0, abs=1e-10)

    def test_cap_enforced(self):
        g = make_group([16])
        with pytest.raises(CapExceededError):
            mixed_dual_gramian(delta_system(g), delta_system(g), cap=8)

    def test_overflowing_weights_refused(self):
        g = make_group([4])
        layer = GtiLayer(full_subgroup(g), [WeightedGenerator(1.7e308, (delta_signal(g),))] * 2)
        system = SuperSystemDescriptor(g, 1, [layer])
        with pytest.raises(ValueError, match="dense operator overflows float64"):
            mixed_dual_gramian(system, system)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_window_sample_named(self, bad):
        f_sys, h_sys = dual_pair(np.random.default_rng(3), make_group([8]), 2)
        h_sys.layers[0].generators[0].windows[1].values[3] = bad
        message = "layer 0 generator 0 window 1 has a non-finite value at index 3"
        for call in (lambda: mixed_dual_gramian(f_sys, h_sys), lambda: frame_bounds(h_sys),
                     lambda: default_tolerance(f_sys, h_sys),
                     lambda: check_super_duality(f_sys, h_sys)):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("orders, subgroup_gens", CODEC_CASES)
    def test_dead_generator_with_nan_sample_leaves_bounds(self, orders, subgroup_gens):
        # A weight-0 generator is not part of its system: the bounds and verdicts are
        # those of the clean pair, bit for bit, its NaN samples unread.
        g = make_group(orders)
        f_sys, h_sys, f_dead, h_dead = _mixed_pair_with_dead_generator(
            np.random.default_rng(71), g, subgroup_gens)
        assert _block_pass(f_dead, h_dead, True)[1] == _block_pass(f_sys, h_sys, True)[1]
        assert default_tolerance(f_dead, h_dead) == default_tolerance(f_sys, h_sys)
        assert _block_pass(f_dead, f_dead, True)[1] == _block_pass(f_sys, f_sys, True)[1]
        assert check_super_duality(f_dead, h_dead) == check_super_duality(f_sys, h_sys)
        assert check_parseval_super(f_dead) == check_parseval_super(f_sys)

    def test_non_finite_window_named_in_structured_tolerance(self):
        g = make_group([8])
        lattice = subgroup_from_generators(g, [(2,)])
        window = random_signal(g, 7)
        bad = Signal(g, window.values.copy())
        bad.values[3] = np.nan
        with pytest.raises(ValueError, match="window 0 has a non-finite value at index 3"):
            check_gabor_duality([[window]], [[bad]], lattice, lattice)

    def test_tolerance_finite_for_finite_bounds(self):
        # B_F * B_H overflows past ~1e154; the tolerance must not.
        g = make_group([4])
        for f_scale, h_scale in [(1e100, 1e100), (1e150, 1e30), (1e-100, 1e154)]:
            f_sys, h_sys = delta_system(g, scale=f_scale), delta_system(g, scale=h_scale)
            b_f, b_h = frame_bounds(f_sys).upper, frame_bounds(h_sys).upper
            tol, bessel = default_tolerance(f_sys, h_sys)
            assert np.isfinite(b_f) and np.isfinite(b_h)
            assert np.isfinite(tol)
            assert tol == pytest.approx(1e-9 * max(1.0, np.sqrt(b_f) * np.sqrt(b_h)), rel=1e-12)
            assert bessel == max(b_f, b_h)

    def test_overflowing_bound_from_finite_windows_refused_as_overflow(self):
        # The fibers of 1e200 * delta against 1e-200 * delta are 1, but the frame
        # operator of the first system is 1e400 times the identity.
        g = make_group([4])
        f_sys, h_sys = delta_system(g, scale=1e200), delta_system(g, scale=1e-200)
        for call in (lambda: default_tolerance(f_sys, h_sys),
                     lambda: check_super_duality(f_sys, h_sys)):
            with pytest.raises(ValueError, match="operator overflows float64"):
                call()

    def test_tolerance_bits_where_product_is_finite(self):
        g = make_group([4])
        f_sys, h_sys = delta_system(g, scale=1.5), delta_system(g, scale=np.pi)
        b_f, b_h = frame_bounds(f_sys).upper, frame_bounds(h_sys).upper
        assert default_tolerance(f_sys, h_sys)[0] == 1e-9 * max(1.0, b_f * b_h) ** 0.5


class TestMixedDualGramian:
    def test_self_pair_is_block_diagonal_over_annihilator_cosets(self):
        # In frequency the frame operator of a Gabor layer keeps every coset
        # c + A of A = ann(Gamma), and acts there as the conjugate of the
        # coset Gramian that fibers and canonical duals are read from.
        g = make_group([12])
        gamma = subgroup_from_generators(g, [(3,)])
        sys = gabor_system([[random_signal(g, 43)]], gamma, subgroup_from_generators(g, [(4,)]))
        dft_matrix = np.fft.fft(np.eye(12), axis=0)
        freq = dft_matrix @ mixed_dual_gramian(sys, sys) @ np.linalg.inv(dft_matrix)
        spectra = _spectra([gen.windows for gen in sys.layers[0].generators], g)
        ann = gamma.annihilator
        blocks = _coset_gramians(spectra, spectra, np.ones(len(spectra)), ann)
        expected = np.zeros((12, 12), dtype=np.complex128)
        for coset, block in zip(ann.cosets, blocks):
            expected[np.ix_(coset, coset)] = block.conj()
        assert np.abs(freq - expected).max() < 1e-12 * np.abs(expected).max()

    def test_zero_analysis_side_gives_zero(self):
        g = make_group([4])
        f_sys = delta_system(g)
        h_sys = delta_system(g, scale=0.0)
        assert np.abs(mixed_dual_gramian(f_sys, h_sys)).max() == 0.0

    @pytest.mark.parametrize("corpus", ["acceptance", "small"])
    def test_matches_triple_loop(self, corpus):
        pairs = ([(c.f_system, c.h_system) for c in sweep_cases(seed=20240801)]
                 if corpus == "acceptance" else small_gramian_pairs())
        for f_sys, h_sys in pairs:
            # Relative to a bound on every entry, V_j |Gamma_j| = |G| times the
            # sum of w_p max|g_p| max|h_p|: orthogonal pairs cancel to ~1e-16.
            bound = f_sys.group.size * sum(
                gf.weight * max(np.abs(w.values).max() for w in gf.windows)
                * max(np.abs(w.values).max() for w in gh.windows)
                for lf, lh in zip(f_sys.layers, h_sys.layers)
                for gf, gh in zip(lf.generators, lh.generators)
            )
            got = mixed_dual_gramian(f_sys, h_sys)
            assert np.abs(got - loop_mixed_dual_gramian(f_sys, h_sys)).max() <= 1e-13 * bound

    def test_matrix_matches_basis_vector_application(self):
        g = make_group([8])
        rng = np.random.default_rng(43)
        f_sys, h_sys = matched_random_pair(rng, g, 2, 2, 2)
        matrix = mixed_dual_gramian(f_sys, h_sys)
        total = 2 * g.size
        for col in range(total):
            basis = np.zeros(total, dtype=np.complex128)
            basis[col] = 1.0
            e = SuperSignal.from_stacked(g, basis.reshape(2, g.size))
            applied = synthesis(f_sys, analysis_coeffs(h_sys, e)).stacked().reshape(-1)
            assert np.abs(applied - matrix[:, col]).max() < 1e-10

    @pytest.mark.parametrize("seed", [20240801, 7, 5])
    def test_translate_quadratic_form_matches_loop(self, seed):
        # The dense route of quadratic_form_series, on its default matrix, against
        # explicit translates and pairings on every single-channel corpus case.
        cases = [c for c in sweep_cases(seed=seed) if c.f_system.channels == 1]
        assert cases
        for i, case in enumerate(cases):
            f = random_signal(case.f_system.group, i)
            got = _translate_quadratic_form(case.f_system, case.h_system, f, None)
            want = loop_translate_quadratic_form(
                f, mixed_dual_gramian(case.f_system, case.h_system))
            assert got.shape == want.shape, case.name
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), case.name


class TestCanonicalDual:
    def test_full_lattice_dual_is_scaled_window(self):
        g = make_group([4])
        w = random_signal(g, 3)
        w = Signal(g, w.values / w.norm())
        dual = gabor_canonical_dual(w, full_subgroup(g), full_subgroup(g))
        assert np.abs(dual.values - w.values / 4).max() < 1e-12

    def test_tight_window_is_self_dual(self):
        g = make_group([4])
        w = random_signal(g, 5)
        w = Signal(g, w.values / (2 * w.norm()))  # S = |G| * ||w||^2 * I = I
        dual = gabor_canonical_dual(w, full_subgroup(g), full_subgroup(g))
        assert np.abs(dual.values - w.values).max() < 1e-12

    def test_lattice_dual_certifies(self):
        g = make_group([6])
        gamma = subgroup_from_generators(g, [(2,)])
        lam = subgroup_from_generators(g, [(3,)])
        w = random_signal(g, 7)
        dual = gabor_canonical_dual(w, gamma, lam)
        verdict = check_gabor_duality([[w]], [[dual]], gamma, lam)
        assert verdict.passed

    @staticmethod
    def refusals_and_duals_match_dense(order):
        # One rule: the dual exists exactly where frame_bounds says is_frame,
        # and then it is the dense solve S h = w.
        g = make_group([order])
        subgroups = all_small_subgroups(g)
        windows = [random_signal(g, 13), indicator_signal(g, subgroup_from_generators(g, [(4,)]))]
        outcomes = set()
        for w in windows:
            for gamma in subgroups:
                for lam in subgroups:
                    system = gabor_system([[w]], gamma, lam)
                    is_frame = frame_bounds(system).is_frame
                    try:
                        dual = gabor_canonical_dual(w, gamma, lam)
                        refused = False
                    except NotAFrameError:
                        refused = True
                    assert refused == (not is_frame), (gamma.generators, lam.generators)
                    outcomes.add(refused)
                    if not refused:
                        dense = np.linalg.solve(mixed_dual_gramian(system, system), w.values)
                        scale = max(1.0, np.abs(dense).max())
                        assert np.abs(dual.values - dense).max() <= 1e-12 * scale
        assert outcomes == {True, False}

    def test_refuses_exactly_the_non_frames_z12(self):
        self.refusals_and_duals_match_dense(12)

    def test_refuses_exactly_the_non_frames_z24(self):
        self.refusals_and_duals_match_dense(24)

    def test_certifies_above_the_dense_cap(self):
        # Z2048 with 256 translations and 128 modulations: 16 coset blocks of
        # 8x8 where the dense operator would be 2048x2048.
        g = make_group([2048])
        gamma = subgroup_from_generators(g, [(8,)])
        lam = subgroup_from_generators(g, [(16,)])
        w = random_signal(g, 3)
        dual = gabor_canonical_dual(w, gamma, lam)
        assert check_gabor_duality([[w]], [[dual]], gamma, lam).passed

    def test_overflowing_gramian_refused(self):
        # Four samples of 1e160 give coset Gramian entries past the float range.
        g = make_group([16])
        lattice = subgroup_from_generators(g, [(4,)])
        window = Signal(g, np.r_[np.full(4, 1e160), np.zeros(12)])
        with pytest.raises(ValueError, match="overflows float64"):
            gabor_canonical_dual(window, lattice, lattice)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_window_named(self, bad):
        # Expanded and transformed, a NaN or inf sample read as overflow (and
        # an inf warned from the transform first).
        g = make_group([8])
        lattice = subgroup_from_generators(g, [(2,)])
        values = random_signal(g, 5).values.copy()
        values[3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite value at index 3"):
                gabor_canonical_dual(Signal(g, values), lattice, lattice)

    def test_zero_window_is_not_a_frame(self):
        g = make_group([4])
        with pytest.raises(NotAFrameError):
            gabor_canonical_dual(
                Signal(g, np.zeros(4)), full_subgroup(g), full_subgroup(g)
            )

    @pytest.mark.parametrize("ratio, expected", [(1e-7, True), (1e-9, False)])
    def test_frame_threshold_is_relative_1e_8(self, ratio, expected):
        # Full lattice, trivial modulation: S acts on each frequency by |ghat|^2, so
        # lower / upper = r for ghat = (1, sqrt(r), 1, 1).
        g = make_group([4])
        window = Signal(g, np.fft.ifft([1.0, ratio ** 0.5, 1.0, 1.0]))
        full, trivial = full_subgroup(g), subgroup_from_generators(g, [])
        if expected:
            dual = gabor_canonical_dual(window, full, trivial)
            assert check_gabor_duality([[window]], [[dual]], full, trivial).passed
        else:
            with pytest.raises(NotAFrameError):
                gabor_canonical_dual(window, full, trivial)


class TestMultiplex:
    def test_dead_generator_row_is_zero_and_strict_json(self):
        # A weight-0 generator is not in the system: its coefficient row is zero, so
        # its NaN windows leave a file that strict JSON writes and the codec reads back.
        g = make_group([8])
        f_sys, h_sys = dual_pair(np.random.default_rng(0), g, 2)
        dead = WeightedGenerator(0.0, (Signal(g, np.full(8, np.nan)),) * 2)
        f_dead, h_dead = (SuperSystemDescriptor(g, 2, [
            GtiLayer(s.layers[0].subgroup, [*s.layers[0].generators, dead]), *s.layers[1:]])
            for s in (f_sys, h_sys))
        signals = random_super(np.random.default_rng(1), g, 2)
        coeffs = multiplex_encode((f_dead, h_dead), signals)
        assert coeffs.entries[0][-1].tobytes() == bytes(coeffs.entries[0][-1].nbytes)
        text = json.dumps(coefficients_to_json(coeffs), allow_nan=False)
        back = multiplex_decode((f_dead, h_dead), coefficients_from_json(json.loads(text)))
        clean = multiplex_decode((f_sys, h_sys), multiplex_encode((f_sys, h_sys), signals))
        assert back.stacked().tobytes() == clean.stacked().tobytes()

    def test_trivial_parseval_pair_exact_recovery(self):
        g = make_group([4])
        sys = channel_split_parseval(g)
        signals = random_super(np.random.default_rng(3), g, 2)
        coeffs = multiplex_encode((sys, sys), signals)
        back = multiplex_decode((sys, sys), coeffs)
        for a, b in zip(signals.channels, back.channels):
            assert np.abs(a.values - b.values).max() < 1e-12

    def test_zero_input_zero_output(self):
        g = make_group([4])
        sys = channel_split_parseval(g)
        zero = SuperSignal.from_stacked(g, np.zeros((2, 4)))
        back = multiplex_decode((sys, sys), multiplex_encode((sys, sys), zero))
        assert back.norm() == 0.0

    def test_engineered_dual_pair_roundtrip(self):
        g = make_group([8])
        rng = np.random.default_rng(51)
        f_sys, h_sys = dual_pair(rng, g, channels=2)
        signals = SuperSignal(_random_windows(rng, g, 2))
        coeffs = multiplex_encode((f_sys, h_sys), signals)
        back = multiplex_decode((f_sys, h_sys), coeffs)
        err = max(
            np.abs(a.values - b.values).max() for a, b in zip(signals.channels, back.channels)
        )
        assert err < 1e-9 * signals.norm()

    def test_uncertified_pair_refused_analysis_runs_directly(self):
        # The codec always certifies; analysis_coeffs and synthesis never do.
        g = make_group([4])
        rng = np.random.default_rng(53)
        f_sys, h_sys = matched_random_pair(rng, g, 1, 1, 2)
        signals = SuperSignal(_random_windows(rng, g, 1))
        with pytest.raises(UncertifiedPairError):
            multiplex_encode((f_sys, h_sys), signals)
        coeffs = analysis_coeffs(f_sys, signals)
        assert coeffs.total_size() > 0
        with pytest.raises(UncertifiedPairError):
            multiplex_decode((f_sys, h_sys), coeffs)

    def test_certified_pair_above_dense_cap_needs_no_force(self):
        g = make_group([144])  # 2 channels x 144 points is above the cap of 256
        rng = np.random.default_rng(59)
        # dual_pair would enumerate every subgroup of Z_144; build its layer directly.
        f_layer, h_layer = _fiberwise_pair_layer(
            rng, g, subgroup_from_generators(g, [(2,)]), 2, orthogonal=False,
        )
        f_sys = SuperSystemDescriptor(g, 2, [f_layer])
        h_sys = SuperSystemDescriptor(g, 2, [h_layer])
        with pytest.raises(CapExceededError):
            mixed_dual_gramian(f_sys, h_sys)
        signals = SuperSignal(_random_windows(rng, g, 2))
        back = multiplex_decode((f_sys, h_sys), multiplex_encode((f_sys, h_sys), signals))
        for a, b in zip(signals.channels, back.channels):
            assert np.abs(a.values - b.values).max() < 1e-9 * a.norm()

    def test_one_stream_carries_all_channels(self):
        g = make_group([8])
        rng = np.random.default_rng(57)
        f_sys, h_sys = dual_pair(rng, g, channels=3)
        signals = SuperSignal(_random_windows(rng, g, 3))
        coeffs = multiplex_encode((f_sys, h_sys), signals)
        # One flat complex stream, not one per channel.
        assert len(coeffs.entries) == len(f_sys.layers)
        back = multiplex_decode((f_sys, h_sys), coeffs)
        assert back.n_channels == 3
        for a, b in zip(signals.channels, back.channels):
            assert np.abs(a.values - b.values).max() < 1e-9
