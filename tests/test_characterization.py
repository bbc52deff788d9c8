"""Verdicts against independent oracles: fiber tables vs explicit loops,
checks vs dense Gramians, specialized vs generic evaluation."""

import tracemalloc
import warnings

import numpy as np
import pytest

from gtiframes import (
    NotAMultiplierError,
    Signal,
    StructureMismatchError,
    check_gabor_duality,
    check_orthogonality,
    check_parseval_super,
    check_super_duality,
    check_wavelet_duality,
    check_wavepacket_duality,
    commutation_defect,
    delta_signal,
    dft,
    dft_naive,
    fiber_table,
    full_subgroup,
    gabor_system,
    gramian_identity_residual,
    idft,
    make_group,
    mixed_dual_gramian,
    multiplier_symbol,
    quadratic_form_series,
    random_signal,
    subgroup_from_generators,
    wavelet_system,
    wavepacket_system,
)
from gtiframes import (
    Spectrum,
    automorphism_from_matrix,
    default_tolerance,
    frame_bounds,
    identity_automorphism,
    subgroup_from_indices,
)
from gtiframes.analysis import RAW_TOLERANCE
from gtiframes.characterization import FiberTable, _block_pass, _structured_fibers
from gtiframes.sweeps import (
    all_small_subgroups,
    dual_pair,
    matched_random_pair,
    random_automorphism,
    random_descriptor,
    sweep_cases,
)
from gtiframes.systems import GtiLayer, SuperSystemDescriptor, WeightedGenerator

from helpers import (
    brute_character,
    channel_split_parseval,
    definition_fiber_table,
    delta_system,
    loop_commutation_defect,
    loop_fiber_verdict,
)


def loop_fiber_value(f_sys, h_sys, n1, n2, alpha, xi):
    """Literal triple-loop evaluation with naive transforms and a floating
    character test for annihilator membership."""
    group = f_sys.group
    total = 0.0 + 0.0j
    for lf, lh in zip(f_sys.layers, h_sys.layers):
        in_annihilator = all(
            abs(brute_character(group, alpha, gamma) - 1) < 1e-9
            for gamma in lf.subgroup.elements()
        )
        if not in_annihilator:
            continue
        for gf, gh in zip(lf.generators, lh.generators):
            h_hat = dft_naive(gh.windows[n1])
            g_hat = dft_naive(gf.windows[n2])
            total += gf.weight * np.conj(h_hat[xi]) * g_hat[group.add(xi, alpha)]
    return total


class TestFiberTable:
    def test_delta_system_unit_fiber(self):
        g = make_group([5])
        sys = delta_system(g)
        table = fiber_table(sys, sys)
        assert table.offset_indices.tolist() == [0]
        assert np.abs(table.stack[0, 0, 0] - 1.0).max() < 1e-12

    def test_zero_analysis_windows_zero_fibers(self):
        g = make_group([8])
        f_sys = delta_system(g)
        h_sys = delta_system(g, scale=0.0)
        table = fiber_table(f_sys, h_sys)
        assert np.abs(table.stack).max() == 0.0

    def test_matches_triple_loop_oracle(self):
        # Z8 with one layer on <2>; Z2xZ4 and Z3xZ3 with one layer each; Z12 with
        # annihilators {0, 6} and {0, 4, 8} (overlapping in 0), once with an
        # empty-generator layer on top.
        rng = np.random.default_rng(61)

        def pair(orders, channels, layer_gens):
            g = make_group(orders)
            f_sys, h_sys = matched_random_pair(rng, g, channels, len(layer_gens), 2)
            for j, gens in enumerate(layer_gens):
                sub = subgroup_from_generators(g, gens)
                f_sys.layers[j].subgroup = sub
                h_sys.layers[j].subgroup = sub
            return f_sys, h_sys

        cases = [
            pair((8,), 2, [[(2,)]]),
            pair((2, 4), 2, [[(0, 2)]]),
            pair((3, 3), 2, [[(1, 1)]]),
            pair((12,), 1, [[(2,)], [(3,)]]),
        ]
        empty = GtiLayer(subgroup_from_generators(make_group([12]), [(4,)]), [])
        cases.append(tuple(
            SuperSystemDescriptor(sys.group, 1, sys.layers + [empty]) for sys in cases[-1]
        ))
        for f_sys, h_sys in cases:
            g = f_sys.group
            n = f_sys.channels
            table = fiber_table(f_sys, h_sys)
            union = set().union(*(set(layer.subgroup.annihilator.indices.tolist())
                                  for layer in f_sys.layers))
            assert table.offset_indices.tolist() == sorted(union)
            for alpha, block in zip(table.offsets, table.stack):
                for n1 in range(n):
                    for n2 in range(n):
                        for xi in g.elements():
                            expected = loop_fiber_value(f_sys, h_sys, n1, n2, alpha, xi)
                            got = block[n1, n2, g.index_of(xi)]
                            assert got == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize(
        "orders, layer_gens",
        [
            # Nested annihilators, largest first: the first layer covers every offset.
            ((16,), [[(8,)], [(4,)], [(2,)]]),
            ((2, 4), [[(1, 1)], [(0, 2)], [(1, 0)]]),
            ((3, 3), [[(1, 1)], [(1, 0)], [(0, 1)]]),
            ((2, 2, 2), [[(1, 0, 0)], [(1, 1, 0)], [(0, 0, 1), (0, 1, 0)]]),
        ],
        ids=["Z16", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2"],
    )
    def test_matches_rolled_definition(self, orders, layer_gens):
        # fiber[a](n1, n2, xi) = sum over the layers whose annihilator holds a
        # and their generators p of w_p conj(Hhat_p,n1(xi)) Fhat_p,n2(xi + a),
        # one offset at a time from numpy's fftn and np.roll on the group grid.
        g = make_group(list(orders))
        axes = tuple(range(len(orders)))
        rng = np.random.default_rng(len(orders) * 100 + g.size)

        def hat(window):
            return np.fft.fftn(window.values.reshape(orders))

        for channels in (1, 2, 3):
            layers_f, layers_h = [], []
            for gens in layer_gens[:channels]:
                sub = subgroup_from_generators(g, gens)
                weights = rng.random(2)
                if len(layers_f) == channels - 1:
                    weights[0] = 0.0
                layers_f.append(GtiLayer(sub, [WeightedGenerator(w, tuple(
                    random_signal(g, rng) for _ in range(channels))) for w in weights]))
                layers_h.append(GtiLayer(sub, [WeightedGenerator(w, tuple(
                    random_signal(g, rng) for _ in range(channels))) for w in weights]))
            f_sys = SuperSystemDescriptor(g, channels, layers_f)
            h_sys = SuperSystemDescriptor(g, channels, layers_h)
            expected: dict = {}
            for lf, lh in zip(layers_f, layers_h):
                for a_idx in lf.subgroup.annihilator.indices.tolist():
                    shift = [-r for r in g.element_at(a_idx)]
                    block = expected.setdefault(
                        a_idx, np.zeros((channels, channels, g.size), dtype=complex)
                    )
                    for gf, gh in zip(lf.generators, lh.generators):
                        for n1 in range(channels):
                            for n2 in range(channels):
                                moved = np.roll(hat(gf.windows[n2]), shift, axis=axes)
                                term = np.conj(hat(gh.windows[n1])) * moved
                                block[n1, n2] += gf.weight * term.reshape(-1)
            table = fiber_table(f_sys, h_sys)
            assert table.offset_indices.tolist() == sorted(expected)
            for k, off in enumerate(table.offset_indices.tolist()):
                np.testing.assert_allclose(table.stack[k], expected[off], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("layers, gens", [(1, 2), (2, 1)], ids=["one-layer", "two-layers"])
    def test_overflow_refused(self, layers, gens):
        # Every weight and window is finite; the generator sum inside one
        # layer, or the sum across layers, passes the float64 range.
        g = make_group([4])
        sub = subgroup_from_generators(g, [(1,)])
        layer = GtiLayer(sub, [WeightedGenerator(1.7e308, (delta_signal(g),))] * gens)
        sys = SuperSystemDescriptor(g, 1, [layer] * layers)
        with pytest.raises(ValueError, match="fiber table overflows float64"):
            fiber_table(sys, sys)

    @pytest.mark.parametrize("order", [8, 512], ids=["Z8", "Z512-above-cap"])
    def test_overflowing_transform_refused_without_warning(self, order):
        # Finite windows of 1e308 whose spectra pass the float64 range: refused as
        # overflow, with no RuntimeWarning from the transform on the way.
        g = make_group([order])
        windows = (Signal(g, np.full(order, 1e308)),)
        layers = [GtiLayer(sub, [WeightedGenerator(1.0, windows)])
                  for sub in (full_subgroup(g), subgroup_from_generators(g, [(2,)]))]
        sys = SuperSystemDescriptor(g, 1, layers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check in (fiber_table, check_super_duality):
                with pytest.raises(ValueError, match="fiber table overflows float64"):
                    check(sys, sys)

    def test_given_tolerance_refused_before_the_table(self):
        # The table of this pair overflows float64; the tolerance is refused first.
        g = make_group([4])
        layer = GtiLayer(full_subgroup(g), [WeightedGenerator(1.7e308, (delta_signal(g),))] * 2)
        sys = SuperSystemDescriptor(g, 1, [layer])
        for check in (check_super_duality, check_orthogonality, multiplier_symbol):
            with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
                check(sys, sys, tol=np.nan)

    def test_contributing_layers_recorded(self):
        g = make_group([4])
        sub = subgroup_from_generators(g, [(2,)])
        w = random_signal(g, 1)
        layers = [
            GtiLayer(full_subgroup(g), [WeightedGenerator(1.0, (w,))]),
            GtiLayer(sub, [WeightedGenerator(1.0, (w,))]),
        ]
        sys = SuperSystemDescriptor(g, 1, layers)
        table = fiber_table(sys, sys)
        # Offsets 0 and 2: 0 lies in both annihilators, 2 only in that of <2>.
        assert table.layer_mask.tolist() == [[True, True], [False, True]]
        # The dict views that the benchmark harness reads say the same by offset index.
        assert table.contributors[0] == (0, 1)
        assert table.contributors[g.index_of((2,))] == (1,)
        assert table.data.keys() == set(table.offset_indices.tolist())
        assert all(np.array_equal(table.data[k], block)
                   for k, block in zip(table.offset_indices.tolist(), table.stack))

    def test_structure_mismatch_rejected(self):
        g = make_group([4])
        rng = np.random.default_rng(3)
        a, _ = matched_random_pair(rng, g, 1, 1, 2)
        b, _ = matched_random_pair(rng, g, 1, 1, 3)
        with pytest.raises(StructureMismatchError):
            fiber_table(a, b)

    def test_empty_generator_layer_contributes_zero_fibers(self):
        g = make_group([4])
        sub = subgroup_from_generators(g, [(2,)])
        sys = SuperSystemDescriptor(g, 1, [GtiLayer(sub, [])])
        table = fiber_table(sys, sys)
        assert table.offset_indices.tolist() == sub.annihilator.indices.tolist()
        assert np.abs(table.stack).max() == 0.0
        assert check_orthogonality(sys, sys).passed


class TestOrthogonality:
    def test_zero_windows_pass(self):
        g = make_group([6])
        verdict = check_orthogonality(delta_system(g), delta_system(g, scale=0.0))
        assert verdict.passed and verdict.max_residual == 0.0

    def test_delta_vs_itself_fails_at_zero_offset(self):
        g = make_group([6])
        verdict = check_orthogonality(delta_system(g), delta_system(g))
        assert not verdict.passed
        assert verdict.max_residual == pytest.approx(1.0)
        top = verdict.witnesses[0]
        assert top.offset == (0,) * g.ndim

    def test_pointwise_unitary_columns_are_orthogonal(self):
        g = make_group([8])
        rng = np.random.default_rng(67)
        g_hat = np.empty((2, 8), dtype=np.complex128)
        h_hat = np.empty((2, 8), dtype=np.complex128)
        for xi in range(8):
            mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, _ = np.linalg.qr(mat)
            g_hat[:, xi] = q[:, 0]
            h_hat[:, xi] = q[:, 1]
        def build(hats):
            gens = [
                WeightedGenerator(1.0, (idft(Spectrum(g, hats[p])),)) for p in range(2)
            ]
            return SuperSystemDescriptor(g, 1, [GtiLayer(full_subgroup(g), gens)])
        verdict = check_orthogonality(build(g_hat), build(h_hat))
        assert verdict.passed

    def test_agreement_with_gramian(self):
        g = make_group([8])
        rng = np.random.default_rng(71)
        f_sys, h_sys = matched_random_pair(rng, g, 1, 2, 2)
        verdict = check_orthogonality(f_sys, h_sys)
        oracle = float(np.abs(mixed_dual_gramian(f_sys, h_sys)).max())
        assert verdict.passed == (oracle <= verdict.tolerance)

    def test_exact_zero_passes_at_zero_tolerance(self):
        # Z4, full lattice: the constant and (1, -1, 1, -1) have disjoint spectra, so
        # every fiber is an exact zero and a residual equal to the tolerance passes.
        g = make_group([4])

        def system(values):
            gen = WeightedGenerator(1.0, (Signal(g, np.array(values, dtype=float)),))
            return SuperSystemDescriptor(g, 1, [GtiLayer(full_subgroup(g), [gen])])

        f_sys, h_sys = system([1, 1, 1, 1]), system([1, -1, 1, -1])
        verdict = check_orthogonality(f_sys, h_sys, tol=0.0)
        assert verdict.passed and verdict.max_residual == 0.0
        assert np.abs(mixed_dual_gramian(f_sys, h_sys)).max() == 0.0


class TestSuperDuality:
    def test_channel_split_parseval_passes(self):
        g = make_group([4])
        sys = channel_split_parseval(g)
        verdict = check_super_duality(sys, sys)
        assert verdict.passed
        assert verdict.blocks[(0, 0)].passed and verdict.blocks[(1, 1)].passed
        assert verdict.blocks[(0, 1)].passed and verdict.blocks[(1, 0)].passed

    def test_scaled_channel_fails_with_exact_residual(self):
        g = make_group([4])
        sys = channel_split_parseval(g)
        bad = channel_split_parseval(g)
        # Double the second-channel window of the second generator.
        gen = bad.layers[0].generators[1]
        gen.windows[1].values *= 2.0
        verdict = check_super_duality(bad, bad, tol=1e-9)
        assert not verdict.passed
        assert verdict.max_residual == pytest.approx(3.0)  # |4 - 1|
        assert verdict.witnesses[0].channels == (1, 1)
        assert verdict.witnesses[0].offset == (0,)

    def test_certified_pair_agrees_with_oracle(self):
        g = make_group([8])
        rng = np.random.default_rng(73)
        f_sys, h_sys = dual_pair(rng, g, channels=2)
        verdict = check_super_duality(f_sys, h_sys)
        oracle = gramian_identity_residual(mixed_dual_gramian(f_sys, h_sys))
        assert verdict.passed and oracle <= verdict.tolerance

    def test_block_decomposition_matches_gramian_blocks(self):
        g = make_group([8])
        rng = np.random.default_rng(79)
        f_sys, h_sys = dual_pair(rng, g, channels=2)
        # Break only the (1,1) block by scaling channel 1 of H.
        for gen in h_sys.layers[0].generators:
            gen.windows[1].values *= 1.5
        verdict = check_super_duality(f_sys, h_sys)
        assert not verdict.passed
        assert verdict.blocks[(0, 0)].passed
        assert not verdict.blocks[(1, 1)].passed
        matrix = mixed_dual_gramian(f_sys, h_sys)
        size = g.size
        block00 = matrix[:size, :size]
        block11 = matrix[size:, size:]
        tol = verdict.tolerance
        assert np.abs(block00 - np.eye(size)).max() <= tol
        assert np.abs(block11 - np.eye(size)).max() > tol


class TestParseval:
    def test_trivial_pair(self):
        g = make_group([4])
        assert check_parseval_super(channel_split_parseval(g)).passed

    def test_scaled_delta_fails(self):
        g = make_group([4])
        verdict = check_parseval_super(delta_system(g, scale=2.0))
        assert not verdict.passed
        assert verdict.max_residual == pytest.approx(3.0)

    def test_inverse_sqrt_frame_operator_gives_parseval_window(self):
        g = make_group([8])
        gamma = subgroup_from_generators(g, [(2,)])
        lam = subgroup_from_generators(g, [(2,)])
        w = random_signal(g, 83)
        system = gabor_system([[w]], gamma, lam)
        op = mixed_dual_gramian(system, system)
        eigvals, eigvecs = np.linalg.eigh(op)
        inv_sqrt = (eigvecs * (1.0 / np.sqrt(eigvals))) @ eigvecs.conj().T
        tight = Signal(g, inv_sqrt @ w.values)
        verdict = check_parseval_super(gabor_system([[tight]], gamma, lam))
        assert verdict.passed


class TestMultiplierSymbol:
    def test_delta_system_symbol_is_one(self):
        g = make_group([6])
        s = multiplier_symbol(delta_system(g), delta_system(g))
        assert np.abs(s.values - 1.0).max() < 1e-12

    def test_zero_windows_symbol_is_zero(self):
        g = make_group([6])
        s = multiplier_symbol(delta_system(g), delta_system(g, scale=0.0))
        assert np.abs(s.values).max() == 0.0

    def test_full_group_symbol_matches_window_product_and_oracle(self):
        g = make_group([8])
        rng = np.random.default_rng(89)
        f_sys, h_sys = matched_random_pair(rng, g, 1, 1, 1, full_group_layers=True)
        s = multiplier_symbol(f_sys, h_sys)
        (gen,) = f_sys.layers[0].generators
        g_hat = dft_naive(gen.windows[0]).values
        h_hat = dft_naive(h_sys.layers[0].generators[0].windows[0]).values
        # On the full group the covolume is 1, so only the shared weight scales.
        assert np.abs(s.values - gen.weight * h_hat.conj() * g_hat).max() < 1e-10
        matrix = mixed_dual_gramian(f_sys, h_sys)
        for col in range(g.size):
            basis = Signal(g, np.eye(g.size)[col])
            via_symbol = idft(Spectrum(g, s.values * dft(basis).values)).values
            assert np.abs(via_symbol - matrix[:, col]).max() < 1e-10

    def test_non_multiplier_is_refused(self):
        g = make_group([4])
        sub = subgroup_from_generators(g, [(2,)])
        sys = SuperSystemDescriptor(
            g, 1, [GtiLayer(sub, [WeightedGenerator(1.0, (delta_signal(g),))])]
        )
        with pytest.raises(NotAMultiplierError):
            multiplier_symbol(sys, sys)

    def test_nan_window_is_refused(self):
        g = make_group([8])
        sub = subgroup_from_generators(g, [(2,)])
        window = random_signal(g, 5)
        window.values[3] = np.nan
        sys = SuperSystemDescriptor(g, 1, [GtiLayer(sub, [WeightedGenerator(1.0, (window,))])])
        with pytest.raises(NotAMultiplierError, match="inf"):
            multiplier_symbol(sys, sys, tol=1e-9)

    def test_nan_window_on_full_group_is_refused(self):
        # Offset 0 is the only fiber, and its diagonal is the symbol itself.
        g = make_group([8])
        window = random_signal(g, 5)
        window.values[3] = np.nan
        sys = SuperSystemDescriptor(
            g, 1, [GtiLayer(full_subgroup(g), [WeightedGenerator(1.0, (window,))])]
        )
        with pytest.raises(NotAMultiplierError, match="inf"):
            multiplier_symbol(sys, sys, tol=1e-9)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_invalid_tolerance_refused(self, tol):
        # Off-translation residual 17.0: a NaN or infinite tolerance used to pass it.
        g = make_group([8])
        f_sys, h_sys = matched_random_pair(np.random.default_rng(1), g, 1, 2, 2)
        with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
            multiplier_symbol(f_sys, h_sys, tol=tol)

    def test_multi_channel_needs_explicit_channel(self):
        g = make_group([4])
        sys = channel_split_parseval(g)
        with pytest.raises(ValueError, match="channel"):
            multiplier_symbol(sys, sys)
        for channel in (0, 1):
            s = multiplier_symbol(sys, sys, channel=channel)
            assert np.abs(s.values - 1.0).max() < 1e-12


class TestCommutation:
    def test_delta_system_commutes(self):
        g = make_group([6])
        assert commutation_defect(delta_system(g), delta_system(g)) < 1e-12

    def test_full_group_layers_always_commute(self):
        g = make_group([8])
        rng = np.random.default_rng(97)
        f_sys, h_sys = matched_random_pair(rng, g, 1, 2, 2, full_group_layers=True)
        assert commutation_defect(f_sys, h_sys) < 1e-10

    def test_nan_in_matrix_gives_inf(self):
        g = make_group([8])
        f_sys, h_sys = matched_random_pair(np.random.default_rng(1), g, 2, 1, 2,
                                           full_group_layers=True)
        matrix = mixed_dual_gramian(f_sys, h_sys)
        assert commutation_defect(f_sys, h_sys, matrix=matrix) < 1e-12
        matrix[3, 5] = np.nan
        assert commutation_defect(f_sys, h_sys, matrix=matrix) == np.inf

    def test_matrix_of_another_shape_refused(self):
        g = make_group([8])
        f_sys, h_sys = matched_random_pair(np.random.default_rng(1), g, 2, 1, 2)
        matrix = mixed_dual_gramian(f_sys, h_sys)
        with pytest.raises(ValueError, match=r"shape \(8, 8\), expected \(16, 16\)"):
            commutation_defect(f_sys, h_sys, matrix=matrix[:8, :8])

    @pytest.mark.parametrize("convert", [
        lambda m: m.astype(np.int64), lambda m: m.astype(np.float32),
        lambda m: m.astype(np.float64), lambda m: m.tolist()],
        ids=["int64", "float32", "float64", "list"])
    def test_matrix_read_as_complex_values(self, convert):
        # Z8: conjugating by T_x, x != 0, moves the one off-diagonal 1, so the defect is
        # sqrt(2) whatever the dtype the matrix is given in.
        g = make_group([8])
        sys = delta_system(g)
        matrix = np.zeros((8, 8))
        matrix[0, 1] = 1.0
        expected = commutation_defect(sys, sys, matrix=matrix.astype(np.complex128))
        assert expected == pytest.approx(2 ** 0.5)
        assert commutation_defect(sys, sys, matrix=convert(matrix)) == expected

    def test_matches_permutation_matrices_on_acceptance_corpus(self):
        cases = sweep_cases(seed=20240801)
        assert any(case.f_system.channels > 1 for case in cases)
        for case in cases:
            matrix = mixed_dual_gramian(case.f_system, case.h_system)
            defect = commutation_defect(case.f_system, case.h_system, matrix=matrix)
            expected = loop_commutation_defect(case.f_system, matrix)
            assert abs(defect - expected) <= 1e-12 * max(1.0, expected), case.name

    @pytest.mark.parametrize("orders", [(256,), (16, 16)], ids=["Z256", "Z16xZ16"])
    def test_at_the_cap_in_bounded_memory(self, orders):
        # All 256 translates of a 256x256 Theta at once would take ~130 MB.
        g = make_group(list(orders))
        rng = np.random.default_rng(sum(orders))
        matrix = rng.standard_normal((g.size, g.size)) + 1j * rng.standard_normal((g.size, g.size))
        sys = delta_system(g)
        tracemalloc.start()
        try:
            defect = commutation_defect(sys, sys, matrix=matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        # D_x[i, j] = Theta[i, j + x] - Theta[i - x, j], over every x.
        res = g.residue_matrix()
        expected = max(
            np.linalg.norm(matrix[:, g_plus] - matrix[g_minus, :])
            for g_plus, g_minus in (
                ([g.index_of(r + x) for r in res], [g.index_of(r - x) for r in res])
                for x in res
            )
        )
        assert abs(defect - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("channels", [1, 2])
    def test_group_where_every_point_is_its_own_negative(self, channels):
        g = make_group([2, 2, 2])
        f_sys, h_sys = matched_random_pair(np.random.default_rng(8), g, channels, 2, 2)
        matrix = mixed_dual_gramian(f_sys, h_sys)
        defect = commutation_defect(f_sys, h_sys, matrix=matrix)
        expected = loop_commutation_defect(f_sys, matrix)
        assert expected > 0.1
        assert abs(defect - expected) <= 1e-12 * expected

    def test_trivial_group(self):
        g = make_group([1])
        sys = delta_system(g, channels=2)
        matrix = mixed_dual_gramian(sys, sys)
        assert commutation_defect(sys, sys, matrix=matrix) == 0.0
        matrix[0, 1] = np.nan
        assert commutation_defect(sys, sys, matrix=matrix) == np.inf

    def test_engineered_positive_defect(self):
        g = make_group([4])
        sub = subgroup_from_generators(g, [(2,)])
        sys = SuperSystemDescriptor(
            g, 1, [GtiLayer(sub, [WeightedGenerator(1.0, (delta_signal(g),))])]
        )
        defect = commutation_defect(sys, sys)
        assert defect > 1.0
        table = fiber_table(sys, sys)
        (row,) = np.flatnonzero(table.offset_indices == g.index_of((2,)))
        assert np.abs(table.stack[row]).max() > 0.5

    def test_defect_zero_iff_fibers_vanish(self):
        rng = np.random.default_rng(101)
        for _ in range(6):
            g = make_group([8])
            f_sys, h_sys = matched_random_pair(rng, g, 1, 2, 2)
            defect = commutation_defect(f_sys, h_sys)
            table = fiber_table(f_sys, h_sys)
            off_translation = np.abs(table.stack[table.offset_indices != 0]).max(initial=0.0)
            tol = 1e-9
            assert (defect <= tol) == (off_translation <= tol)


class TestQuadraticSeries:
    def test_dual_pair_constant_form(self):
        g = make_group([8])
        rng = np.random.default_rng(103)
        f_sys, h_sys = dual_pair(rng, g, channels=1)
        f = random_signal(g, 104)
        rep = quadratic_form_series(f_sys, h_sys, f)
        energy = f.norm() ** 2
        assert np.abs(rep.quadratic_values - energy).max() < 1e-9 * energy
        for offset, coeff in rep.offset_coefficients.items():
            expected = energy if offset == (0,) else 0.0
            assert coeff == pytest.approx(expected, abs=1e-9 * energy)

    def test_zero_signal(self):
        g = make_group([4])
        sys = delta_system(g)
        rep = quadratic_form_series(sys, sys, Signal(g, np.zeros(4)))
        assert np.abs(rep.quadratic_values).max() == 0.0
        assert rep.series_residual == 0.0

    def test_random_pair_series_identity(self):
        g = make_group([8])
        rng = np.random.default_rng(107)
        f_sys, h_sys = matched_random_pair(rng, g, 1, 2, 3)
        f = random_signal(g, 108)
        rep = quadratic_form_series(f_sys, h_sys, f)
        scale = max(1.0, float(np.abs(rep.quadratic_values).max()))
        assert rep.series_residual < 1e-9 * scale


def _structured_check(kind, f_windows, h_windows, translation, modulation, tol):
    """One structured duality check; the dilated kinds use the identity."""
    autos = [identity_automorphism(translation.parent)]
    if kind == "gabor":
        return check_gabor_duality(f_windows, h_windows, translation, modulation, tol=tol)
    if kind == "wavelet":
        return check_wavelet_duality(f_windows, h_windows, autos, translation, tol=tol)
    return check_wavepacket_duality(f_windows, h_windows, autos, translation, modulation,
                                    tol=tol)


class TestSpecializedChecks:
    @pytest.mark.parametrize("kind", ["gabor", "wavelet", "wavepacket"])
    def test_overflow_refused(self, kind):
        # Every window sample is finite; the fiber products pass the float64
        # range, and the Gabor periodization then sums inf against -inf.
        g = make_group([16])
        lattice = subgroup_from_generators(g, [(4,)])
        window = Signal(g, np.r_[np.full(4, 1e160), np.zeros(12)])
        with pytest.raises(ValueError, match="fiber table overflows float64"):
            _structured_check(kind, [[window]], [[window]], lattice, lattice, tol=1.0)

    @pytest.mark.parametrize("kind", ["gabor", "wavelet", "wavepacket"])
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_given_tolerance_refused_before_any_transform(self, kind, tol, monkeypatch):
        import gtiframes.characterization as characterization

        def refuse(*args, **kwargs):
            raise AssertionError("a window was transformed before the tolerance was checked")

        g = make_group([12])
        lattice = subgroup_from_generators(g, [(2,)])
        window = random_signal(g, 5)
        monkeypatch.setattr(characterization, "dft", refuse)
        with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
            _structured_check(kind, [[window]], [[window]], lattice, lattice, tol=tol)

    @pytest.mark.parametrize("kind", ["gabor", "wavelet", "wavepacket"])
    def test_nan_window_fails_closed(self, kind):
        g = make_group([16])
        lattice = subgroup_from_generators(g, [(4,)])
        window = random_signal(g, 5)
        broken = Signal(g, window.values.copy())
        broken.values[3] = np.nan
        verdict = _structured_check(kind, [[window]], [[broken]], lattice, lattice, tol=1.0)
        assert not verdict.passed and verdict.max_residual == np.inf

    def test_gabor_trivial_reduces_to_delta(self):
        g = make_group([4])
        verdict = check_gabor_duality(
            [[delta_signal(g)]],
            [[delta_signal(g)]],
            full_subgroup(g),
            subgroup_from_generators(g, []),
        )
        assert verdict.passed

    def test_wavelet_identity_trivial_case(self):
        g = make_group([4])
        verdict = check_wavelet_duality(
            [[delta_signal(g)]],
            [[delta_signal(g)]],
            [identity_automorphism(g)],
            full_subgroup(g),
        )
        assert verdict.passed

    def test_gabor_three_way_agreement(self):
        g = make_group([6])
        rng = np.random.default_rng(109)
        gamma = subgroup_from_generators(g, [(2,)])
        lam = subgroup_from_generators(g, [(3,)])
        fw = [(random_signal(g, rng),) for _ in range(2)]
        hw = [(random_signal(g, rng),) for _ in range(2)]
        specialized = check_gabor_duality(fw, hw, gamma, lam)
        f_sys = gabor_system(fw, gamma, lam)
        h_sys = gabor_system(hw, gamma, lam)
        generic = check_super_duality(f_sys, h_sys)
        assert specialized.max_residual == pytest.approx(generic.max_residual, abs=1e-10)
        oracle = gramian_identity_residual(mixed_dual_gramian(f_sys, h_sys))
        assert specialized.passed == (oracle <= specialized.tolerance)
        assert generic.passed == specialized.passed

    def test_wavelet_coherence_with_generic(self):
        g = make_group([8])
        rng = np.random.default_rng(113)
        gamma = subgroup_from_generators(g, [(4,)])
        autos = [automorphism_from_matrix(g, [[3]]), automorphism_from_matrix(g, [[5]])]
        fw = [(random_signal(g, rng),)]
        hw = [(random_signal(g, rng),)]
        specialized = check_wavelet_duality(fw, hw, autos, gamma)
        generic = check_super_duality(
            wavelet_system(fw, autos, gamma), wavelet_system(hw, autos, gamma)
        )
        assert specialized.max_residual == pytest.approx(generic.max_residual, abs=1e-10)

    def test_wavepacket_coherence_with_generic(self):
        g = make_group([3, 3])
        rng = np.random.default_rng(127)
        gamma = subgroup_from_generators(g, [(1, 0)])
        lam = subgroup_from_generators(g, [(0, 1)])
        autos = [identity_automorphism(g), automorphism_from_matrix(g, [[1, 1], [0, 1]])]
        fw = [(random_signal(g, rng), random_signal(g, rng))]
        hw = [(random_signal(g, rng), random_signal(g, rng))]
        specialized = check_wavepacket_duality(fw, hw, autos, gamma, lam)
        generic = check_super_duality(
            wavepacket_system(fw, autos, gamma, lam),
            wavepacket_system(hw, autos, gamma, lam),
        )
        assert specialized.max_residual == pytest.approx(generic.max_residual, abs=1e-10)

    @pytest.mark.parametrize("orders", [(8,), (12,), (2, 4), (3, 3), (4, 4), (16, 32)], ids=str)
    def test_structured_fibers_match_expanded(self, orders):
        # Every offset and frequency, against the fibers of the expanded
        # wave-packet system (identity dilation for Gabor, trivial modulation
        # for wavelets).  Z16 x Z32 is above the cap, where the expanded table
        # sums one product per dilation level over that level's annihilator.
        g = make_group(orders)
        rng = np.random.default_rng(sum(orders) * len(orders))
        subgroups = all_small_subgroups(g)
        distinct = 0
        for kind in ("gabor", "wavelet", "wavepacket"):
            for _ in range(3):
                translation, modulation = (
                    subgroups[int(i)] for i in rng.integers(len(subgroups), size=2)
                )
                channels, count = (int(v) for v in rng.integers(1, 3, size=2))
                fw, hw = (
                    [tuple(random_signal(g, rng) for _ in range(channels)) for _ in range(count)]
                    for _ in range(2)
                )
                autos = [random_automorphism(rng, g) for _ in range(int(rng.integers(1, 4)))]
                if kind == "gabor":
                    autos = None
                if kind == "wavelet":
                    modulation = None
                table, _ = _structured_fibers(fw, hw, autos, translation, modulation)
                levels = autos or [identity_automorphism(g)]
                lam = modulation or subgroup_from_generators(g, [])
                f_sys = wavepacket_system(fw, levels, translation, lam)
                expanded = fiber_table(f_sys, wavepacket_system(hw, levels, translation, lam))
                assert np.array_equal(table.offset_indices, expanded.offset_indices)
                scale = max(1.0, float(np.abs(expanded.stack).max()))
                assert np.abs(table.stack - expanded.stack).max() <= 1e-12 * scale
                distinct += len({layer.subgroup.annihilator.indices.tobytes()
                                 for layer in f_sys.layers}) > 1
        # Above the cap some level annihilators differ, so the per-layer products add up.
        assert distinct > 0 or g.size <= 256

    @pytest.mark.parametrize(
        "orders, step, foreign, foreign_step, tol",
        [(8, 2, 4, 2, 1e-9), (8, 2, 4, 2, None), (512, 8, 256, 4, None)],
        ids=["Z8-tol", "Z8-default", "Z512-above-cap"],
    )
    def test_foreign_lattice_refused(self, orders, step, foreign, foreign_step, tol):
        # A modulation subgroup (or automorphism) of another group is refused
        # with or without a tolerance, below and above the cap; it used to
        # give a verdict from the other group's cosets.
        g, other = make_group([orders]), make_group([foreign])
        gamma = subgroup_from_generators(g, [(step,)])
        lam = subgroup_from_generators(g, [(orders // 2,)])
        bad_lam = subgroup_from_generators(other, [(foreign_step,)])
        w = [(random_signal(g, 3),)]
        autos = [identity_automorphism(g)]
        with pytest.raises(ValueError, match="modulation subgroup"):
            check_gabor_duality(w, w, gamma, bad_lam, tol=tol)
        with pytest.raises(ValueError, match="modulation subgroup"):
            check_wavepacket_duality(w, w, autos, gamma, bad_lam, tol=tol)
        with pytest.raises(ValueError, match="automorphism group"):
            check_wavelet_duality(w, w, [identity_automorphism(other)], gamma, tol=tol)
        with pytest.raises(ValueError, match="automorphism group"):
            check_wavepacket_duality(w, w, [identity_automorphism(other)], gamma, lam, tol=tol)

    def test_empty_automorphism_list_refused(self):
        g = make_group([4])
        windows = [[delta_signal(g)]]
        with pytest.raises(ValueError, match="automorphism"):
            check_wavelet_duality(windows, windows, [], full_subgroup(g), tol=1e-9)

    def test_random_automorphism_cases(self):
        rng = np.random.default_rng(131)
        for orders in [(8,), (2, 4), (3, 3)]:
            g = make_group(orders)
            gamma = subgroup_from_generators(g, [g.element_at(g.size // 2)])
            autos = [random_automorphism(rng, g) for _ in range(2)]
            fw = [(random_signal(g, rng),)]
            hw = [(random_signal(g, rng),)]
            specialized = check_wavelet_duality(fw, hw, autos, gamma)
            generic = check_super_duality(
                wavelet_system(fw, autos, gamma), wavelet_system(hw, autos, gamma)
            )
            assert specialized.max_residual == pytest.approx(
                generic.max_residual, abs=1e-10
            )


class TestVerdictProperties:
    def test_scale_covariance_of_fibers(self):
        g = make_group([8])
        rng = np.random.default_rng(137)
        f_sys, h_sys = matched_random_pair(rng, g, 2, 2, 2)
        c = 0.7 - 1.3j
        table = fiber_table(f_sys, h_sys)
        for layer in f_sys.layers:
            for gen in layer.generators:
                for w in gen.windows:
                    w.values *= c
        for layer in h_sys.layers:
            for gen in layer.generators:
                for w in gen.windows:
                    w.values *= 1.0 / np.conj(c)
        rescaled = fiber_table(f_sys, h_sys)
        assert np.array_equal(table.offset_indices, rescaled.offset_indices)
        for block, again in zip(table.stack, rescaled.stack):
            assert np.abs(block - again).max() < 1e-12 * max(1.0, np.abs(block).max())

    def test_tolerance_monotonicity(self):
        g = make_group([8])
        rng = np.random.default_rng(139)
        f_sys, h_sys = dual_pair(rng, g, channels=1)
        loose = check_super_duality(f_sys, h_sys, tol=1e-6)
        tight = check_super_duality(f_sys, h_sys, tol=1e-16)
        assert loose.max_residual == tight.max_residual
        assert loose.passed or not tight.passed  # tightening never flips fail -> pass

    def test_witnesses_sorted_and_truncated(self):
        g = make_group([8])
        rng = np.random.default_rng(149)
        f_sys, h_sys = matched_random_pair(rng, g, 2, 2, 2)
        verdict = check_super_duality(f_sys, h_sys, top_k=3)
        assert len(verdict.witnesses) == 3
        residuals = [w.residual for w in verdict.witnesses]
        assert residuals == sorted(residuals, reverse=True)
        assert verdict.max_residual == residuals[0]

    def test_nan_window_fails_closed(self):
        g = make_group([8])
        f_sys, h_sys = dual_pair(np.random.default_rng(3), g, 2)
        h_sys.layers[0].generators[0].windows[1].values[3] = np.nan
        verdict = check_super_duality(f_sys, h_sys, tol=1e-9)
        assert not verdict.passed
        assert verdict.max_residual == np.inf
        assert np.isnan(verdict.witnesses[0].residual)
        assert not verdict.blocks[(1, 1)].passed

    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
    def test_invalid_tolerance_refused(self, tol):
        # NaN ranks as +inf, and inf <= inf: an infinite tolerance would pass it.
        g = make_group([4])
        window = random_signal(g, 5)
        window.values[1] = np.nan
        sys = SuperSystemDescriptor(
            g, 1, [GtiLayer(full_subgroup(g), [WeightedGenerator(1.0, (window,))])]
        )
        with pytest.raises(ValueError, match="tolerance must be finite and non-negative"):
            check_parseval_super(sys, tol=tol)

    def test_bessel_bound_recorded(self):
        g = make_group([4])
        verdict = check_super_duality(delta_system(g), delta_system(g))
        assert verdict.bessel_bound == pytest.approx(1.0, abs=1e-9)


def _nan_dual_pair():
    f_sys, h_sys = dual_pair(np.random.default_rng(3), make_group([8]), 2)
    h_sys.layers[0].generators[0].windows[1].values[3] = np.nan
    return f_sys, h_sys


def _two_layer_pair():
    g = make_group([12])
    # Annihilators {0, 6} and {0, 4, 8}: four offsets, two of them in one layer only.
    subs = [subgroup_from_generators(g, [(2,)]), subgroup_from_generators(g, [(3,)])]
    rng = np.random.default_rng(151)
    return tuple(random_descriptor(rng, g, 2, 2, 2, subgroups=subs) for _ in range(2))


class TestVerdictAssembly:
    """The fiber verdicts against the per-pair loop reference, on full witness
    lists: same witnesses in the same order, same blocks."""

    @staticmethod
    def key(verdict):
        witnesses = [(w.channels, w.offset, w.frequency, repr(w.residual))
                     for w in verdict.witnesses]
        return verdict.passed, repr(verdict.max_residual), verdict.tolerance, witnesses

    @pytest.mark.parametrize(
        "pair",
        [
            _two_layer_pair,
            lambda: (delta_system(make_group([6]), 2), delta_system(make_group([6]), 2)),
            lambda: (channel_split_parseval(make_group([4])),) * 2,
            _nan_dual_pair,
        ],
        ids=["two-layers", "delta-ties", "channel-split", "nan-window"],
    )
    def test_matches_loop_reference(self, pair):
        f_sys, h_sys = pair()
        table = fiber_table(f_sys, h_sys)
        top_k = 10**6
        for check, dual in ((check_super_duality, True), (check_orthogonality, False)):
            verdict = check(f_sys, h_sys, tol=1e-9, top_k=top_k)
            reference = loop_fiber_verdict(table, 1e-9, top_k, dual)
            assert len(verdict.witnesses) == table.offset_indices.size * f_sys.channels ** 2
            assert self.key(verdict) == self.key(reference)
            if dual:
                assert verdict.blocks.keys() == reference.blocks.keys()
                for pair_key, block in verdict.blocks.items():
                    assert self.key(block) == self.key(reference.blocks[pair_key])
            else:
                assert verdict.blocks is None


def _variants(f_sys, h_sys):
    """The pair, its Parseval form (h is f), the pair with its first generator
    weighted 0, with an extra layer holding no generators, and with no live
    generator at all."""
    group = f_sys.group

    def rebuilt(system, weight=None, extra=()):
        layers = [GtiLayer(layer.subgroup, [
            WeightedGenerator(gen.weight if weight is None or (j, p) != (0, 0) else weight,
                              gen.windows)
            for p, gen in enumerate(layer.generators)]) for j, layer in enumerate(system.layers)]
        return SuperSystemDescriptor(group, system.channels, layers + list(extra))

    def silent(system):
        layers = [GtiLayer(layer.subgroup, [WeightedGenerator(0.0, gen.windows)
                                            for gen in layer.generators])
                  for layer in system.layers]
        return SuperSystemDescriptor(group, system.channels, layers)

    empty = GtiLayer(all_small_subgroups(group)[1], [])
    yield f_sys, h_sys
    yield f_sys, f_sys
    yield rebuilt(f_sys, weight=0.0), rebuilt(h_sys, weight=0.0)
    yield rebuilt(f_sys, extra=[empty]), rebuilt(h_sys, extra=[empty])
    yield silent(f_sys), silent(h_sys)


class TestBlockBounds:
    """Upper frame bounds from coset blocks against the dense oracle."""

    @pytest.mark.parametrize("seed", [20240801, 7, 5])
    def test_block_bounds_match_dense_bounds(self, seed):
        distinct = 0
        for case in sweep_cases(seed=seed):
            live = [layer.subgroup.annihilator.indices.tobytes()
                    for layer in case.f_system.layers if layer.generators]
            distinct += len(set(live)) > 1
            for f_sys, h_sys in _variants(case.f_system, case.h_system):
                dense_f = frame_bounds(f_sys).upper
                dense_h = dense_f if h_sys is f_sys else frame_bounds(h_sys).upper
                b_f, b_h = _block_pass(f_sys, h_sys, True)[1]
                np.testing.assert_allclose([b_f, b_h], [dense_f, dense_h], rtol=1e-13, atol=0)
                tol, bessel = default_tolerance(f_sys, h_sys)
                scale = max(1.0, (dense_f * dense_h) ** 0.5)
                np.testing.assert_allclose([tol, bessel], [1e-9 * scale, max(dense_f, dense_h)],
                                           rtol=1e-13, atol=0)
                verdict = check_super_duality(f_sys, h_sys)
                assert (verdict.tolerance, verdict.bessel_bound) == (tol, bessel)
        # Multi-layer systems whose annihilators differ take the masked blocks.
        assert distinct > 0

    def test_no_live_generator_has_zero_bounds(self):
        case = sweep_cases(seed=5)[0]
        *_, (f_sys, h_sys) = _variants(case.f_system, case.h_system)
        assert _block_pass(f_sys, h_sys, True)[1] == (0.0, 0.0)
        assert default_tolerance(f_sys, h_sys) == (1e-9, 0.0)
        assert (frame_bounds(f_sys).lower, frame_bounds(f_sys).upper) == (0.0, 0.0)

    def test_tolerance_path_builds_no_dense_operator(self, monkeypatch):
        import gtiframes.analysis as analysis

        def refuse(*args, **kwargs):
            raise AssertionError("dense operator built on the tolerance path")

        monkeypatch.setattr(analysis, "mixed_dual_gramian", refuse)
        monkeypatch.setattr(analysis, "frame_bounds", refuse)
        case = next(c for c in sweep_cases(seed=7) if len(c.f_system.layers) > 1)
        tol, bessel = default_tolerance(case.f_system, case.h_system)
        verdict = check_super_duality(case.f_system, case.h_system)
        assert (verdict.tolerance, verdict.bessel_bound) == (tol, bessel)
        assert bessel is not None and bessel > 0


def _assert_definition_table(table, f_sys, h_sys, name=None):
    """Offsets and layer mask exactly, the stack within 1e-13 of the largest fiber."""
    offsets, mask, stack = definition_fiber_table(f_sys, h_sys)
    assert np.array_equal(table.offset_indices, offsets), name
    assert np.array_equal(table.layer_mask, mask), name
    scale = max(1.0, np.abs(stack).max())
    assert np.abs(table.stack - stack).max() <= 1e-13 * scale, name


class TestBlockPass:
    """Fiber tables from the coset-block pass, over the joint annihilator below the cap
    and per layer above it, against the fiber definition (`definition_fiber_table`);
    below the cap default tolerances come from the same pass."""

    @pytest.mark.parametrize("seed", [20240801, 7, 5])
    def test_matches_fiber_definition(self, seed):
        multi = 0
        for case in sweep_cases(seed=seed):
            f_sys, h_sys = case.f_system, case.h_system
            multi += len(f_sys.layers) > 1
            _assert_definition_table(fiber_table(f_sys, h_sys), f_sys, h_sys, case.name)
            tol, bessel = default_tolerance(f_sys, h_sys)
            assert bessel == max(_block_pass(f_sys, h_sys, True)[1])
            for check in (check_super_duality, check_orthogonality):
                verdict = check(f_sys, h_sys)
                assert (verdict.tolerance, verdict.bessel_bound) == (tol, bessel), case.name
        assert multi > 0

    def test_layer_without_generators_outside_the_live_joint(self):
        # Z12: the live layer's annihilator {0, 6} and the empty layer's {0, 4, 8}
        # generate <2>; the empty layer's offsets 4 and 8 hold zeros.
        g = make_group([12])
        f_sys, h_sys = matched_random_pair(np.random.default_rng(5), g, 2, 1, 2)
        sub, other = subgroup_from_generators(g, [(2,)]), subgroup_from_generators(g, [(3,)])
        f_sys, h_sys = (SuperSystemDescriptor(g, 2, [GtiLayer(sub, s.layers[0].generators),
                                                     GtiLayer(other, [])]) for s in (f_sys, h_sys))
        table = fiber_table(f_sys, h_sys)
        assert table.offset_indices.tolist() == [0, 4, 6, 8]
        assert table.layer_mask.tolist() == [[True, True], [False, True], [True, False],
                                             [False, True]]
        assert np.abs(table.stack[[1, 3]]).max() == 0.0
        _assert_definition_table(table, f_sys, h_sys)
        dense_f, dense_h = frame_bounds(f_sys).upper, frame_bounds(h_sys).upper
        np.testing.assert_allclose(_block_pass(f_sys, h_sys, True)[1], [dense_f, dense_h],
                                   rtol=1e-13)

    @pytest.mark.parametrize("orders, channels", [((16, 32), 1), ((144,), 2), ((8, 8, 8), 1)],
                             ids=["Z16xZ32", "Z144-N2", "Z8xZ8xZ8"])
    def test_above_the_cap_one_product_per_layer(self, orders, channels):
        # Layers of 1, 3 and 0 generators over their own annihilators, read from one
        # zero-padded transform; the empty layer's offsets hold zeros.
        g = make_group(list(orders))
        f_sys, h_sys = matched_random_pair(np.random.default_rng(sum(orders)), g, channels, 3, 3)
        f_sys, h_sys = (SuperSystemDescriptor(g, channels, [
            GtiLayer(layer.subgroup, layer.generators[:count])
            for layer, count in zip(s.layers, (1, 3, 0))]) for s in (f_sys, h_sys))
        assert g.size * channels > 256
        assert len({layer.subgroup.annihilator.indices.tobytes() for layer in f_sys.layers}) > 1
        for h in (h_sys, f_sys):
            _assert_definition_table(fiber_table(f_sys, h), f_sys, h)

    def test_above_the_cap_a_dead_layer_adds_offsets_but_no_product(self):
        # Z16xZ32 at N = 2: a live layer on the whole group (annihilator {0}) and an
        # all-weight-0 layer on the trivial subgroup (annihilator G).  The table holds
        # |G| offsets of zero fibers besides offset 0; building a product on G for the
        # dead layer would more than triple the peak.
        g, n = make_group([16, 32]), 2
        live = matched_random_pair(np.random.default_rng(3), g, n, 1, 2, full_group_layers=True)
        trivial = subgroup_from_generators(g, [])
        f_sys, h_sys = (SuperSystemDescriptor(g, n, [s.layers[0], GtiLayer(trivial, [
            WeightedGenerator(0.0, gen.windows) for gen in s.layers[0].generators])])
            for s in live)
        expected = np.zeros((g.size, n, n, g.size), dtype=np.complex128)
        expected[0] += fiber_table(*live).stack[0]
        tracemalloc.start()
        try:
            table = fiber_table(f_sys, h_sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.offset_indices.tolist() == list(range(g.size))
        assert table.layer_mask.tolist() == [[True, True]] + [[False, True]] * (g.size - 1)
        assert table.stack.tobytes() == expected.tobytes()
        assert peak <= 1.25 * table.stack.nbytes

    def test_above_the_cap_no_live_generator_gives_zero_table(self):
        # Z16xZ32 at N = 1, two layers on <(1,0)> and <(0,4)> of weight-0 generators only:
        # no layer adds a part, and the table is the 32 + 64 - 4 = 92 offsets of the two
        # annihilators' union, all zero.  Duality then misses the identity by 1.
        g = make_group([16, 32])
        f_sys, h_sys = (SuperSystemDescriptor(g, 1, [
            GtiLayer(subgroup_from_generators(g, [gen]),
                     [WeightedGenerator(0.0, (random_signal(g, side + 2 * p),)) for p in range(2)])
            for gen in [(1, 0), (0, 4)]]) for side in (0, 1))
        assert g.size * f_sys.channels > 256
        table = fiber_table(f_sys, h_sys)
        offsets, mask, stack = definition_fiber_table(f_sys, h_sys)
        assert offsets.size == 92 and not stack.any()
        assert table.offset_indices.tobytes() == offsets.tobytes()
        assert table.layer_mask.tobytes() == mask.tobytes()
        assert table.stack.tobytes() == stack.tobytes()
        dual = check_super_duality(f_sys, h_sys)
        assert (dual.passed, dual.max_residual, dual.tolerance) == (False, 1.0, RAW_TOLERANCE)
        assert check_orthogonality(f_sys, h_sys).passed

    @staticmethod
    def _gabor_wide_pair(corrupt: bool):
        """A Gabor pair on Z1024 over Gamma = <16> and Lambda = <32>, of one window on 32
        points and its painless dual h = g / (a M sum_k |g(x - k a)|^2), one dual sample
        scaled by 1 + 1e-3 when `corrupt`: above the cap, 32 generators on one layer."""
        g, a, m = make_group([1024]), 16, 32
        rng = np.random.default_rng(3)
        window = np.zeros(g.size, dtype=np.complex128)
        window[:m] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        dual = window / (a * m * sum(np.abs(np.roll(window, k * a)) ** 2
                                     for k in range(g.size // a)))
        if corrupt:
            dual[rng.integers(m)] *= 1 + 1e-3
        gamma = subgroup_from_generators(g, [(a,)])
        lam = subgroup_from_generators(g, [(g.size // m,)])
        return tuple(gabor_system([[Signal(g, w)]], gamma, lam) for w in (window, dual))

    @pytest.mark.parametrize("corrupt", [False, True], ids=["painless", "corrupted"])
    def test_above_the_cap_gabor_pair_from_one_workspace(self, corrupt):
        # The workspace pass (windows transformed in place, F and H blocks gathered into
        # one buffer) against the fiber definition, for the pair and for F with itself;
        # the duality verdict is the reference verdict of the definition's table.
        f_sys, h_sys = self._gabor_wide_pair(corrupt)
        assert f_sys.group.size * f_sys.channels > 256
        for h in (h_sys, f_sys):
            _assert_definition_table(fiber_table(f_sys, h), f_sys, h)
            offsets, mask, stack = definition_fiber_table(f_sys, h)
            reference = loop_fiber_verdict(FiberTable(f_sys.group, 1, offsets, stack, mask),
                                           RAW_TOLERANCE, 10, True)
            verdict = check_super_duality(f_sys, h)
            assert verdict.passed == reference.passed
            assert verdict.passed == (h is h_sys and not corrupt)
            scale = max(1.0, reference.max_residual)
            assert abs(verdict.max_residual - reference.max_residual) <= 1e-13 * scale

    def test_above_the_cap_gabor_pass_peak(self):
        # One buffer holds the 32 packed windows, transformed in place, and the layer's
        # F and H coset blocks; besides it the pass holds the layer's Gramian, the table
        # and the table's int64 `take` index (rebuilt per call, half the table's bytes).
        f_sys, h_sys = self._gabor_wide_pair(False)
        fiber_table(f_sys, h_sys)  # kept index tables are built outside the trace
        tracemalloc.start()
        try:
            table = fiber_table(f_sys, h_sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size, count, order = f_sys.group.size, 32, 16  # |G|, generators, |A| = |<64>|
        windows = blocks = 2 * count * size * 16
        gramian = (size // order) * order * order * 16
        assert table.stack.nbytes == order * size * 16
        assert peak <= windows + blocks + gramian + 1.5 * table.stack.nbytes + 64 * 1024


def _with_dead_generator(system, p):
    """The system with generator p of its last layer at weight 0."""
    *rest, last = system.layers
    gens = list(last.generators)
    gens[p] = WeightedGenerator(0.0, gens[p].windows)
    return SuperSystemDescriptor(system.group, system.channels,
                                 [*rest, GtiLayer(last.subgroup, gens)])


def _with_nan_dead_generator(system):
    """The system with one more generator in its first layer, of weight 0, whose windows
    hold a NaN sample."""
    group = system.group
    first, *rest = system.layers
    windows = []
    for _ in range(system.channels):
        values = np.ones(group.size, dtype=np.complex128)
        values[1] = np.nan
        windows.append(Signal(group, values))
    dead = WeightedGenerator(0.0, tuple(windows))
    return SuperSystemDescriptor(group, system.channels,
                                 [GtiLayer(first.subgroup, [*first.generators, dead]), *rest])


class TestNonFiniteWindows:
    """One rule for a NaN or inf window sample of a live generator: below the cap a default
    tolerance and the dense oracle name the first one, F before H, by the layer index of the
    descriptor; at a given tolerance, and above the cap, the table is left non-finite and the
    verdict fails closed.  A weight-0 generator is not part of its system: no route reads it."""

    @pytest.mark.parametrize("orders, channels, layers", [((8,), 1, 1), ((2, 4), 2, 2),
                                                          ((3, 3), 1, 3)])
    def test_dead_generator_is_not_read(self, orders, channels, layers):
        g = make_group(list(orders))
        f_sys, h_sys = dual_pair(np.random.default_rng(3), g, channels, layers)
        f_dead, h_dead = _with_nan_dead_generator(f_sys), _with_nan_dead_generator(h_sys)
        clean, dead = fiber_table(f_sys, h_sys), fiber_table(f_dead, h_dead)
        assert np.array_equal(dead.offset_indices, clean.offset_indices)
        assert np.array_equal(dead.layer_mask, clean.layer_mask)
        assert dead.stack.tobytes() == clean.stack.tobytes()
        assert _block_pass(f_dead, h_dead, True)[1] == _block_pass(f_sys, h_sys, True)[1]
        dense = mixed_dual_gramian(f_dead, h_dead)
        frame = mixed_dual_gramian(f_dead, f_dead)
        for tol in (None, 1e-9):
            verdict = check_super_duality(f_dead, h_dead, tol=tol)
            assert verdict == check_super_duality(f_sys, h_sys, tol=tol)
            assert verdict.passed == (gramian_identity_residual(dense) <= verdict.tolerance)
            assert verdict.passed
            parseval = check_parseval_super(f_dead, tol=tol)
            assert parseval == check_parseval_super(f_sys, tol=tol)
            assert parseval.passed == (gramian_identity_residual(frame) <= parseval.tolerance)

    def test_named_sample_keeps_the_layer_index(self):
        g = make_group([8])
        f_sys, h_sys = matched_random_pair(np.random.default_rng(11), g, 1, 1, 3)
        f_sys, h_sys = (SuperSystemDescriptor(g, 1, [GtiLayer(full_subgroup(g), []), *s.layers])
                        for s in (f_sys, h_sys))
        f_sys.layers[1].generators[2].windows[0].values[5] = np.nan
        message = "layer 1 generator 2 window 0 has a non-finite value at index 5"
        for call in (check_super_duality, default_tolerance):
            with pytest.raises(ValueError, match=message):
                call(f_sys, h_sys)

    def test_first_live_sample_named_f_before_h(self):
        g = make_group([8])
        f_sys, h_sys = matched_random_pair(np.random.default_rng(12), g, 2, 1, 3)
        live_f, live_h = f_sys, h_sys
        live_f.layers[0].generators[1].windows[1].values[6] = np.nan
        live_h.layers[0].generators[0].windows[0].values[2] = np.inf
        f_sys, h_sys = matched_random_pair(np.random.default_rng(13), g, 2, 1, 3)
        dead_f, dead_h = _with_dead_generator(f_sys, 0), _with_dead_generator(h_sys, 0)
        dead_f.layers[0].generators[0].windows[0].values[1] = np.nan
        dead_h.layers[0].generators[2].windows[1].values[4] = np.nan
        cases = [(live_f, live_h, "F: layer 0 generator 1 window 1 has a non-finite value at "
                                  "index 6"),
                 (dead_f, dead_h, "H: layer 0 generator 2 window 1 has a non-finite value at "
                                  "index 4")]
        for f_sys, h_sys, message in cases:
            for call in (check_super_duality, default_tolerance, mixed_dual_gramian):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    call(f_sys, h_sys)
            verdict = check_super_duality(f_sys, h_sys, tol=1e-9)
            assert not verdict.passed and verdict.max_residual == np.inf

    def test_structured_verdicts_name_the_callers_window(self):
        # Below the cap a default-tolerance structured verdict names the sample by its
        # place in the window lists, before it expands anything: the expanded system
        # would name Gabor generator 2, and a wavelet pair dilated by 3 index 3.
        g = make_group([8])
        gamma = subgroup_from_generators(g, [(2,)])
        lam = subgroup_from_generators(g, [(4,)])
        f_windows = [[random_signal(g, 1)], [random_signal(g, 2)]]
        h_windows = [[random_signal(g, 3)], [random_signal(g, 4)]]
        h_windows[1][0].values[1] = np.nan
        message = "^H: windows entry 1 window 0 has a non-finite value at index 1$"
        dilation = [automorphism_from_matrix(g, [[3]])]
        for call in (lambda: check_gabor_duality(f_windows, h_windows, gamma, lam),
                     lambda: check_wavelet_duality(f_windows, h_windows, dilation, gamma)):
            with pytest.raises(ValueError, match=message):
                call()
        # At a given tolerance the table is left to fail closed.
        verdict = check_gabor_duality(f_windows, h_windows, gamma, lam, tol=1e-9)
        assert not verdict.passed and verdict.max_residual == np.inf

    def test_above_the_cap_fails_closed(self):
        g = make_group([512])
        sub = subgroup_from_generators(g, [(4,)])
        rng = np.random.default_rng(14)
        f_sys, h_sys = (random_descriptor(rng, g, 1, 1, 2, subgroups=[sub]) for _ in range(2))
        h_sys.layers[0].generators[1].windows[0].values[7] = np.nan
        verdict = check_super_duality(f_sys, h_sys)
        assert not verdict.passed and verdict.max_residual == np.inf
        assert (verdict.tolerance, verdict.bessel_bound) == (1e-9, None)
        assert not np.isfinite(fiber_table(f_sys, h_sys).stack).all()


def _fresh(system):
    """The same system over newly built subgroups (no kept tables) of a newly built
    group, which keeps no subgroup yet, and copied windows."""
    group = make_group(system.group.orders)
    subgroups: dict[int, object] = {}

    def fresh_subgroup(sub):
        return subgroups.setdefault(id(sub), subgroup_from_indices(group, sub.indices.tolist()))

    layers = [GtiLayer(fresh_subgroup(layer.subgroup), [
        WeightedGenerator(gen.weight, tuple(Signal(group, w.values.copy()) for w in gen.windows))
        for gen in layer.generators]) for layer in system.layers]
    return SuperSystemDescriptor(group, system.channels, layers)


class TestKeptPlans:
    """Subgroups keep index tables only: every answer equals that of a freshly
    built system, whatever was computed on the same subgroups before."""

    @staticmethod
    def assert_same(pair, reference):
        table, expected = fiber_table(*pair), fiber_table(*reference)
        assert np.array_equal(table.offset_indices, expected.offset_indices)
        assert np.array_equal(table.stack, expected.stack)
        assert default_tolerance(*pair) == default_tolerance(*reference)
        for check in (check_super_duality, check_orthogonality):
            got, want = check(*pair), check(*reference)
            assert (got.passed, got.max_residual, got.tolerance, got.bessel_bound) == (
                want.passed, want.max_residual, want.tolerance, want.bessel_bound)

    @staticmethod
    def kept_tables(*systems):
        subs = {id(s): s for system in systems for layer in system.layers
                for s in (layer.subgroup, layer.subgroup.annihilator)}
        return [t for s in subs.values() for t in s._tables.values()]

    def test_window_changed_in_place_between_calls(self):
        case = next(c for c in sweep_cases(seed=7) if len(c.f_system.layers) > 1)
        f_sys, h_sys = case.f_system, case.h_system
        check_super_duality(f_sys, h_sys)
        assert self.kept_tables(f_sys)
        h_sys.layers[0].generators[0].windows[0].values[1] += 0.5
        f_sys.layers[-1].generators[-1].windows[-1].values[0] *= 3.0
        self.assert_same((f_sys, h_sys), (_fresh(f_sys), _fresh(h_sys)))

    def test_one_annihilator_at_one_then_two_channels(self):
        group = make_group([12])
        sub = subgroup_from_generators(group, [(3,)])
        rng = np.random.default_rng(11)
        for channels in (1, 2):
            f_sys, h_sys = dual_pair(rng, group, channels)
            f_sys, h_sys = (SuperSystemDescriptor(group, channels, [GtiLayer(sub, s.layers[0].generators)])
                            for s in (f_sys, h_sys))
            self.assert_same((f_sys, h_sys), (_fresh(f_sys), _fresh(h_sys)))
        keys = {key for key in sub.annihilator._tables if key[0] in ("columns", "take")}
        assert keys == {("columns", 1), ("columns", 2), ("take", 1), ("take", 2)}

    def test_systems_sharing_subgroups(self):
        group = make_group([8])
        rng = np.random.default_rng(4)
        first = matched_random_pair(rng, group, 2, 2, 2)
        subgroups = [layer.subgroup for layer in first[0].layers]
        second = tuple(random_descriptor(rng, group, 2, 2, 1, subgroups=subgroups) for _ in range(2))
        for pair in (first, second, first):
            self.assert_same(pair, tuple(_fresh(s) for s in pair))
        # What is kept is index arithmetic: integer and boolean tables only.
        kept = self.kept_tables(*first, *second)
        assert kept and all(t.dtype.kind in "bi" for t in kept if isinstance(t, np.ndarray))
