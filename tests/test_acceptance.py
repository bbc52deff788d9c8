"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The sweep corpus (216 seeded cases over the eight desk-scale groups, channel
counts 1-3, 1-3 layers, 1-4 generators per layer, mixing fully random,
full-group, engineered-dual and engineered-orthogonal pairs) is built once;
every criterion that references "the sweep" runs against it.
"""

import time
import zlib
from dataclasses import dataclass

import numpy as np
import pytest

from gtiframes import (
    FiberTable,
    Spectrum,
    check_gabor_duality,
    check_orthogonality,
    check_super_duality,
    check_wavelet_duality,
    check_wavepacket_duality,
    commutation_defect,
    dft,
    dft_naive,
    dilate,
    frame_bounds,
    gabor_canonical_dual,
    gabor_system,
    gramian_identity_residual,
    idft,
    make_group,
    mixed_dual_gramian,
    modulate,
    multiplier_symbol,
    quadratic_form_series,
    random_signal,
    subgroup_from_generators,
    wavelet_system,
    wavepacket_system,
)
from gtiframes.sweeps import (
    all_small_subgroups,
    dual_pair,
    random_automorphism,
    random_subgroup,
    sweep_cases,
)
from gtiframes.systems import GtiLayer, SuperSystemDescriptor, Verdict, WeightedGenerator
from gtiframes import delta_signal, random_signal as _rs

from helpers import all_groups_upto


def report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok, name


@dataclass
class CaseResult:
    name: str
    kind: str
    f_system: object
    h_system: object
    duality: Verdict
    orthogonality: Verdict
    gramian: np.ndarray
    duality_oracle: float
    orthogonality_oracle: float
    fibers: FiberTable
    off_translation: float
    defect: float


@pytest.fixture(scope="module")
def sweep(request):
    from gtiframes import fiber_table

    start = time.perf_counter()
    cases = sweep_cases(seed=20240801)
    results = []
    for case in cases:
        duality = check_super_duality(case.f_system, case.h_system)
        orthogonality = check_orthogonality(
            case.f_system, case.h_system, tol=duality.tolerance
        )
        matrix = mixed_dual_gramian(case.f_system, case.h_system)
        fibers = fiber_table(case.f_system, case.h_system)
        off_translation = float(
            np.abs(fibers.stack[fibers.offset_indices != 0]).max(initial=0.0)
        )
        defect = commutation_defect(case.f_system, case.h_system, matrix=matrix)
        results.append(
            CaseResult(
                name=case.name,
                kind=case.kind,
                f_system=case.f_system,
                h_system=case.h_system,
                duality=duality,
                orthogonality=orthogonality,
                gramian=matrix,
                duality_oracle=gramian_identity_residual(matrix),
                orthogonality_oracle=float(np.abs(matrix).max()),
                fibers=fibers,
                off_translation=off_translation,
                defect=defect,
            )
        )
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_duality_oracle_equivalence(sweep):
    results, elapsed = sweep
    assert len(results) >= 200
    agree = all(
        r.duality.passed == (r.duality_oracle <= r.duality.tolerance) for r in results
    )
    both_branches = any(r.duality.passed for r in results) and any(
        not r.duality.passed for r in results
    )
    report(
        f"criterion 1: duality verdict == Gramian oracle on {len(results)} systems "
        f"in {elapsed:.1f}s",
        agree and both_branches and elapsed <= 60.0,
    )


def test_criterion_2_orthogonality_oracle_equivalence(sweep):
    results, _ = sweep
    agree = all(
        r.orthogonality.passed == (r.orthogonality_oracle <= r.orthogonality.tolerance)
        for r in results
    )
    both_branches = any(r.orthogonality.passed for r in results) and any(
        not r.orthogonality.passed for r in results
    )
    report("criterion 2: orthogonality verdict == Gramian oracle", agree and both_branches)


def test_criterion_3_translation_commutation_equivalence(sweep):
    results, _ = sweep
    equivalence = all(
        (r.defect <= r.duality.tolerance) == (r.off_translation <= r.duality.tolerance)
        for r in results
    )

    # Engineered positive-defect witness: delta translates along <2> in Z_4.
    g4 = make_group([4])
    sub = subgroup_from_generators(g4, [(2,)])
    witness = SuperSystemDescriptor(
        g4, 1, [GtiLayer(sub, [WeightedGenerator(1.0, (delta_signal(g4),))])]
    )
    witness_defect = commutation_defect(witness, witness)

    multiplier_ok = True
    checked = 0
    for r in results:
        if r.f_system.channels != 1 or r.off_translation > r.duality.tolerance:
            continue
        symbol = multiplier_symbol(r.f_system, r.h_system, tol=r.duality.tolerance)
        rng = np.random.default_rng(zlib.crc32(r.name.encode()))
        for _ in range(10):
            f = random_signal(r.f_system.group, rng)
            direct = r.gramian @ f.values
            via_symbol = idft(Spectrum(f.group, symbol.values * dft(f).values)).values
            if np.abs(direct - via_symbol).max() > 1e-9 * f.norm():
                multiplier_ok = False
        checked += 1
    report(
        f"criterion 3: commutation defect == vanishing off-zero fibers; witness defect "
        f"{witness_defect:.2f} > 0; multiplier identity on {checked} systems x 10 signals",
        equivalence and witness_defect > 1.0 and multiplier_ok and checked >= 10,
    )


def _restricted_system(system: SuperSystemDescriptor, n: int) -> SuperSystemDescriptor:
    """Channel n alone: window n of every generator, same weights and layers."""
    layers = [
        GtiLayer(layer.subgroup,
                 [WeightedGenerator(gen.weight, (gen.windows[n],)) for gen in layer.generators])
        for layer in system.layers
    ]
    return SuperSystemDescriptor(system.group, 1, layers)


def _restricted_matrix(matrix: np.ndarray, size: int, n: int) -> np.ndarray:
    return matrix[n * size:(n + 1) * size, n * size:(n + 1) * size]


def _restricted_fibers(fibers: FiberTable, n: int) -> FiberTable:
    return FiberTable(fibers.group, 1, fibers.offset_indices,
                      fibers.stack[:, n:n + 1, n:n + 1], fibers.layer_mask)


def test_criterion_4_quadratic_series_identity(sweep):
    results, _ = sweep
    ok = True
    for r in results:
        size = r.f_system.group.size
        bessel = r.duality.bessel_bound or 1.0
        rng = np.random.default_rng(zlib.crc32(r.name.encode()) % 2**31)
        for n in range(r.f_system.channels):
            f_rest = _restricted_system(r.f_system, n)
            h_rest = _restricted_system(r.h_system, n)
            matrix = _restricted_matrix(r.gramian, size, n)
            fibers = _restricted_fibers(r.fibers, n)
            for _ in range(10):
                f = random_signal(r.f_system.group, rng)
                rep = quadratic_form_series(
                    f_rest, h_rest, f, matrix=matrix, fibers=fibers
                )
                scale = max(1.0, f.norm() ** 2 * max(1.0, bessel))
                if rep.series_residual > 1e-9 * scale:
                    ok = False
    report("criterion 4: quadratic-form series identity on every sweep system", ok)


def test_criterion_5_block_decomposition(sweep):
    results, _ = sweep
    ok = True
    n_multi = 0
    for r in results:
        n = r.f_system.channels
        if n < 2:
            continue
        n_multi += 1
        tol = r.duality.tolerance
        size = r.f_system.group.size
        blocks = r.duality.blocks
        via_fibers = all(blocks[(c, c)].passed for c in range(n)) and all(
            blocks[(c1, c2)].passed for c1 in range(n) for c2 in range(n) if c1 != c2
        )
        via_gramian = True
        for c1 in range(n):
            for c2 in range(n):
                block = r.gramian[c1 * size:(c1 + 1) * size, c2 * size:(c2 + 1) * size]
                target = np.eye(size) if c1 == c2 else 0.0
                if np.abs(block - target).max() > tol:
                    via_gramian = False
        if not (r.duality.passed == via_fibers == via_gramian):
            ok = False
    report(
        f"criterion 5: super verdict == per-channel duality + pairwise orthogonality "
        f"({n_multi} multi-channel systems, fibers and Gramian blocks)",
        ok and n_multi >= 50,
    )


def test_criterion_6_channel_projection(sweep):
    results, _ = sweep
    ok = True
    n_checked = 0
    for r in results:
        if r.kind != "dual" or not r.duality.passed:
            continue
        n_checked += 1
        f_bounds = frame_bounds(r.f_system)
        h_bounds = frame_bounds(r.h_system)
        for n in range(r.f_system.channels):
            f_rest = _restricted_system(r.f_system, n)
            h_rest = _restricted_system(r.h_system, n)
            verdict = check_super_duality(f_rest, h_rest, tol=r.duality.tolerance)
            if not verdict.passed:
                ok = False
            for system, bounds in ((f_rest, f_bounds), (h_rest, h_bounds)):
                proj = frame_bounds(system)
                if proj.lower < bounds.lower - 1e-9 or proj.upper > bounds.upper + 1e-9:
                    ok = False
    report(
        f"criterion 6: every certified dual pair projects to per-channel dual pairs "
        f"with nested bounds ({n_checked} pairs)",
        ok and n_checked >= 40,
    )


def test_criterion_7_specialization_coherence():
    rng = np.random.default_rng(777)
    ok = True
    counts = {"gabor": 0, "wavelet": 0, "wavepacket": 0}

    def coherent(specialized, f_sys, h_sys):
        generic = check_super_duality(f_sys, h_sys)
        residual_match = abs(specialized.max_residual - generic.max_residual) <= 1e-10 * max(
            1.0, generic.max_residual
        )
        oracle = gramian_identity_residual(mixed_dual_gramian(f_sys, h_sys))
        oracle_match = (
            specialized.passed
            == generic.passed
            == (oracle <= specialized.tolerance)
        )
        return residual_match and oracle_match

    group_pool = [(6,), (8,), (12,), (2, 4), (3, 3)]
    any_dual = False
    for i in range(50):
        g = make_group(group_pool[i % len(group_pool)])
        channels = 1 if i % 3 else 2
        derive_dual = i % 5 == 0 and channels == 1
        if derive_dual:
            # Dense lattices so the random window frames almost surely.
            gamma = random_subgroup(rng, g, max_index=2)
            lam = random_subgroup(rng, g, max_index=2)
            n_windows = 1
        else:
            gamma = random_subgroup(rng, g)
            lam = random_subgroup(rng, g)
            n_windows = 1 + (i % 2)
        fw = [tuple(_rs(g, rng) for _ in range(channels)) for _ in range(n_windows)]
        if derive_dual and frame_bounds(gabor_system(fw, gamma, lam)).is_frame:
            # Derived true case: canonical dual of a framing window.
            hw = [(gabor_canonical_dual(fw[0][0], gamma, lam),)]
        else:
            hw = [tuple(_rs(g, rng) for _ in range(channels)) for _ in range(n_windows)]
        specialized = check_gabor_duality(fw, hw, gamma, lam)
        any_dual = any_dual or specialized.passed
        if not coherent(specialized, gabor_system(fw, gamma, lam), gabor_system(hw, gamma, lam)):
            ok = False
        counts["gabor"] += 1
    ok = ok and any_dual

    for i in range(20):
        g = make_group(group_pool[i % len(group_pool)])
        gamma = random_subgroup(rng, g)
        autos = [random_automorphism(rng, g) for _ in range(1 + i % 2)]
        fw = [(_rs(g, rng),)]
        hw = [(_rs(g, rng),)]
        specialized = check_wavelet_duality(fw, hw, autos, gamma)
        if not coherent(
            specialized, wavelet_system(fw, autos, gamma), wavelet_system(hw, autos, gamma)
        ):
            ok = False
        counts["wavelet"] += 1

    for i in range(20):
        g = make_group(group_pool[i % len(group_pool)])
        gamma = random_subgroup(rng, g)
        lam = random_subgroup(rng, g, max_index=4)
        autos = [random_automorphism(rng, g)]
        fw = [(_rs(g, rng),)]
        hw = [(_rs(g, rng),)]
        specialized = check_wavepacket_duality(fw, hw, autos, gamma, lam)
        if not coherent(
            specialized,
            wavepacket_system(fw, autos, gamma, lam),
            wavepacket_system(hw, autos, gamma, lam),
        ):
            ok = False
        counts["wavepacket"] += 1

    report(
        f"criterion 7: specialized == generic == oracle on {counts['gabor']} gabor, "
        f"{counts['wavelet']} wavelet, {counts['wavepacket']} wave-packet configs",
        ok,
    )


def test_criterion_8_constructive_closure():
    rng = np.random.default_rng(888)
    ok = True
    lattices = [
        ((8,), (2,), (2,)),
        ((12,), (2,), (3,)),
    ]
    for orders, gamma_gen, lam_gen in lattices:
        g = make_group(orders)
        gamma = subgroup_from_generators(g, [gamma_gen])
        lam = subgroup_from_generators(g, [lam_gen])
        produced = 0
        while produced < 10:
            w = _rs(g, rng)
            if not frame_bounds(gabor_system([[w]], gamma, lam)).is_frame:
                continue
            bounds = frame_bounds(gabor_system([[w]], gamma, lam))
            if bounds.lower <= 1e-6:
                continue
            produced += 1
            dual = gabor_canonical_dual(w, gamma, lam)
            if not check_gabor_duality([[w]], [[dual]], gamma, lam).passed:
                ok = False

    g8 = make_group([8])
    f_sys, h_sys = dual_pair(rng, g8, channels=2)
    from gtiframes import SuperSignal, multiplex_decode, multiplex_encode

    signals = SuperSignal(tuple(_rs(g8, rng) for _ in range(2)))
    back = multiplex_decode((f_sys, h_sys), multiplex_encode((f_sys, h_sys), signals))
    err = max(
        np.abs(a.values - b.values).max() / max(a.norm(), 1e-300)
        for a, b in zip(signals.channels, back.channels)
    )
    report(
        f"criterion 8: 20 canonical duals certified; multiplex roundtrip error {err:.2e}",
        ok and err <= 1e-9,
    )


def test_criterion_9_transform_correctness():
    ok = True
    groups = [
        (4,), (8,), (12,), (30,), (64,), (101,), (210,), (720,), (4096,),
        (2, 4), (3, 3), (8, 3), (12, 12), (16, 16), (64, 64), (2, 2, 2), (2, 4, 8),
        (1, 5),
    ]
    rng = np.random.default_rng(999)
    for orders in groups:
        g = make_group(orders)
        assert g.size <= 4096
        f = random_signal(g, rng)
        fast = dft(f).values
        naive = dft_naive(f).values
        scale = max(1.0, float(np.abs(naive).max()))
        if np.abs(fast - naive).max() > 1e-9 * scale:
            ok = False
        # Plancherel with the 1/|G| dual measure.
        lhs = float(np.vdot(f.values, f.values).real)
        rhs = float(np.vdot(fast, fast).real) / g.size
        if abs(lhs - rhs) > 1e-10 * max(1.0, lhs):
            ok = False

    identity_ok = True
    pairs = 0
    small = [(8,), (12,), (2, 4), (3, 3), (5,), (2, 2, 2)]
    while pairs < 100:
        g = make_group(small[pairs % len(small)])
        f = random_signal(g, rng)
        chi = tuple(int(rng.integers(n)) for n in g.orders)
        lhs = dft(modulate(chi, f)).values
        shifted = np.roll(
            dft(f).values.reshape(g.orders),
            shift=tuple(chi),
            axis=tuple(range(g.ndim)),
        ).reshape(-1)
        if np.abs(lhs - shifted).max() > 1e-10 * max(1.0, np.abs(lhs).max()):
            identity_ok = False
        alpha = random_automorphism(rng, g)
        lhs_dilate = dft(dilate(alpha, f)).values
        rhs_dilate = dft(f).values[alpha.adjoint_inv_perm]
        if np.abs(lhs_dilate - rhs_dilate).max() > 1e-10 * max(1.0, np.abs(lhs_dilate).max()):
            identity_ok = False
        pairs += 1
    report(
        f"criterion 9: fast==naive on {len(groups)} groups up to size 4096; Plancherel; "
        f"modulation/dilation spectral identities on {pairs} pairs",
        ok and identity_ok,
    )


def test_criterion_10_exact_integer_layer():
    ok = True
    n_subgroups = 0
    for g in all_groups_upto(64):
        for sub in all_small_subgroups(g):
            ann = sub.annihilator
            if sub.order * ann.order != g.size:
                ok = False
            if not ann.annihilator.same_set(sub):
                ok = False
            n_subgroups += 1
    report(
        f"criterion 10: double-annihilator identity and size product on "
        f"{n_subgroups} subgroups across groups of size <= 64",
        ok and n_subgroups >= 100,
    )
