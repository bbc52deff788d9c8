"""Executable duality and orthogonality verdicts for layered systems.

The central object is the table of frequency-fiber correlations of a
structure-matched pair (F, H): for every annihilator offset a and channel
pair (n1, n2),

    fiber[a](n1, n2, xi) = sum over contributing layers and generators of
                           weight * conj(Hhat_{n1}(xi)) * Fhat_{n2}(xi + a).

The pair is dual exactly when the diagonal fibers equal 1 at offset 0 and
vanish elsewhere, and orthogonal exactly when every fiber vanishes; the
dense mixed dual Gramian of `analysis` is the independent oracle for both.
Specialized Gabor / wavelet / wave-packet checks evaluate the same fibers
straight from the structured data (base-window spectra, modulation shifts,
adjoint pullbacks) without expanding the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .analysis import (
    DEFAULT_CAP,
    _above_cap,
    default_tolerance,
    mixed_dual_gramian,
)
from .errors import NotAMultiplierError
from .fourier import Signal, Spectrum, _roll, _spectra, dft
from .groups import (
    Automorphism,
    Element,
    GroupSpec,
    Subgroup,
    character_column,
    identity_automorphism,
    negation_index_table,
    translation_index_table,
    trivial_subgroup,
)
from .systems import (
    SuperSystemDescriptor,
    Verdict,
    Witness,
    _validate_windows,
    require_matching_structure,
    wavepacket_system,
)


@dataclass(eq=False)
class FiberTable:
    """Fiber correlations of a system pair, one (N, N, |G|) block per offset."""

    group: GroupSpec
    channels: int
    data: dict[int, np.ndarray] = field(repr=False)
    contributors: dict[int, tuple[int, ...]]

    @property
    def offsets(self) -> tuple[Element, ...]:
        return tuple(self.group.element_at(i) for i in sorted(self.data))

    def fiber(self, n1: int, n2: int, offset: Sequence[int]) -> Spectrum:
        idx = self.group.index_of(offset)
        if idx not in self.data:
            raise KeyError(f"offset {tuple(offset)} is not in any layer annihilator")
        return Spectrum(self.group, self.data[idx][n1, n2].copy())


def fiber_table(
    f_system: SuperSystemDescriptor, h_system: SuperSystemDescriptor
) -> FiberTable:
    """Accumulate the fibers of a structure-matched pair layer by layer.

    Offset membership in each layer annihilator is decided by exact integer
    congruences, so the offset set is the exact union of the annihilators.
    """
    require_matching_structure(f_system, h_system)
    group = f_system.group
    n = f_system.channels
    data: dict[int, np.ndarray] = {}
    contributors: dict[int, list[int]] = {}
    for j, (lf, lh) in enumerate(zip(f_system.layers, h_system.layers)):
        if lf.generators:
            f_hat = _spectra([gen.windows for gen in lf.generators], group)
            h_hat = _spectra([gen.windows for gen in lh.generators], group)
            weights = np.array([gen.weight for gen in lf.generators])
            weighted_h_conj = h_hat.conj() * weights[:, None, None]
        else:
            weighted_h_conj = None
        for off_idx in lf.subgroup.annihilator.indices:
            off_idx = int(off_idx)
            if off_idx not in data:
                data[off_idx] = np.zeros((n, n, group.size), dtype=np.complex128)
            if weighted_h_conj is not None:
                offset = group.element_at(off_idx)
                shifted = _roll(f_hat, group, offset)
                data[off_idx] += np.einsum("pag,pbg->abg", weighted_h_conj, shifted)
            contributors.setdefault(off_idx, []).append(j)
    return FiberTable(
        group=group,
        channels=n,
        data=data,
        contributors={k: tuple(v) for k, v in contributors.items()},
    )


def _residual_stack(
    data: dict[int, np.ndarray], dual: bool
) -> tuple[list[int], np.ndarray]:
    """Sorted offsets and the (K, N, N, |G|) stack of |fiber - target|.

    The target is the identity at offset 0 for duality and zero everywhere
    else; offset 0 lies in every annihilator, so it is always the first row.
    """
    offsets = sorted(data)
    fibers = np.stack([data[k] for k in offsets])
    if dual:
        fibers[0] -= np.eye(fibers.shape[1])[:, :, None]
    return offsets, np.abs(fibers)


def _fiber_verdict(
    group: GroupSpec,
    data: dict[int, np.ndarray],
    tol: float,
    top_k: int,
    bessel: float | None,
    dual: bool,
) -> Verdict:
    """One witness per (offset, n1, n2), at its worst frequency, in that order
    (the order breaks ties in the ranking).  Duality verdicts also carry one
    sub-verdict per channel pair in `blocks`."""
    offsets, resid = _residual_stack(data, dual)
    worst = resid.argmax(axis=-1)
    values = resid.max(axis=-1).tolist()  # NaN where argmax found the first NaN
    res = group.residue_matrix()
    offset_elements = [tuple(row) for row in res[offsets].tolist()]
    frequencies = res[worst].tolist()
    witnesses = [
        Witness((n1, n2), offset_elements[k], tuple(frequencies[k][n1][n2]), values[k][n1][n2])
        for k, n1, n2 in np.ndindex(worst.shape)
    ]
    verdict = Verdict.from_witnesses(witnesses, tol, top_k=top_k, bessel_bound=bessel)
    if dual:
        n = resid.shape[1]
        verdict.blocks = {
            (n1, n2): Verdict.from_witnesses(witnesses[n1 * n + n2::n * n], tol, top_k=top_k)
            for n1 in range(n)
            for n2 in range(n)
        }
    return verdict


def check_orthogonality(
    f_system: SuperSystemDescriptor,
    h_system: SuperSystemDescriptor,
    tol: float | None = None,
    top_k: int = 10,
    cap: int = DEFAULT_CAP,
) -> Verdict:
    """Pass when every fiber vanishes, offset 0 included (zero mixed Gramian)."""
    table = fiber_table(f_system, h_system)
    bessel = None
    if tol is None:
        tol, bessel = default_tolerance(f_system, h_system, cap=cap)
    return _fiber_verdict(table.group, table.data, tol, top_k, bessel, dual=False)


def check_super_duality(
    f_system: SuperSystemDescriptor,
    h_system: SuperSystemDescriptor,
    tol: float | None = None,
    top_k: int = 10,
    cap: int = DEFAULT_CAP,
) -> Verdict:
    """Pass when diagonal fibers are delta at offset 0 and cross fibers vanish.

    The verdict carries per-channel-pair sub-verdicts in `blocks`: diagonal
    entries are single-channel duality checks, off-diagonal entries are
    pairwise orthogonality checks.
    """
    table = fiber_table(f_system, h_system)
    bessel = None
    if tol is None:
        tol, bessel = default_tolerance(f_system, h_system, cap=cap)
    return _fiber_verdict(table.group, table.data, tol, top_k, bessel, dual=True)


def check_parseval_super(
    system: SuperSystemDescriptor,
    tol: float | None = None,
    top_k: int = 10,
    cap: int = DEFAULT_CAP,
) -> Verdict:
    """Self-duality: the system reproduces every signal with its own analysis."""
    return check_super_duality(system, system, tol=tol, top_k=top_k, cap=cap)


def multiplier_symbol(
    f_system: SuperSystemDescriptor,
    h_system: SuperSystemDescriptor,
    channel: int | None = None,
    tol: float | None = None,
    cap: int = DEFAULT_CAP,
) -> Spectrum:
    """Zero-offset diagonal fiber, valid only when the mixed dual Gramian
    commutes with translations (all other fibers vanish); raises
    NotAMultiplierError otherwise instead of silently returning a symbol."""
    table = fiber_table(f_system, h_system)
    if channel is None:
        if table.channels != 1:
            raise ValueError("channel must be given for multi-channel systems")
        channel = 0
    if not 0 <= channel < table.channels:
        raise ValueError(f"channel {channel} out of range")
    if tol is None:
        tol, _ = default_tolerance(f_system, h_system, cap=cap)
    _, resid = _residual_stack(table.data, dual=False)
    diagonal = np.arange(table.channels)
    resid[0, diagonal, diagonal] = 0.0  # the zero-offset diagonal is the symbol
    worst = float(resid.max())
    if not math.isfinite(worst):
        worst = math.inf  # NaN fails as +inf, as in Verdict.from_witnesses
    if worst > tol:
        raise NotAMultiplierError(
            f"operator does not commute with translations "
            f"(off-translation residual {worst:.3e} > tol {tol:.3e})"
        )
    return Spectrum(table.group, table.data[0][channel, channel].copy())


def commutation_defect(
    f_system: SuperSystemDescriptor,
    h_system: SuperSystemDescriptor,
    cap: int = DEFAULT_CAP,
    matrix: np.ndarray | None = None,
) -> float:
    """max over group points x of the Frobenius norm of Theta T_x - T_x Theta,
    computed on the dense mixed dual Gramian matrix."""
    if matrix is None:
        matrix = mixed_dual_gramian(f_system, h_system, cap=cap)
    group = f_system.group
    n = f_system.channels
    size = group.size
    table = translation_index_table(group)
    neg = negation_index_table(group)
    offsets = np.arange(n) * size
    worst = 0.0
    for x_idx in range(size):
        perm = table[x_idx]
        inv_perm = table[neg[x_idx]]
        gp = (perm[None, :] + offsets[:, None]).reshape(-1)
        inv_gp = (inv_perm[None, :] + offsets[:, None]).reshape(-1)
        diff = matrix[gp, :] - matrix[:, inv_gp]
        worst = max(worst, float(np.linalg.norm(diff)))
    return worst


@dataclass(eq=False)
class QuadraticSeriesReport:
    """The translation quadratic form of a pair against its fiber series."""

    quadratic_values: np.ndarray
    offset_coefficients: dict[Element, complex]
    series_residual: float


def quadratic_form_series(
    f_system: SuperSystemDescriptor,
    h_system: SuperSystemDescriptor,
    f: Signal,
    cap: int = DEFAULT_CAP,
    matrix: np.ndarray | None = None,
    fibers: FiberTable | None = None,
) -> QuadraticSeriesReport:
    """Compare x -> <Theta T_x f, T_x f> (dense route) with its almost periodic
    series sum over offsets of <offset, x> * w_hat(offset), where

        w_hat(offset) = (1/|G|) sum_xi fhat(xi) conj(fhat(xi + offset)) fiber(xi).
    """
    if f_system.channels != 1 or h_system.channels != 1:
        raise ValueError("the series diagnostic is defined for single-channel systems")
    if f.group.orders != f_system.group.orders:
        raise ValueError("signal group does not match system group")
    if matrix is None:
        matrix = mixed_dual_gramian(f_system, h_system, cap=cap)
    group = f.group
    size = group.size
    table = translation_index_table(group)
    values = np.empty(size, dtype=np.complex128)
    for x_idx in range(size):
        tf = f.values[table[x_idx]]
        values[x_idx] = np.vdot(tf, matrix @ tf)

    if fibers is None:
        fibers = fiber_table(f_system, h_system)
    f_hat = dft(f).values
    coefficients: dict[Element, complex] = {}
    series = np.zeros(size, dtype=np.complex128)
    for off_idx in sorted(fibers.data):
        offset = group.element_at(off_idx)
        shifted = _roll(f_hat, group, offset)
        w_hat = complex(np.sum(f_hat * shifted.conj() * fibers.data[off_idx][0, 0]) / size)
        coefficients[offset] = w_hat
        series += character_column(group, offset) * w_hat
    residual = float(np.abs(values - series).max())
    return QuadraticSeriesReport(values, coefficients, residual)


def dual_integrability_sum(
    f_system: SuperSystemDescriptor,
    h_system: SuperSystemDescriptor,
    f: Signal,
) -> float:
    """Finite local-integrability sum of the pair against a probe signal.

    Always finite here; reported for completeness, never used as a gate.
    """
    require_matching_structure(f_system, h_system)
    if f_system.channels != 1:
        raise ValueError("the integrability sum is defined for single-channel systems")
    if f.group.orders != f_system.group.orders:
        raise ValueError("signal group does not match system group")
    group = f.group
    f_abs = np.abs(dft(f).values)
    total = 0.0
    for lf, lh in zip(f_system.layers, h_system.layers):
        if not lf.generators:
            continue
        g_abs = np.abs(_spectra([gen.windows for gen in lf.generators], group)[:, 0])
        h_abs = np.abs(_spectra([gen.windows for gen in lh.generators], group)[:, 0])
        weights = np.array([gen.weight for gen in lf.generators])
        for off_idx in lf.subgroup.annihilator.indices:
            offset = group.element_at(int(off_idx))
            f_shift = _roll(f_abs, group, offset)
            h_shift = _roll(h_abs, group, offset)
            per_gen = (g_abs * h_shift) @ (f_abs * f_shift)
            total += float(weights @ per_gen) / group.size
    return total


def _validate_structured_windows(
    f_windows: Sequence[Sequence[Signal]],
    h_windows: Sequence[Sequence[Signal]],
    group: GroupSpec,
) -> int:
    if len(f_windows) != len(h_windows):
        raise ValueError(
            f"window lists have different lengths ({len(f_windows)} vs {len(h_windows)})"
        )
    channels = _validate_windows(f_windows, group)
    if _validate_windows(h_windows, group) != channels:
        raise ValueError("all window tuples must have the same channel count")
    return channels


def _structured_fiber_data(
    f_windows: Sequence[Sequence[Signal]],
    h_windows: Sequence[Sequence[Signal]],
    automorphisms: Sequence[Automorphism] | None,
    translation: Subgroup,
    modulation: Subgroup | None,
) -> tuple[GroupSpec, int, dict[int, np.ndarray]]:
    """Fibers of a structured system pair from base-window spectra only.

    Per dilation level: correlate pulled-back spectra at the inverse-adjoint
    offset, periodize over the modulation subgroup, then pull the frequency
    variable back through the adjoint.  Identity dilation short-circuits to
    plain shifts, which is the Gabor case.
    """
    group = translation.parent
    channels = _validate_structured_windows(f_windows, h_windows, group)
    if automorphisms is not None and not automorphisms:
        raise ValueError("need at least one automorphism")
    f_hat = np.stack([[dft(w).values for w in tup] for tup in f_windows])  # (J, N, |G|)
    h_hat = np.stack([[dft(w).values for w in tup] for tup in h_windows])
    h_hat_conj = h_hat.conj()
    lam_elements = list(modulation.elements()) if modulation is not None else None
    base_ann = translation.annihilator
    data: dict[int, np.ndarray] = {}
    levels: Sequence[Automorphism | None] = (
        automorphisms if automorphisms is not None else [None]
    )
    for alpha in levels:
        if alpha is None or alpha.is_identity:
            offset_indices = base_ann.indices
            pullback = None
            inv_adjoint = None
        else:
            if alpha.parent.orders != group.orders:
                raise ValueError("automorphism group mismatch")
            offset_indices = alpha.adjoint_image(base_ann).indices
            pullback = alpha.adjoint_inv_perm
            inv_adjoint = alpha.adjoint_inv_perm
        for off_idx in offset_indices:
            off_idx = int(off_idx)
            if inv_adjoint is None:
                delta = group.element_at(off_idx)
            else:
                delta = group.element_at(int(inv_adjoint[off_idx]))
            corr = np.einsum("jag,jbg->abg", h_hat_conj, _roll(f_hat, group, delta))
            if lam_elements is not None:
                acc = np.zeros_like(corr)
                for chi in lam_elements:
                    acc += _roll(corr, group, group.neg(chi))
                corr = acc
            if pullback is not None:
                corr = corr[:, :, pullback]
            if off_idx in data:
                data[off_idx] += corr
            else:
                data[off_idx] = corr
    return group, channels, data


def _structured_verdict(
    f_windows: Sequence[Sequence[Signal]],
    h_windows: Sequence[Sequence[Signal]],
    automorphisms: Sequence[Automorphism] | None,
    translation: Subgroup,
    modulation: Subgroup | None,
    tol: float | None,
    top_k: int,
    cap: int,
) -> Verdict:
    """Duality verdict of a structured pair from its structured fibers.

    The default tolerance needs frame bounds, so it expands both systems
    through `wavepacket_system` (Gabor: identity dilation; wavelet: trivial
    modulation) unless they are above the cap, where the raw 1e-9 applies.
    """
    group, channels, data = _structured_fiber_data(
        f_windows, h_windows, automorphisms, translation, modulation
    )
    bessel = None
    if tol is None and _above_cap(channels, group, cap):
        tol = 1e-9
    elif tol is None:
        if automorphisms is None:
            automorphisms = [identity_automorphism(group)]
        if modulation is None:
            modulation = trivial_subgroup(group)
        tol, bessel = default_tolerance(
            wavepacket_system(f_windows, automorphisms, translation, modulation),
            wavepacket_system(h_windows, automorphisms, translation, modulation),
            cap=cap,
        )
    return _fiber_verdict(group, data, tol, top_k, bessel, dual=True)


def check_gabor_duality(
    f_windows: Sequence[Sequence[Signal]],
    h_windows: Sequence[Sequence[Signal]],
    translation: Subgroup,
    modulation: Subgroup,
    tol: float | None = None,
    top_k: int = 10,
    cap: int = DEFAULT_CAP,
) -> Verdict:
    """Duality of two time-frequency systems over the same lattice pair,
    evaluated directly from base-window spectra."""
    return _structured_verdict(
        f_windows, h_windows, None, translation, modulation, tol, top_k, cap
    )


def check_wavelet_duality(
    f_windows: Sequence[Sequence[Signal]],
    h_windows: Sequence[Sequence[Signal]],
    automorphisms: Sequence[Automorphism],
    translation: Subgroup,
    tol: float | None = None,
    top_k: int = 10,
    cap: int = DEFAULT_CAP,
) -> Verdict:
    """Duality of two dilation-translation systems, evaluated from base-window
    spectra with adjoint-pulled-back frequencies."""
    return _structured_verdict(
        f_windows, h_windows, automorphisms, translation, None, tol, top_k, cap
    )


def check_wavepacket_duality(
    f_windows: Sequence[Sequence[Signal]],
    h_windows: Sequence[Sequence[Signal]],
    automorphisms: Sequence[Automorphism],
    translation: Subgroup,
    modulation: Subgroup,
    tol: float | None = None,
    top_k: int = 10,
    cap: int = DEFAULT_CAP,
) -> Verdict:
    """Duality of two dilation-translation-modulation systems, evaluated from
    base-window spectra."""
    return _structured_verdict(
        f_windows, h_windows, automorphisms, translation, modulation, tol, top_k, cap
    )
