"""Executable duality and orthogonality verdicts for layered systems.

The central object is the table of frequency-fiber correlations of a
structure-matched pair (F, H): for every annihilator offset a and channel
pair (n1, n2),

    fiber[a](n1, n2, xi) = sum over contributing layers and generators of
                           weight * conj(Hhat_{n1}(xi)) * Fhat_{n2}(xi + a).

The pair is dual exactly when the diagonal fibers equal 1 at offset 0 and
vanish elsewhere, and orthogonal exactly when every fiber vanishes; the
dense mixed dual Gramian of `analysis` is the independent oracle for both.

Fibers come from coset blocks: on each coset c + A of a layer annihilator
A, the window spectra form one block per system, and the fiber Gramian
H_c* W F_c holds the fibers at every offset of A at once.  Specialized
Gabor / wavelet / wave-packet checks evaluate the same fibers straight from
the structured data (base-window spectra, modulation cosets, adjoint
pullbacks) without expanding the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .analysis import (
    DEFAULT_CAP,
    _above_cap,
    default_tolerance,
    mixed_dual_gramian,
)
from .errors import NotAMultiplierError
from .fourier import Signal, Spectrum, _spectra, _transform, dft
from .groups import (
    Automorphism,
    Element,
    GroupSpec,
    Subgroup,
    _difference_table,
    _flat_index,
    negation_index_table,
    translation_index_table,
)
from .systems import (
    GtiLayer,
    SuperSystemDescriptor,
    Verdict,
    Witness,
    _structured_system,
    _validate_structure,
    require_matching_structure,
)


@dataclass(eq=False)
class FiberTable:
    """Fiber correlations of a system pair: one (N, N, |G|) block per offset,
    stacked at the sorted offset indices.

    `layer_mask[k, j]` says whether offset k lies in the annihilator of
    layer j; `data` and `contributors` give the same by offset index.
    """

    group: GroupSpec
    channels: int
    offset_indices: np.ndarray
    stack: np.ndarray = field(repr=False)
    layer_mask: np.ndarray = field(repr=False)

    @cached_property
    def data(self) -> dict[int, np.ndarray]:
        return dict(zip(self.offset_indices.tolist(), self.stack))

    @cached_property
    def contributors(self) -> dict[int, tuple[int, ...]]:
        return {
            off: tuple(np.flatnonzero(row).tolist())
            for off, row in zip(self.offset_indices.tolist(), self.layer_mask)
        }

    @property
    def offsets(self) -> tuple[Element, ...]:
        return tuple(self.group.element_at(i) for i in self.offset_indices.tolist())

    def fiber(self, n1: int, n2: int, offset: Sequence[int]) -> Spectrum:
        idx = self.group.index_of(offset)
        if idx not in self.data:
            raise KeyError(f"offset {tuple(offset)} is not in any layer annihilator")
        return Spectrum(self.group, self.data[idx][n1, n2].copy())


def _coset_fibers(spectra: np.ndarray, weights: np.ndarray, ann: Subgroup) -> np.ndarray:
    """(|A|, N, N, |G|) fibers of one layer at the offsets a_k of its annihilator A,
    from the (2P, N, |G|) spectra of its P generators in F and then in H:

        out[k, n1, n2, xi] = sum_p weights[p] * conj(Hhat_p,n1(xi)) * Fhat_p,n2(xi + a_k).

    The spectra of one coset c + A form (P, N|A|) blocks F_c and H_c, column
    (n, i) at c + a_i, and the fiber Gramian H_c* W F_c holds
    fiber[a_k](c + a_i) at entry [(n1, i), (n2, j)], where a_j = a_i + a_k.
    """
    group = ann.parent
    p = len(weights)
    _, n, size = spectra.shape
    cosets = ann.cosets
    count, order = cosets.shape
    cols = (cosets[:, None, :] + size * np.arange(n)[:, None]).reshape(count, n * order)
    blocks = spectra.reshape(2 * p, n * size)[:, cols]  # F_c and H_c, as (2P, C, N|A|)
    np.conjugate(blocks[p:], out=blocks[p:])
    blocks[p:] *= weights[:, None, None]
    # einsum adds the generators in index order whatever the block shape, so
    # a fiber does not depend on how its layer falls into cosets.
    products = np.einsum("pci,pcj->cij", blocks[p:], blocks[:p])
    del blocks  # freed before the output is gathered
    # Coset row and column of every frequency; moved[k, xi] is the column of xi + a_k.
    position = np.empty(size, dtype=np.int64)
    position[cosets.ravel()] = np.arange(size)
    row, col = np.divmod(position, order)
    res = group.residue_matrix()[ann.indices]
    moved = col[_flat_index(group, res[:, None, :] + res[None, :, :])][:, col]
    channel = np.arange(n)
    return products.reshape(count, n, order, n, order)[
        row, channel[:, None, None], col, channel[:, None], moved[:, None, None, :]
    ]


def _summed_table(
    group: GroupSpec,
    channels: int,
    keys: Sequence[np.ndarray],
    parts: Iterable[np.ndarray | None],
) -> FiberTable:
    """Add each part's (len(keys[j]), N, N, |G|) fibers (None: zeros) at its
    offset indices keys[j], into one table over the sorted union of the keys."""
    member = np.zeros((len(keys), group.size), dtype=bool)
    for j, k in enumerate(keys):
        member[j, k] = True
    offsets = np.flatnonzero(member.any(axis=0))
    stack = None
    for k, part in zip(keys, parts):
        # Allocated once the first part is done and its temporaries are freed.
        if stack is None:
            stack = np.zeros((offsets.size, channels, channels, group.size), dtype=np.complex128)
        if part is not None:
            stack[np.searchsorted(offsets, k)] += part
    return FiberTable(group, channels, offsets, stack, member[:, offsets].T)


def fiber_table(
    f_system: SuperSystemDescriptor, h_system: SuperSystemDescriptor
) -> FiberTable:
    """Accumulate the fibers of a structure-matched pair layer by layer.

    Offset membership in each layer annihilator is decided by exact integer
    congruences, so the offset set is the exact union of the annihilators.
    """
    require_matching_structure(f_system, h_system)
    group = f_system.group

    def layer_fibers(lf: GtiLayer, lh: GtiLayer) -> np.ndarray | None:
        if not lf.generators:
            return None
        spectra = _spectra([gen.windows for gen in lf.generators + lh.generators], group)
        weights = np.array([gen.weight for gen in lf.generators])
        return _coset_fibers(spectra, weights, lf.subgroup.annihilator)

    return _summed_table(
        group,
        f_system.channels,
        [layer.subgroup.annihilator.indices for layer in f_system.layers],
        (layer_fibers(lf, lh) for lf, lh in zip(f_system.layers, h_system.layers)),
    )


def _fiber_verdict(
    table: FiberTable,
    tol: float,
    top_k: int,
    bessel: float | None,
    dual: bool,
) -> Verdict:
    """One witness per (offset, n1, n2), at its worst frequency, in that order
    (the order breaks ties in the ranking).  Duality verdicts also carry one
    sub-verdict per channel pair in `blocks`.  The duality target is the
    identity at offset 0, which lies in every annihilator: the first row."""
    resid = np.abs(table.stack)
    if dual:
        resid[0] = np.abs(table.stack[0] - np.eye(table.channels)[:, :, None])
    worst = resid.argmax(axis=-1)
    values = resid.max(axis=-1).tolist()  # NaN where argmax found the first NaN
    res = table.group.residue_matrix()
    offset_elements = [tuple(row) for row in res[table.offset_indices].tolist()]
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
    return _fiber_verdict(table, tol, top_k, bessel, dual=False)


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
    return _fiber_verdict(table, tol, top_k, bessel, dual=True)


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
    resid = np.abs(table.stack)
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
    return Spectrum(table.group, table.stack[0, channel, channel].copy())


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
    shifts = f.values[translation_index_table(group)]  # row x is T_x f
    values = np.einsum("xi,xi->x", shifts.conj(), shifts @ matrix.T)
    if fibers is None:
        fibers = fiber_table(f_system, h_system)
    f_hat = dft(f).values
    offsets = fibers.offset_indices
    # shifted[k, xi] = fhat(xi + offset_k), as the difference xi - (-offset_k).
    shifted = f_hat[_difference_table(group, negation_index_table(group)[offsets])]
    w_hat = (f_hat * shifted.conj() * fibers.stack[:, 0, 0]).sum(axis=-1) / size
    # The series sum_k <offset_k, x> w_hat_k is |G| times the inverse
    # transform of w_hat placed at the offsets.
    placed = np.zeros(size, dtype=np.complex128)
    placed[offsets] = w_hat
    series = size * _transform(placed, group, inverse=True)
    residual = float(np.abs(values - series).max())
    return QuadraticSeriesReport(values, dict(zip(fibers.offsets, w_hat.tolist())), residual)


def _structured_fibers(
    f_windows: Sequence[Sequence[Signal]],
    h_windows: Sequence[Sequence[Signal]],
    automorphisms: Sequence[Automorphism] | None,
    translation: Subgroup,
    modulation: Subgroup | None,
) -> FiberTable:
    """Fibers of a structured system pair from base-window spectra only.

    The correlation of the base windows at the offsets delta of ann(Gamma)
    does not depend on the dilation: it is computed once and periodized over
    the modulation subgroup by one sum per coset.  Dilation level alpha, with
    adjoint beta, then moves offset delta to beta(delta) and pulls the
    frequency back through beta^-1; no automorphisms is the Gabor case, one
    level with no relabelling.  Contributors are the dilation levels.
    """
    group = translation.parent
    if len(f_windows) != len(h_windows):
        raise ValueError(
            f"window lists have different lengths ({len(f_windows)} vs {len(h_windows)})"
        )
    channels = _validate_structure(f_windows, automorphisms, translation, modulation)
    if _validate_structure(h_windows, automorphisms, translation, modulation) != channels:
        raise ValueError("all window tuples must have the same channel count")
    spectra = np.stack([[dft(w).values for w in tup] for tup in [*f_windows, *h_windows]])
    ann = translation.annihilator
    base = _coset_fibers(spectra, np.ones(len(f_windows)), ann)
    if modulation is not None:
        cosets = modulation.cosets
        base[..., cosets] = base[..., cosets].sum(axis=-1, keepdims=True)
    if automorphisms is None:
        return FiberTable(group, channels, ann.indices, base, np.ones((ann.order, 1), dtype=bool))
    return _summed_table(
        group,
        channels,
        [alpha.adjoint_perm[ann.indices] for alpha in automorphisms],
        (base[..., alpha.adjoint_inv_perm] for alpha in automorphisms),
    )


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
    through `_structured_system` unless they are above the cap, where the raw
    1e-9 applies.
    """
    table = _structured_fibers(f_windows, h_windows, automorphisms, translation, modulation)
    bessel = None
    if tol is None and _above_cap(table.channels, table.group, cap):
        tol = 1e-9
    elif tol is None:
        tol, bessel = default_tolerance(
            _structured_system(f_windows, automorphisms, translation, modulation),
            _structured_system(h_windows, automorphisms, translation, modulation),
            cap=cap,
        )
    return _fiber_verdict(table, tol, top_k, bessel, dual=True)


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
