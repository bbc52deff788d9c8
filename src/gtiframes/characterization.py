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
from typing import Callable, Iterable, Sequence

import numpy as np

from .analysis import (
    DEFAULT_CAP,
    RAW_TOLERANCE,
    FrameBounds,
    _above_cap,
    _require_finite,
    default_tolerance,
    mixed_dual_gramian,
)
from .errors import NotAFrameError, NotAMultiplierError
from .fourier import Signal, Spectrum, _spectra, _transform, dft
from .groups import (
    Automorphism,
    Element,
    GroupSpec,
    Subgroup,
    _difference_table,
    _flat_index,
    negation_index_table,
)
from .systems import (
    GtiLayer,
    SuperSystemDescriptor,
    Verdict,
    Witness,
    _require_tolerance,
    _structured_system,
    _validate_structure,
    gabor_system,
    require_matching_structure,
)


@dataclass(eq=False)
class FiberTable:
    """Fiber correlations of a system pair: one (N, N, |G|) block per offset,
    stacked at the sorted offset indices.

    `layer_mask[k, j]` says whether offset k lies in the annihilator of
    layer j; `data` and `contributors` give the same by offset index.
    Only the benchmark harness in `perfbench/` reads these two views; the
    library, the CLI and the scripts read `stack` and `offset_indices`.
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


def _coset_gramians(f_spectra: np.ndarray, h_spectra: np.ndarray, weights: np.ndarray,
                    ann: Subgroup) -> np.ndarray:
    """(C, N|A|, N|A|) Gramians H_c* W F_c on the cosets c + A of A, from the
    (P, N, |G|) spectra of P generators in F and in H, plain weights, no covolume:
    entry [(n1, i), (n2, j)] is sum_p weights[p] conj(Hhat_p,n1(c + a_i)) Fhat_p,n2(c + a_j).
    """
    p, n, size = f_spectra.shape
    count, order = ann.cosets.shape
    cols = (ann.cosets[:, None, :] + size * np.arange(n)[:, None]).reshape(count, n * order)
    f_blocks = f_spectra.reshape(p, n * size).T[cols]  # (C, N|A|, P), row (n, i) at c + a_i
    h_blocks = h_spectra.reshape(p, n * size).T[cols]
    np.conjugate(h_blocks, out=h_blocks)
    # One batched BLAS product, summed over the generators in the kernel's order
    # (so to rounding); an overflow is left as inf for the caller to refuse or fail on.
    with np.errstate(over="ignore", invalid="ignore"):
        h_blocks *= weights
        return np.matmul(h_blocks, f_blocks.transpose(0, 2, 1))


def _coset_fibers(spectra: np.ndarray, weights: np.ndarray, ann: Subgroup) -> np.ndarray:
    """(|A|, N, N, |G|) fibers of one layer at the offsets a_k of its annihilator A,
    from the (2P, N, |G|) spectra of its P generators in F and then in H:

        out[k, n1, n2, xi] = sum_p weights[p] * conj(Hhat_p,n1(xi)) * Fhat_p,n2(xi + a_k).

    The coset Gramian of c + A holds fiber[a_k](c + a_i) at entry
    [(n1, i), (n2, j)], where a_j = a_i + a_k.
    """
    p = len(weights)
    products = _coset_gramians(spectra[:p], spectra[p:], weights, ann)
    group, order = ann.parent, ann.order
    _, n, size = spectra.shape
    width = n * order
    # Coset row and column of every frequency; moved[k, xi] is the column of xi + a_k.
    position = np.empty(size, dtype=np.int64)
    position[ann.cosets.ravel()] = np.arange(size)
    row, col = np.divmod(position, order)
    res = group.residue_matrix()[ann.indices]
    moved = col[_flat_index(group, res[:, None, :] + res[None, :, :])].take(col, axis=1)
    # Flat position of products[row, n1, col, n2, moved] in the
    # (C, N, |A|, N, |A|) layout, read with one take.
    channel = np.arange(n) * order
    point = moved + (row * width + col) * width
    pair = channel[:, None] * width + channel[None, :]
    index = point[:, None, None, :] + pair[:, :, None]
    return products.take(index)


def _summed_table(
    group: GroupSpec,
    channels: int,
    keys: Sequence[np.ndarray],
    parts: Iterable[np.ndarray | None],
) -> FiberTable:
    """Add each part's (len(keys[j]), N, N, |G|) fibers (None: zeros) at its
    offset indices keys[j], into one table over the sorted union of the keys.

    Parts are fresh arrays owned by the caller; a first part whose keys are
    already the sorted union becomes the stack and the rest add into it."""
    member = np.zeros((len(keys), group.size), dtype=bool)
    for j, k in enumerate(keys):
        member[j, k] = True
    offsets = np.flatnonzero(member.any(axis=0))
    stack = None
    for k, part in zip(keys, parts):
        if stack is None and part is not None and np.array_equal(k, offsets):
            stack = part
            continue
        # Allocated once the first part is done and its temporaries are freed.
        if stack is None:
            stack = np.zeros((offsets.size, channels, channels, group.size), dtype=np.complex128)
        if part is not None:
            stack[np.searchsorted(offsets, k)] += part
    return FiberTable(group, channels, offsets, stack, member[:, offsets].T)


def _finite_fibers(build: Callable[[], FiberTable], windows: Iterable[Signal]) -> FiberTable:
    """The table `build` returns, formed with float64 overflow left as inf.

    A non-finite fiber from finite windows is float64 overflow, refused with
    a ValueError; non-finite windows leave their fibers to fail the verdict.
    `windows` is read only when the table is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        table = build()
    if not np.isfinite(table.stack).all() and all(np.isfinite(w.values).all() for w in windows):
        _require_finite("fiber table", table.stack)
    return table


def fiber_table(
    f_system: SuperSystemDescriptor, h_system: SuperSystemDescriptor
) -> FiberTable:
    """Accumulate the fibers of a structure-matched pair layer by layer.

    Offset membership in each layer annihilator is decided by exact integer
    congruences, so the offset set is the exact union of the annihilators.
    Overflow is refused as in `_finite_fibers`.
    """
    require_matching_structure(f_system, h_system)
    group = f_system.group

    def layer_fibers(lf: GtiLayer, lh: GtiLayer) -> np.ndarray | None:
        if not lf.generators:
            return None
        spectra = _spectra([gen.windows for gen in lf.generators + lh.generators], group)
        weights = np.array([gen.weight for gen in lf.generators])
        return _coset_fibers(spectra, weights, lf.subgroup.annihilator)

    windows = (w for system in (f_system, h_system) for layer in system.layers
               for gen in layer.generators for w in gen.windows)
    return _finite_fibers(
        lambda: _summed_table(
            group,
            f_system.channels,
            [layer.subgroup.annihilator.indices for layer in f_system.layers],
            (layer_fibers(lf, lh) for lf, lh in zip(f_system.layers, h_system.layers)),
        ),
        windows,
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
) -> Verdict:
    """Pass when every fiber vanishes, offset 0 included (zero mixed Gramian)."""
    table = fiber_table(f_system, h_system)
    tol, bessel = default_tolerance(f_system, h_system) if tol is None else (tol, None)
    return _fiber_verdict(table, tol, top_k, bessel, dual=False)


def check_super_duality(
    f_system: SuperSystemDescriptor,
    h_system: SuperSystemDescriptor,
    tol: float | None = None,
    top_k: int = 10,
) -> Verdict:
    """Pass when diagonal fibers are delta at offset 0 and cross fibers vanish.

    The verdict carries per-channel-pair sub-verdicts in `blocks`: diagonal
    entries are single-channel duality checks, off-diagonal entries are
    pairwise orthogonality checks.
    """
    table = fiber_table(f_system, h_system)
    tol, bessel = default_tolerance(f_system, h_system) if tol is None else (tol, None)
    return _fiber_verdict(table, tol, top_k, bessel, dual=True)


def check_parseval_super(
    system: SuperSystemDescriptor,
    tol: float | None = None,
    top_k: int = 10,
) -> Verdict:
    """Self-duality: the system reproduces every signal with its own analysis."""
    return check_super_duality(system, system, tol=tol, top_k=top_k)


def multiplier_symbol(
    f_system: SuperSystemDescriptor,
    h_system: SuperSystemDescriptor,
    channel: int | None = None,
    tol: float | None = None,
) -> Spectrum:
    """Zero-offset diagonal fiber, valid only when the mixed dual Gramian
    commutes with translations (all other fibers vanish); raises
    NotAMultiplierError otherwise instead of silently returning a symbol."""
    if tol is None:
        tol, _ = default_tolerance(f_system, h_system)
    _require_tolerance(tol)
    table = fiber_table(f_system, h_system)
    if channel is None:
        if table.channels != 1:
            raise ValueError("channel must be given for multi-channel systems")
        channel = 0
    if not 0 <= channel < table.channels:
        raise ValueError(f"channel {channel} out of range")
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
    matrix: np.ndarray | None = None,
) -> float:
    """max over group points x of the Frobenius norm of Theta T_x - T_x Theta,
    computed on the dense mixed dual Gramian matrix; inf when it is not finite."""
    group = f_system.group
    n = f_system.channels
    size = group.size
    if matrix is None:
        matrix = mixed_dual_gramian(f_system, h_system)
    elif np.shape(matrix) != (n * size, n * size):
        raise ValueError(f"matrix has shape {np.shape(matrix)}, expected {(n * size, n * size)}")
    table = _difference_table(group)
    neg = negation_index_table(group)
    offsets = np.arange(n) * size
    norms = np.empty(size)
    with np.errstate(over="ignore", invalid="ignore"):
        for x_idx in range(size):
            perm = table[x_idx]
            inv_perm = table[neg[x_idx]]
            gp = (perm[None, :] + offsets[:, None]).reshape(-1)
            inv_gp = (inv_perm[None, :] + offsets[:, None]).reshape(-1)
            diff = matrix[gp, :] - matrix[:, inv_gp]
            norms[x_idx] = np.linalg.norm(diff)
    # A NaN norm is kept by max and fails as +inf, as in Verdict.from_witnesses.
    worst = float(norms.max())
    return worst if math.isfinite(worst) else math.inf


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
        matrix = mixed_dual_gramian(f_system, h_system)
    group = f.group
    size = group.size
    shifts = f.values[_difference_table(group)]  # row x is T_x f
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
    Overflow is refused as in `_finite_fibers`.
    """
    group = translation.parent
    if len(f_windows) != len(h_windows):
        raise ValueError(
            f"window lists have different lengths ({len(f_windows)} vs {len(h_windows)})"
        )
    channels = _validate_structure(f_windows, automorphisms, translation, modulation)
    if _validate_structure(h_windows, automorphisms, translation, modulation) != channels:
        raise ValueError("all window tuples must have the same channel count")
    tuples = [*f_windows, *h_windows]

    def build() -> FiberTable:
        spectra = np.stack([[dft(w).values for w in tup] for tup in tuples])
        ann = translation.annihilator
        base = _coset_fibers(spectra, np.ones(len(f_windows)), ann)
        if modulation is not None:
            cosets = modulation.cosets
            base[..., cosets] = base[..., cosets].sum(axis=-1, keepdims=True)
        if automorphisms is None:
            mask = np.ones((ann.order, 1), dtype=bool)
            return FiberTable(group, channels, ann.indices, base, mask)
        return _summed_table(
            group,
            channels,
            [alpha.adjoint_perm[ann.indices] for alpha in automorphisms],
            (base[..., alpha.adjoint_inv_perm] for alpha in automorphisms),
        )

    return _finite_fibers(build, (w for tup in tuples for w in tup))


def _structured_verdict(
    f_windows: Sequence[Sequence[Signal]],
    h_windows: Sequence[Sequence[Signal]],
    automorphisms: Sequence[Automorphism] | None,
    translation: Subgroup,
    modulation: Subgroup | None,
    tol: float | None,
    top_k: int,
) -> Verdict:
    """Duality verdict of a structured pair from its structured fibers.

    The default tolerance needs frame bounds, so it expands both systems
    through `_structured_system` unless they are above `DEFAULT_CAP`, where
    `default_tolerance` would take the raw tolerance anyway.
    """
    table = _structured_fibers(f_windows, h_windows, automorphisms, translation, modulation)
    bessel = None
    if tol is None and _above_cap(table.channels, table.group, DEFAULT_CAP):
        tol = RAW_TOLERANCE
    elif tol is None:
        tol, bessel = default_tolerance(
            _structured_system(f_windows, automorphisms, translation, modulation),
            _structured_system(h_windows, automorphisms, translation, modulation),
        )
    return _fiber_verdict(table, tol, top_k, bessel, dual=True)


def check_gabor_duality(
    f_windows: Sequence[Sequence[Signal]],
    h_windows: Sequence[Sequence[Signal]],
    translation: Subgroup,
    modulation: Subgroup,
    tol: float | None = None,
    top_k: int = 10,
) -> Verdict:
    """Duality of two time-frequency systems over the same lattice pair,
    evaluated directly from base-window spectra."""
    return _structured_verdict(
        f_windows, h_windows, None, translation, modulation, tol, top_k
    )


def gabor_canonical_dual(window: Signal, translation: Subgroup, modulation: Subgroup) -> Signal:
    """The window S^-1 g of the canonical dual over the same lattice pair.  S is block
    diagonal over the cosets of ann(translation), acting on each as the conjugate of
    the Hermitian coset Gramian: bounds are its extreme eigenvalues (NotAFrameError
    when the lower one vanishes), and each block is solved on its coset."""
    group = window.group
    # Refused here: expanded and transformed, a NaN or inf reads as overflow.
    bad = np.flatnonzero(~np.isfinite(window.values))
    if bad.size:
        raise ValueError(f"gabor window has a non-finite value at index {int(bad[0])}")
    (layer,) = gabor_system([[window]], translation, modulation).layers
    spectra = _spectra([gen.windows for gen in layer.generators], group)
    cosets = translation.annihilator.cosets
    gramians = _coset_gramians(spectra, spectra, np.ones(len(spectra)), translation.annihilator)
    _require_finite("gabor frame operator", gramians)
    eigs = np.linalg.eigvalsh(gramians)
    bounds = FrameBounds(max(0.0, float(eigs.min())), float(eigs.max()))
    if not bounds.is_frame:
        raise NotAFrameError(f"gabor system is not a frame "
                             f"(bounds {bounds.lower:.3e}, {bounds.upper:.3e})")
    dual_hat = np.empty(group.size, dtype=np.complex128)
    dual_hat[cosets] = np.linalg.solve(gramians.conj(), dft(window).values[cosets, None])[..., 0]
    return Signal(group, _transform(dual_hat, group, inverse=True))


def check_wavelet_duality(
    f_windows: Sequence[Sequence[Signal]],
    h_windows: Sequence[Sequence[Signal]],
    automorphisms: Sequence[Automorphism],
    translation: Subgroup,
    tol: float | None = None,
    top_k: int = 10,
) -> Verdict:
    """Duality of two dilation-translation systems, evaluated from base-window
    spectra with adjoint-pulled-back frequencies."""
    return _structured_verdict(
        f_windows, h_windows, automorphisms, translation, None, tol, top_k
    )


def check_wavepacket_duality(
    f_windows: Sequence[Sequence[Signal]],
    h_windows: Sequence[Sequence[Signal]],
    automorphisms: Sequence[Automorphism],
    translation: Subgroup,
    modulation: Subgroup,
    tol: float | None = None,
    top_k: int = 10,
) -> Verdict:
    """Duality of two dilation-translation-modulation systems, evaluated from
    base-window spectra."""
    return _structured_verdict(
        f_windows, h_windows, automorphisms, translation, modulation, tol, top_k
    )
