"""Executable duality and orthogonality verdicts for layered systems.

The central object is the table of frequency-fiber correlations of a
structure-matched pair (F, H): for every annihilator offset a and channel
pair (n1, n2),

    fiber[a](n1, n2, xi) = sum over contributing layers and generators of
                           weight * conj(Hhat_{n1}(xi)) * Fhat_{n2}(xi + a).

The pair is dual exactly when the diagonal fibers equal 1 at offset 0 and
vanish elsewhere, and orthogonal exactly when every fiber vanishes; the
dense mixed dual Gramian of `analysis` is the independent oracle for both.

Fibers come from coset blocks: on each coset c + A of an annihilator A, the
window spectra form one block per system, and the Gramian H_c* W F_c holds
the fibers at every offset of A at once.  One pass builds every expanded
table from one transform of the pair's windows.  Below the dense cap its one
product runs over the joint annihilator A = A_1 + ... + A_L: each layer's
Gramian, kept where a_k - a_i lies in A_j and summed, is the fiber table,
and the (F, F) and (H, H) sums are the frame operators' blocks, whose
largest eigenvalues scale the default tolerance.  Above the cap each layer's
product runs over its own A_j and the parts are summed.  Specialized
Gabor / wavelet / wave-packet checks evaluate the same fibers straight from
the structured data (base-window spectra, modulation cosets, adjoint
pullbacks) without expanding the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .analysis import (
    DEFAULT_CAP,
    RAW_TOLERANCE,
    FrameBounds,
    _above_cap,
    _scaled_tolerance,
    default_tolerance,
    mixed_dual_gramian,
)
from .errors import NotAFrameError, NotAMultiplierError
from .fourier import Signal, Spectrum, _transform, dft
from .groups import (
    Automorphism,
    Element,
    GroupSpec,
    Subgroup,
    _difference_table,
    _flat_index,
)
from .systems import (
    SuperSystemDescriptor,
    Verdict,
    Witness,
    _live_windows,
    _non_finite_cause,
    _require_tolerance,
    _residual,
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
    """(..., C, N|A|, N|A|) Gramians H_c* W F_c on the cosets c + A of A, from the
    (..., P, N, |G|) spectra of P generators in F and in H, plain weights, no covolume:
    entry [(n1, i), (n2, j)] is sum_p weights[p] conj(Hhat_p,n1(c + a_i)) Fhat_p,n2(c + a_j).
    """
    *lead, p, n, size = f_spectra.shape
    cols = ann._coset_columns(n)
    # (..., C, N|A|, P): row (n, i) at c + a_i.
    f_blocks = f_spectra.reshape(*lead, p, n * size).swapaxes(-1, -2)[..., cols, :]
    h_blocks = h_spectra.reshape(*lead, p, n * size).swapaxes(-1, -2)[..., cols, :]
    np.conjugate(h_blocks, out=h_blocks)
    # One batched BLAS product, summed over the generators in the kernel's order
    # (so to rounding); an overflow is left as inf for the caller, whose
    # np.errstate keeps it from warning, to refuse or fail on.
    h_blocks *= weights
    return np.matmul(h_blocks, f_blocks.swapaxes(-1, -2))


def _frame_blocks(f_spectra: np.ndarray, h_spectra: np.ndarray, weights: np.ndarray,
                  anns: Sequence[Subgroup], joint: Subgroup) -> np.ndarray:
    """(..., C, N|A|, N|A|) sum over L layers of their coset Gramians H_c* W F_c on the
    cosets c + A of A = `joint`, from (..., L, P, N, |G|) spectra (generators zero-padded
    to one count, weight 0) and (L, P) weights.  Layer j couples xi only with xi + A_j,
    A_j = anns[j], so its Gramian is kept where a_k - a_i lies in A_j.  Overflow is left
    as inf for the caller, whose np.errstate keeps it from warning, to refuse or fail on."""
    n, order = f_spectra.shape[-2], joint.order
    blocks = None
    gram = _coset_gramians(f_spectra, h_spectra, weights[:, None, None, :], joint)
    for j, ann in enumerate(anns):
        part = gram[..., j, :, :, :]
        if ann.order != order:
            split = part.reshape(*part.shape[:-2], n, order, n, order)
            kept = joint._difference_mask(ann)[:, None, :]
            part = np.where(kept, split, 0).reshape(part.shape)
        blocks = part if blocks is None else blocks + part
    return blocks


def _pass_windows(f_system: SuperSystemDescriptor,
                  h_system: SuperSystemDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """The (S, L, P, N, |G|) windows of the live generators of the L layers, in F and then
    in H (F alone, S = 1, when `h_system` is `f_system`), zero-padded to the largest count
    P >= 1, and their (L, P) weights, 0 at the padding: one window array, one row per layer."""
    systems = (f_system,) if h_system is f_system else (f_system, h_system)
    group, n = f_system.group, f_system.channels
    live = [layer.live for layer in f_system.layers]
    width = max(1, *map(len, live))
    blank = [np.zeros(group.size, dtype=np.complex128)] * n
    values = np.array([row for system in systems for layer, gens in zip(system.layers, live)
                       for row in [[w.values for w in layer.generators[p].windows]
                                   for p in gens] + [blank] * (width - len(gens))])
    weights = np.array([[layer.generators[p].weight for p in gens] + [0.0] * (width - len(gens))
                        for layer, gens in zip(f_system.layers, live)])
    return values.reshape(len(systems), len(live), width, n, group.size), weights


def _union_tables(joint: Subgroup, anns: Sequence[Subgroup],
                  channels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted union U of the annihilators `anns`, subgroups of `joint`, its (|U|, L)
    layer mask and the rows of `joint._block_take(channels)` at U, kept on `joint` as one
    entry."""
    def build() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        member = np.stack([ann._membership()[joint.indices] for ann in anns], axis=1)
        rows = np.flatnonzero(member.any(axis=1))
        take = joint._block_take(channels)
        return (joint.indices[rows], member[rows],
                take if rows.size == joint.order else take[rows])

    return joint._table(("union", channels, *(ann.indices.tobytes() for ann in anns)), build)


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below, not warned of
def _block_pass(f_system: SuperSystemDescriptor, h_system: SuperSystemDescriptor,
                bounds: bool) -> tuple[FiberTable, tuple[float, float] | None]:
    """The fiber table of a pair and, when `bounds` (below the cap only), its upper frame
    bounds B_F and B_H, from coset-block products of one transform of `_pass_windows`.

    Below the cap one product runs over the cosets of the joint annihilator A of the layers.
    Summed over the layers j with a_k - a_i in A_j, entry [(n1, i), (n2, k)] of the (F, H)
    Gramian on c + A is fiber[a_k - a_i](n1, n2, c + a_i): the table is one `take` from it.
    The (F, F) and (H, H) sums are the frame operators' blocks; each bound is their largest
    eigenvalue.  Above the cap, where A can be the whole group, each layer's product runs
    over its own annihilator on views of its own generators' spectra, and `_summed_table`
    adds the parts.  Only live generators (`GtiLayer.live`) enter; a layer with none is a
    zero row of weight 0 that joins A.  A non-finite product from finite windows is
    overflow; otherwise `bounds` names the first NaN or inf sample, and a table alone is
    left to fail closed.
    """
    require_matching_structure(f_system, h_system)
    group, n, layers = f_system.group, f_system.channels, f_system.layers
    above = _above_cap(n, group, DEFAULT_CAP)
    bounds = bounds and not above  # above the cap `default_tolerance` takes the raw tolerance
    anns = [layer.subgroup.annihilator for layer in layers]
    values, weights = _pass_windows(f_system, h_system)
    spectra = _transform(values, group)
    del values
    if above:
        def layer_fibers(j: int) -> np.ndarray | None:
            count, ann = len(layers[j].live), anns[j]
            if not count:  # its zero product would be as large as a live layer's
                return None
            gram = _coset_gramians(spectra[0, j, :count], spectra[-1, j, :count],
                                   weights[j, :count], ann)
            return gram.take(ann._block_take(n))

        table = _summed_table(group, n, [ann.indices for ann in anns],
                              map(layer_fibers, range(len(layers))))
        blocks = table.stack
    else:
        joint = reduce(Subgroup._join, anns)
        offsets, layer_mask, take = _union_tables(joint, anns, n)
        if len(spectra) == 1:
            pair = spectra, spectra
        elif bounds:  # leading axis: (F, H), then (F, F) and (H, H)
            pair = spectra[[0, 0, 1]], spectra[[1, 0, 1]]
        else:
            pair = spectra[:1], spectra[1:]
        blocks = _frame_blocks(*pair, weights, anns, joint)
        table = FiberTable(group, n, offsets, blocks[0].take(take), layer_mask)
    # Every entry of the (F, H) sum is masked to 0 or read into the table, so one test of
    # the product covers the table and the bounds.
    if not np.isfinite(blocks).all():
        cause = _non_finite_cause(_live_windows(("F:", f_system), ("H:", h_system)),
                                  ("fiber table", table.stack), ("frame operator", blocks))
        if bounds:
            raise ValueError(cause)
    if not bounds:
        return table, None
    blocks = blocks[-len(spectra):]
    if blocks.shape[-1] == 1:
        # LAPACK returns a 1x1 eigenvalue as it stands but scales a larger problem
        # whose entries pass ~1e146 (or fall below ~1e-146), rounding on the way
        # back; a zero row and column round these diagonal operators' bounds as
        # the dense eigensolver rounds them.
        padded = np.zeros((*blocks.shape[:-2], 2, 2), dtype=blocks.dtype)
        padded[..., :1, :1] = blocks
        blocks = padded
    tops = np.linalg.eigvalsh(blocks)[..., -1].max(axis=-1)
    return table, (float(tops[0]), float(tops[-1]))


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


def fiber_table(
    f_system: SuperSystemDescriptor, h_system: SuperSystemDescriptor
) -> FiberTable:
    """The fibers of a structure-matched pair from its coset-block pass (`_block_pass`):
    below the cap one `take` from the product over the joint annihilator of its layers,
    above it one product per layer over that layer's own annihilator, summed.

    Offset membership in each layer annihilator is decided by exact integer
    congruences, so the offset set is the exact union of the annihilators.
    A non-finite table from finite windows is refused as float64 overflow.
    """
    return _block_pass(f_system, h_system, False)[0]


def _fibers_with_tolerance(
    f_system: SuperSystemDescriptor, h_system: SuperSystemDescriptor, tol: float | None
) -> tuple[FiberTable, float, float | None]:
    """The fiber table of a pair with the verdict's tolerance and Bessel bound: `tol`
    (validated first) and no bound when given, else those of `default_tolerance`, from
    the bounds of the one coset-block pass that gives the table where it returns any."""
    if tol is not None:
        _require_tolerance(tol)
        return fiber_table(f_system, h_system), tol, None
    table, upper = _block_pass(f_system, h_system, True)
    if upper is None:
        return table, *default_tolerance(f_system, h_system)
    return table, *_scaled_tolerance(*upper)


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
    worst = resid.argmax(axis=-1).ravel()
    values = resid.max(axis=-1).ravel().tolist()  # NaN where argmax found the first NaN
    res = table.group.residue_matrix()
    offset_elements = map(tuple, res[table.offset_indices].tolist())
    n = table.channels
    keys = product(offset_elements, [(n1, n2) for n1 in range(n) for n2 in range(n)])
    witnesses = [
        Witness(pair, offset, tuple(frequency), value)
        for (offset, pair), frequency, value in zip(keys, res[worst].tolist(), values)
    ]
    verdict = Verdict.from_witnesses(witnesses, tol, top_k=top_k, bessel_bound=bessel)
    if dual:
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
    table, tol, bessel = _fibers_with_tolerance(f_system, h_system, tol)
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
    table, tol, bessel = _fibers_with_tolerance(f_system, h_system, tol)
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
    NotAMultiplierError otherwise, or when a fiber is not finite, instead of
    silently returning a symbol."""
    table, tol, _ = _fibers_with_tolerance(f_system, h_system, tol)
    if channel is None:
        if table.channels != 1:
            raise ValueError("channel must be given for multi-channel systems")
        channel = 0
    if not 0 <= channel < table.channels:
        raise ValueError(f"channel {channel} out of range")
    resid = np.abs(table.stack)
    diagonal = np.arange(table.channels)
    # The zero-offset diagonal is the symbol: it adds to the residual only where not finite.
    symbol = resid[0, diagonal, diagonal]
    resid[0, diagonal, diagonal] = np.where(np.isfinite(symbol), 0.0, np.inf)
    worst = _residual(float(resid.max()))
    if worst > tol:
        raise NotAMultiplierError(
            f"operator does not commute with translations or is not finite "
            f"(residual {worst:.3e} > tol {tol:.3e})"
        )
    return Spectrum(table.group, table.stack[0, channel, channel].copy())


def commutation_defect(
    f_system: SuperSystemDescriptor,
    h_system: SuperSystemDescriptor,
    matrix: np.ndarray | None = None,
) -> float:
    """max over group points x of the Frobenius norm of Theta T_x - T_x Theta,
    computed on the dense mixed dual Gramian matrix, or on `matrix` read as complex
    values; inf when it is not finite.  The translates of Theta are formed at most
    2^16 entries (1 MiB) at a time."""
    group = f_system.group
    n = f_system.channels
    size = group.size
    if matrix is None:
        matrix = mixed_dual_gramian(f_system, h_system)
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (n * size, n * size):
        raise ValueError(f"matrix has shape {matrix.shape}, expected {(n * size, n * size)}")
    # Row x is the channel-major permutation p of T_x, (T_x f)[i] = f[p[i]].  T_x is
    # unitary, so ||Theta T_x - T_x Theta|| = ||T_x Theta T_x^-1 - Theta||, and the
    # conjugate T_x Theta T_x^-1 is Theta[p[:, None], p].  T_-x = T_x^-1 gives -x the
    # norm of x: rows x <= -x (column 0 of row x is -x) are visited, x = 0 (norm 0)
    # only in the trivial group.
    def half(table: np.ndarray) -> np.ndarray:
        return table[np.flatnonzero(np.arange(size) <= table[:, 0])[min(1, size - 1):]]

    shifts = group._table(("half translates",), lambda: half(_difference_table(group)))
    perms = (shifts[:, None, :] + size * np.arange(n)[:, None]).reshape(len(shifts), -1)
    step = max(1, (1 << 16) // matrix.size)
    norms = np.empty(len(perms))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(perms), step):
            p = perms[start:start + step]
            moved = matrix[p[:, :, None], p[:, None, :]]
            moved -= matrix
            flat = moved.view(np.float64).reshape(len(p), -1)
            norms[start:start + step] = np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0])
    return _residual(float(norms.max()))  # max keeps a NaN norm


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
    res = group.residue_matrix()
    shifted = f_hat[_flat_index(group, res[None, :, :] + res[offsets][:, None, :])]  # xi + a_k
    w_hat = (f_hat * shifted.conj() * fibers.stack[:, 0, 0]).sum(axis=-1) / size
    # The series sum_k <offset_k, x> w_hat_k is |G| times the inverse
    # transform of w_hat placed at the offsets.
    placed = np.zeros(size, dtype=np.complex128)
    placed[offsets] = w_hat
    series = size * _transform(placed, group, inverse=True)
    residual = float(np.abs(values - series).max())
    return QuadraticSeriesReport(values, dict(zip(fibers.offsets, w_hat.tolist())), residual)


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below, not warned of
def _structured_fibers(
    f_windows: Sequence[Sequence[Signal]],
    h_windows: Sequence[Sequence[Signal]],
    automorphisms: Sequence[Automorphism] | None,
    translation: Subgroup,
    modulation: Subgroup | None,
) -> tuple[FiberTable, str | None]:
    """Fibers of a structured system pair from base-window spectra only, and the first
    NaN or inf window sample ("F: windows entry j window n ...") when they are not finite.

    The correlation of the base windows at the offsets delta of ann(Gamma)
    does not depend on the dilation: it is computed once and periodized over
    the modulation subgroup by one sum per coset.  Dilation level alpha, with
    adjoint beta, then moves offset delta to beta(delta) and pulls the
    frequency back through beta^-1; no automorphisms is the Gabor case, one
    level with no relabelling.  Contributors are the dilation levels.
    A non-finite table from finite windows is refused as float64 overflow,
    as in `_block_pass`.
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
    p = len(f_windows)
    base = _coset_gramians(spectra[:p], spectra[p:], np.ones(p), ann).take(
        ann._block_take(channels))
    if modulation is not None:
        cosets = modulation.cosets
        base[..., cosets] = base[..., cosets].sum(axis=-1, keepdims=True)
    if automorphisms is None:
        table = FiberTable(group, channels, ann.indices, base, np.ones((ann.order, 1), dtype=bool))
    else:
        table = _summed_table(group, channels,
                              [alpha.adjoint_perm[ann.indices] for alpha in automorphisms],
                              (base[..., alpha.adjoint_inv_perm] for alpha in automorphisms))
    samples = ((f"{name} windows entry {j} window {c}", w.values)
               for name, windows in (("F:", f_windows), ("H:", h_windows))
               for j, tup in enumerate(windows) for c, w in enumerate(tup))
    return table, _non_finite_cause(samples, ("fiber table", table.stack))


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
    `default_tolerance` would take the raw tolerance anyway.  Before expanding it
    refuses a NaN or inf window sample; otherwise such a table fails closed.
    """
    table, cause = _structured_fibers(f_windows, h_windows, automorphisms, translation, modulation)
    bessel = None
    if tol is None and _above_cap(table.channels, table.group, DEFAULT_CAP):
        tol = RAW_TOLERANCE
    elif tol is None:
        if cause:
            raise ValueError(cause)
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


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below, not warned of
def gabor_canonical_dual(window: Signal, translation: Subgroup, modulation: Subgroup) -> Signal:
    """The window S^-1 g of the canonical dual over the same lattice pair.  S is block
    diagonal over the cosets of ann(translation), acting on each as the conjugate of
    the Hermitian coset Gramian: bounds are its extreme eigenvalues (NotAFrameError
    when the lower one vanishes), and each block is solved on its coset."""
    group = window.group
    _validate_structure([[window]], None, translation, modulation)
    # (M_chi g)^(xi) = ghat(xi - chi): the modulated spectra, chi in index order.
    window_hat = dft(window).values
    spectra = window_hat[_difference_table(group, modulation.indices)][:, None, :]
    ann = translation.annihilator
    gramians = _coset_gramians(spectra, spectra, np.ones(len(spectra)), ann)
    if cause := _non_finite_cause([("gabor window", window.values)],
                                  ("gabor frame operator", gramians)):
        raise ValueError(cause)
    eigs = np.linalg.eigvalsh(gramians)
    bounds = FrameBounds(max(0.0, float(eigs.min())), float(eigs.max()))
    if not bounds.is_frame:
        raise NotAFrameError(f"gabor system is not a frame "
                             f"(bounds {bounds.lower:.3e}, {bounds.upper:.3e})")
    dual_hat = np.empty(group.size, dtype=np.complex128)
    dual_hat[ann.cosets] = np.linalg.solve(gramians.conj(), window_hat[ann.cosets, None])[..., 0]
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
