"""Frame computations: the dense-matrix oracle and the multiplexing codec.

The oracle works in the time domain from translate tables: the mixed dual
Gramian, which for equal systems is the frame operator, and the frame
bounds.  No verdict translates; two dense diagnostics of `characterization`
do (`commutation_defect` permutes Theta, `quadratic_form_series` gathers
T_x f).  The verdict tolerance is scaled by upper frame bounds taken from
coset blocks (`characterization`), not from the oracle, so the two stay
independent.  Analysis and synthesis, and the multiplexing codec built on
them for a certified dual pair, work by transforms over the group grid
(correlation and convolution theorems).
Synthesis carries the full measure weighting (covolume per layer, user mass
per generator); analysis is the plain unweighted pairing, so the two compose
to the weighted reproduction sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
import numpy as np

from .errors import CapExceededError, UncertifiedPairError
from .fourier import Signal, _spectra, _transform
from .groups import GroupSpec
from .systems import (SuperSystemDescriptor, _live_windows, _non_finite_cause,
                      require_matching_structure)

DEFAULT_CAP = 256
# The verdict tolerance before any scaling by frame bounds.
RAW_TOLERANCE = 1e-9


@dataclass(eq=False)
class SuperSignal:
    """An N-channel signal; one entry of the direct-sum space."""

    channels: tuple[Signal, ...]

    def __post_init__(self) -> None:
        self.channels = tuple(self.channels)
        if not self.channels:
            raise ValueError("super signal needs at least one channel")
        orders = self.channels[0].group.orders
        for s in self.channels:
            if s.group.orders != orders:
                raise ValueError("all channels must share one group")

    @property
    def group(self) -> GroupSpec:
        return self.channels[0].group

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def norm(self) -> float:
        return float(np.sqrt(sum(s.norm() ** 2 for s in self.channels)))

    def stacked(self) -> np.ndarray:
        """Channel-major (N, |G|) matrix of values."""
        return np.stack([s.values for s in self.channels])

    @classmethod
    def from_stacked(cls, group: GroupSpec, values: np.ndarray) -> "SuperSignal":
        mat = np.asarray(values, dtype=np.complex128).reshape(-1, group.size)
        return cls(tuple(Signal(group, row) for row in mat))


@dataclass(eq=False)
class CoefficientMap:
    """Analysis coefficients indexed by (layer, generator, subgroup element).

    entries[j] has shape (generators, subgroup order).  Synthesis takes the
    measure data (covolume per layer, mass per generator) from its system.
    """

    group: GroupSpec
    channels: int
    entries: list[np.ndarray]

    def total_size(self) -> int:
        return sum(e.size for e in self.entries)


@dataclass(frozen=True)
class FrameBounds:
    """Best two-sided energy constants of a system (extreme eigenvalues)."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-12:
            raise ValueError("lower bound exceeds upper bound")

    @property
    def is_frame(self) -> bool:
        # Conditioning-aware zero test for the lower bound.
        return self.lower > 1e-8 * max(self.upper, 1e-300)


def _check_signal_match(system: SuperSystemDescriptor, f: SuperSignal) -> None:
    if f.group.orders != system.group.orders:
        raise ValueError("signal group does not match system group")
    if f.n_channels != system.channels:
        raise ValueError(
            f"signal has {f.n_channels} channels, system expects {system.channels}"
        )


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below, not warned of
def analysis_coeffs(system: SuperSystemDescriptor, f: SuperSignal) -> CoefficientMap:
    """Plain pairings <f, T_gamma g> summed over channels, no weights applied.

    By the correlation theorem the pairing over all translates x of G is
    idft(sum_n conj(ghat_n) * fhat_n)(x); the subgroup's entries are read off.
    """
    _check_signal_match(system, f)
    group = system.group
    f_hat = _transform(f.stacked(), group)
    entries = []
    for layer in system.layers:
        rows = np.empty((len(layer.generators), layer.subgroup.order), dtype=np.complex128)
        if layer.generators:
            g_hat = _spectra([gen.windows for gen in layer.generators], group)
            pairing = np.einsum("png,ng->pg", g_hat.conj(), f_hat)
            rows[:] = _transform(pairing, group, inverse=True)[:, layer.subgroup.indices]
        entries.append(rows)
    # Synthesis never reads the rows of zero-mass generators; the others must be finite.
    signal = ((f"signal channel {c}", s.values) for c, s in enumerate(f.channels))
    if cause := _non_finite_cause(chain(signal, _live_windows(("system", system))), *(
            ("analysis", rows[layer.live]) for rows, layer in zip(entries, system.layers))):
        raise ValueError(cause)
    return CoefficientMap(group, system.channels, entries)


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below, not warned of
def synthesis(system: SuperSystemDescriptor, coeffs: CoefficientMap) -> SuperSignal:
    """Weighted reproduction sum: covolume per layer, mass per generator.

    Each coefficient row, scaled and placed on its subgroup, is convolved
    with its windows by multiplying transforms; one inverse transform per
    channel finishes all layers.  Zero-mass generators are skipped, so their
    windows and coefficients never enter the sum.
    """
    if coeffs.group.orders != system.group.orders:
        raise ValueError("coefficient group does not match system group")
    if coeffs.channels != system.channels:
        raise ValueError(f"coefficients have {coeffs.channels} channels, "
                         f"system expects {system.channels}")
    if len(coeffs.entries) != len(system.layers):
        raise ValueError("coefficient layer count does not match system")
    group = system.group
    out_hat = np.zeros((system.channels, group.size), dtype=np.complex128)
    for j, layer in enumerate(system.layers):
        rows = coeffs.entries[j]
        if rows.shape != (len(layer.generators), layer.subgroup.order):
            raise ValueError(f"coefficient block {j} has shape {rows.shape}, expected "
                             f"({len(layer.generators)}, {layer.subgroup.order})")
        scales = np.array([layer.subgroup.covolume * gen.weight for gen in layer.generators])
        live = layer.live
        if not live:
            continue
        placed = np.zeros((len(live), group.size), dtype=np.complex128)
        placed[:, layer.subgroup.indices] = scales[live, None] * rows[live]
        g_hat = _spectra([layer.generators[p].windows for p in live], group)
        out_hat += np.einsum("pg,png->ng", _transform(placed, group), g_hat)
    out = _transform(out_hat, group, inverse=True)
    read = ((f"coefficients layer {j} row {p}", coeffs.entries[j][p])
            for j, layer in enumerate(system.layers) for p in layer.live)
    if cause := _non_finite_cause(chain(read, _live_windows(("system", system))),
                                  ("synthesis", out)):
        raise ValueError(cause)
    return SuperSignal.from_stacked(group, out)


def _above_cap(channels: int, group: GroupSpec, cap: int) -> bool:
    """Whether a dense operator on N channels over the group exceeds the cap."""
    return channels * group.size > cap


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below, not warned of
def mixed_dual_gramian(
    f_system: SuperSystemDescriptor,
    h_system: SuperSystemDescriptor,
    cap: int = DEFAULT_CAP,
) -> np.ndarray:
    """Dense matrix of the operator that analyzes against the second system
    and synthesizes with the first:

        f  |->  sum_j V_j sum_p w_p sum_gamma <f, T_gamma h_jp> T_gamma g_jp,

    with g from `f_system` and h from `h_system`.  For equal arguments this
    is the frame operator; identity means the pair is dual, zero means the
    systems are orthogonal.  Each layer adds the product Tg^T @ conj(Th) of
    its (P|Gamma|, N|G|) translate matrices, rows scaled by the masses: one
    product, or one per group of generators when P|Gamma| > N|G|.
    """
    require_matching_structure(f_system, h_system)
    n = f_system.channels
    size = f_system.group.size
    if _above_cap(n, f_system.group, cap):
        raise CapExceededError(f"dense operation needs {n * size} rows, above the cap of {cap}")
    out = np.zeros((n * size, n * size), dtype=np.complex128)
    for lf, lh in zip(f_system.layers, h_system.layers):
        scales = lf.subgroup.covolume * np.array([gen.weight for gen in lf.generators])
        live = lf.live
        table = lf.subgroup.translate_table
        # Generators go in groups of at most N|G| / |Gamma|, so that no
        # translate matrix holds more entries than `out` (all at once, a
        # full-lattice Gabor layer on Z256 would need 1 GB).
        step = max(1, n * size // table.shape[0])
        for start in range(0, len(live), step):
            part = live[start:start + step]
            gens = [layer.generators[p] for layer in (lf, lh) for p in part]
            values = np.stack([[w.values for w in gen.windows] for gen in gens])
            # Row (p, i) of each half is the channel-major T_{gamma_i} of generator p.
            tg, th = values[:, :, table].transpose(0, 2, 1, 3).reshape(2, -1, n * size)
            out += (tg * np.repeat(scales[part], table.shape[0])[:, None]).T @ th.conj()
    # A NaN or inf sample of a live generator is named, else the operator overflowed.
    if cause := _non_finite_cause(_live_windows(("F:", f_system), ("H:", h_system)),
                                  ("dense operator", out)):
        raise ValueError(cause)
    return out


def frame_bounds(system: SuperSystemDescriptor, cap: int = DEFAULT_CAP) -> FrameBounds:
    """Extreme eigenvalues of the frame operator."""
    eigs = np.linalg.eigvalsh(mixed_dual_gramian(system, system, cap=cap))
    return FrameBounds(max(0.0, float(eigs.min())), float(eigs.max()))


def default_tolerance(
    f_system: SuperSystemDescriptor, h_system: SuperSystemDescriptor
) -> tuple[float, float | None]:
    """Residual tolerance RAW_TOLERANCE * max(1, B_F * B_H)^(1/2) and the recorded
    Bessel bound when N*|G| <= DEFAULT_CAP, else RAW_TOLERANCE and no bound.  The
    threshold is fixed: a verdict does not depend on the cap of a dense operation.

    The upper bounds come from the coset blocks of each frame operator over the
    joint annihilator of its layers, not from the dense oracle `frame_bounds`."""
    if _above_cap(f_system.channels, f_system.group, DEFAULT_CAP):
        return RAW_TOLERANCE, None
    # characterization imports this module, so the coset-block pass is imported here.
    from .characterization import _block_pass

    return _scaled_tolerance(*_block_pass(f_system, h_system, True)[1])


def _scaled_tolerance(b_f: float, b_h: float) -> tuple[float, float]:
    """`default_tolerance` below the cap, from the upper bounds B_F and B_H."""
    # The product overflows for bounds past ~1e154, the product of the square
    # roots does not; taking it only there keeps every other tolerance's bits.
    scale = (b_f * b_h) ** 0.5
    if math.isinf(scale):
        scale = math.sqrt(b_f) * math.sqrt(b_h)
    return RAW_TOLERANCE * max(1.0, scale), max(b_f, b_h)


def gramian_identity_residual(matrix: np.ndarray) -> float:
    """Entrywise max deviation from the identity."""
    return float(np.abs(matrix - np.eye(matrix.shape[0])).max())


def _require_certified(f_system: SuperSystemDescriptor, h_system: SuperSystemDescriptor) -> None:
    """Raise UncertifiedPairError unless the fiber verdict calls the pair dual."""
    # characterization imports this module, so the verdict is imported here.
    from .characterization import check_super_duality

    verdict = check_super_duality(f_system, h_system)
    if not verdict.passed:
        raise UncertifiedPairError(
            f"pair is not a certified dual pair (residual {verdict.max_residual:.3e} "
            f"> tol {verdict.tolerance:.3e})"
        )


def multiplex_encode(
    pair: tuple[SuperSystemDescriptor, SuperSystemDescriptor], signals: SuperSignal
) -> CoefficientMap:
    """Push N channels through one coefficient stream of the analysis system,
    once the pair is certified dual (`analysis_coeffs` skips the certification)."""
    f_system, h_system = pair
    _require_certified(f_system, h_system)
    return analysis_coeffs(f_system, signals)


def multiplex_decode(
    pair: tuple[SuperSystemDescriptor, SuperSystemDescriptor], coeffs: CoefficientMap
) -> SuperSignal:
    """Recover all N channels from one coefficient stream via the dual system,
    once the pair is certified dual (`synthesis` skips the certification)."""
    f_system, h_system = pair
    _require_certified(f_system, h_system)
    return synthesis(h_system, coeffs)
