"""Translation, modulation and dilation operators, and the descriptors that
expand Gabor / wavelet / wave-packet specifications into explicit layered
translation-invariant systems.

A descriptor is a union of layers; each layer translates a weighted list of
generators (one window per channel) along its subgroup.  Constructors always
expand to this layered form, rewriting dilation-translation products so that
every member is a plain translate of a stored window.

A wave-packet specification {D_alpha T_gamma M_chi psi_j} is four values:
windows, automorphisms, translation subgroup and modulation subgroup.  Gabor
systems are the case with no automorphisms (alpha = id) and wavelet systems
the case with no modulation (Lambda = {0}); one validator checks and one
expander, `_structured_system`, expands all three kinds.  Expansion is
array-at-once: the modulated windows M_chi psi_j of every (j, chi) are one
(P, N, |G|) product of the modulation subgroup's characters with the stacked
windows, and each dilation level is one gather of that stack through alpha's
permutation.  A character of Lambda is constant on the cosets of its
annihilator, so along axis m it repeats with period
t_m = n_m / gcd(n_m, xi_m of every chi): `groups` gives the characters of all
chi on that period grid alone, and the product broadcasts them over the
group.  Each value equals the per-element `modulate`/`dilate` result bit for
bit.  `_layer` is the one wrapper of a (P, N, |G|) window array as a layer,
here and in `sweeps`: every generator's windows are row views of the array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import StructureMismatchError
from .fourier import Signal, _roll
from .groups import (
    Automorphism,
    Element,
    GroupSpec,
    Subgroup,
    _character_rows,
    _periods,
    character_column,
)


def translate(gamma: Sequence[int], f: Signal) -> Signal:
    """(T_gamma f)(x) = f(x - gamma)."""
    return Signal(f.group, _roll(f.values, f.group, f.group.neg(gamma)))


def modulate(chi: Sequence[int], f: Signal) -> Signal:
    """(M_chi f)(x) = <chi, x> f(x); shifts the spectrum by chi."""
    return Signal(f.group, character_column(f.group, chi) * f.values)


def dilate(alpha: Automorphism, f: Signal) -> Signal:
    """(D_alpha f)(x) = f(alpha(x)); a permutation of coordinates."""
    if alpha.parent.orders != f.group.orders:
        raise ValueError("automorphism group does not match signal group")
    return Signal(f.group, f.values[alpha.perm])


@dataclass(eq=False)
class WeightedGenerator:
    """One generator of a layer: a nonnegative mass and one window per channel."""

    weight: float
    windows: tuple[Signal, ...]

    def __post_init__(self) -> None:
        self.windows = tuple(self.windows)
        if self.weight < 0:
            raise ValueError(f"generator weight must be nonnegative, got {self.weight}")
        if not self.windows:
            raise ValueError("generator needs at least one channel window")


@dataclass(eq=False)
class GtiLayer:
    """Translates its weighted generators along one subgroup."""

    subgroup: Subgroup
    generators: list[WeightedGenerator]

    def __post_init__(self) -> None:
        group = self.subgroup.parent
        for gen in self.generators:
            for w in gen.windows:
                if w.group.orders != group.orders:
                    raise ValueError("window group does not match layer subgroup parent")

    @property
    def live(self) -> list[int]:
        """Indices of the generators of nonzero mass: one of mass 0 is not in the system."""
        return [p for p, gen in enumerate(self.generators) if gen.weight != 0.0]


def _layer(group: GroupSpec, sub: Subgroup, weights: Iterable[float],
           windows: np.ndarray) -> GtiLayer:
    """The layer on `sub` whose generator p has weight weights[p] and the rows of the
    (P, N, |G|) `windows[p]` as its windows, each a view of its own row."""
    rows = map(Signal, repeat(group), windows.reshape(-1, group.size))
    # zip over N references to one iterator groups N consecutive rows per generator.
    return GtiLayer(sub, list(map(WeightedGenerator, map(float, weights),
                                  zip(*[rows] * windows.shape[1]))))


@dataclass(eq=False)
class SuperSystemDescriptor:
    """A finite union of layers acting diagonally on an N-channel space."""

    group: GroupSpec
    channels: int
    layers: list[GtiLayer]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("descriptor needs at least one layer")
        if self.channels < 1:
            raise ValueError("channel count must be at least 1")
        for layer in self.layers:
            if layer.subgroup.parent.orders != self.group.orders:
                raise ValueError("layer subgroup does not live in the descriptor group")
            for gen in layer.generators:
                if len(gen.windows) != self.channels:
                    raise ValueError(
                        f"generator has {len(gen.windows)} windows, expected {self.channels}"
                    )

    def generator_count(self) -> int:
        return sum(len(layer.generators) for layer in self.layers)


@dataclass
class Witness:
    """One offending (channel pair, offset, frequency) triple of a failed check."""

    channels: tuple[int, int]
    offset: Element
    frequency: Element
    residual: float


def _residual(value: float) -> float:
    """A residual as it ranks and fails: a non-finite value is +inf, so NaN never passes."""
    return value if math.isfinite(value) else math.inf


def _require_tolerance(tolerance: float) -> None:
    # An infinite tolerance would pass a NaN residual, which ranks as +inf.
    if not math.isfinite(tolerance) or tolerance < 0:
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")


@dataclass
class Verdict:
    """Outcome of a characterization check: pass/fail plus the worst residuals."""

    passed: bool
    max_residual: float
    witnesses: list[Witness]
    tolerance: float
    bessel_bound: float | None = None
    blocks: dict[tuple[int, int], "Verdict"] | None = field(default=None, repr=False)

    @classmethod
    def from_witnesses(
        cls,
        witnesses: list[Witness],
        tolerance: float,
        top_k: int = 10,
        bessel_bound: float | None = None,
    ) -> "Verdict":
        if top_k < 0:
            raise ValueError(f"top_k must be non-negative, got {top_k}")
        _require_tolerance(tolerance)
        ranked = sorted(witnesses, key=lambda w: _residual(w.residual), reverse=True)
        max_residual = _residual(ranked[0].residual) if ranked else 0.0
        return cls(
            passed=max_residual <= tolerance,
            max_residual=max_residual,
            witnesses=ranked[:top_k],
            tolerance=tolerance,
            bessel_bound=bessel_bound,
        )


def _live_windows(*named: tuple[str, SuperSystemDescriptor]) -> Iterator[tuple[str, np.ndarray]]:
    """The samples of every window of a live generator of each named system, labelled
    "<name> layer j generator p window w", for `_non_finite_cause`."""
    for name, system in named:
        for j, layer in enumerate(system.layers):
            for p in layer.live:
                for w, window in enumerate(layer.generators[p].windows):
                    yield f"{name} layer {j} generator {p} window {w}", window.values


def _non_finite_cause(inputs: Iterable[tuple[str, np.ndarray]],
                      *results: tuple[str, np.ndarray]) -> str | None:
    """None when every named result is finite, else the first NaN or inf of the labelled
    inputs, read lazily, as "<label> has a non-finite value at index x"; with every input
    finite, the first non-finite result overflowed float64 and is refused."""
    bad = next((what for what, values in results if not np.isfinite(values).all()), None)
    if bad is None:
        return None
    for label, values in inputs:
        index = np.flatnonzero(~np.isfinite(values))
        if index.size:
            return f"{label} has a non-finite value at index {index[0]}"
    raise ValueError(f"{bad} overflows float64: weights, windows or input values too large")


def _validate_structure(
    windows: Sequence[Sequence[Signal]],
    automorphisms: Sequence[Automorphism] | None,
    translation: Subgroup,
    modulation: Subgroup | None,
) -> int:
    """Channel count of a wave-packet specification, after checking that its
    modulation subgroup, its (nonempty) automorphism list and its windows all
    live on the translation's group; None skips that part."""
    group = translation.parent
    if modulation is not None and modulation.parent.orders != group.orders:
        raise ValueError("modulation subgroup must live in the dual of the same group")
    if automorphisms is not None and not automorphisms:
        raise ValueError("need at least one automorphism")
    if any(alpha.parent.orders != group.orders for alpha in automorphisms or ()):
        raise ValueError("automorphism group mismatch")
    if not windows:
        raise ValueError("need at least one window tuple")
    channels = len(windows[0])
    if channels == 0:
        raise ValueError("window tuples must have at least one channel")
    for tup in windows:
        if len(tup) != channels:
            raise ValueError("all window tuples must have the same channel count")
        for w in tup:
            if w.group.orders != group.orders:
                raise ValueError("window group mismatch")
    return channels


def _structured_system(
    windows: Sequence[Sequence[Signal]],
    automorphisms: Sequence[Automorphism] | None,
    translation: Subgroup,
    modulation: Subgroup | None,
) -> SuperSystemDescriptor:
    """Expand {D_alpha T_gamma M_chi psi_j} into weight-1 layers.

    The generators M_chi psi_j over (j, chi), chi over the modulation subgroup
    in index order, are one character table times the windows: the table holds
    the characters on one period t_m of each axis (`groups._periods`), and the
    windows, folded as n_m/t_m repeats of t_m points per axis, meet it by
    broadcasting, so each sample is multiplied by the same root of unity as in
    the whole-group table.  None modulation (wavelets) leaves the windows as
    they are.  Each automorphism alpha gives one layer: one gather D_alpha of
    that stack, translated along alpha^{-1}(Gamma).  None automorphisms (Gabor)
    give one layer on Gamma.
    """
    channels = _validate_structure(windows, automorphisms, translation, modulation)
    group = translation.parent
    stack = np.stack([[w.values for w in tup] for tup in windows])
    if modulation is not None:
        duals = group.residue_matrix()[modulation.indices]
        periods = _periods(group, duals)
        chars = _character_rows(group, duals, periods)
        # The (P, N, |G|) windows as (P, 1, N, n_1/t_1, t_1, ..., n_d/t_d, t_d) against
        # the (k, t_1, ..., t_d) characters spread as (1, k, 1, 1, t_1, ..., 1, t_d).
        folded = [x for n, t in zip(group.orders, periods) for x in (n // t, t)]
        spread = [x for t in periods for x in (1, t)]
        stack = chars.reshape(1, -1, 1, *spread) * stack.reshape(len(stack), 1, channels, *folded)
        stack = stack.reshape(-1, channels, group.size)
    levels = [(translation, stack)] if automorphisms is None else [
        (alpha.inverse_image(translation), stack[..., alpha.perm]) for alpha in automorphisms
    ]
    return SuperSystemDescriptor(group, channels, [
        _layer(group, sub, repeat(1.0, len(values)), values) for sub, values in levels])


def gabor_system(
    windows: Sequence[Sequence[Signal]],
    translation: Subgroup,
    modulation: Subgroup,
) -> SuperSystemDescriptor:
    """Expand {T_gamma M_chi psi_j} into a single layer on the translation subgroup.

    One generator per (j, chi) pair, window M_chi psi_j, weight 1; chi runs
    over the modulation subgroup in index order, so the expansion is stable.
    """
    return _structured_system(windows, None, translation, modulation)


def wavelet_system(
    windows: Sequence[Sequence[Signal]],
    automorphisms: Sequence[Automorphism],
    translation: Subgroup,
) -> SuperSystemDescriptor:
    """Expand {D_alpha T_gamma psi_j} into one layer per automorphism.

    The rewrite D_alpha T_gamma = T_{alpha^{-1} gamma} D_alpha turns each
    dilation level into translates of D_alpha psi_j along alpha^{-1}(Gamma).
    """
    return _structured_system(windows, automorphisms, translation, None)


def wavepacket_system(
    windows: Sequence[Sequence[Signal]],
    automorphisms: Sequence[Automorphism],
    translation: Subgroup,
    modulation: Subgroup,
) -> SuperSystemDescriptor:
    """Expand {D_alpha T_gamma M_chi psi_j}: one layer per automorphism with
    generators D_alpha M_chi psi_j over (j, chi), translated along
    alpha^{-1}(Gamma)."""
    return _structured_system(windows, automorphisms, translation, modulation)


def require_matching_structure(f: SuperSystemDescriptor, h: SuperSystemDescriptor) -> None:
    """Check that two descriptors share group, channels, layer subgroups,
    generator counts and weights; raise StructureMismatchError otherwise."""
    if f.group.orders != h.group.orders:
        raise StructureMismatchError(
            f"group mismatch: {f.group} vs {h.group}"
        )
    if f.channels != h.channels:
        raise StructureMismatchError(
            f"channel mismatch: {f.channels} vs {h.channels}"
        )
    if len(f.layers) != len(h.layers):
        raise StructureMismatchError(
            f"layer count mismatch: {len(f.layers)} vs {len(h.layers)}"
        )
    for i, (lf, lh) in enumerate(zip(f.layers, h.layers)):
        if not lf.subgroup.same_set(lh.subgroup):
            raise StructureMismatchError(f"layer {i}: subgroup element sets differ")
        if len(lf.generators) != len(lh.generators):
            raise StructureMismatchError(
                f"layer {i}: generator count mismatch "
                f"({len(lf.generators)} vs {len(lh.generators)})"
            )
        for p, (gf, gh) in enumerate(zip(lf.generators, lh.generators)):
            if gf.weight != gh.weight:
                raise StructureMismatchError(
                    f"layer {i} generator {p}: weights differ ({gf.weight} vs {gh.weight})"
                )
