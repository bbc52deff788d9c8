"""Seeded construction of random systems, engineered dual and orthogonal
pairs, and the standard desk-scale sweep corpus.

The engineered constructions work fiberwise on cosets of the annihilator:
stacking the window spectra of one coset into a matrix, duality of a pair
means (H* W G) = identity there, so drawing G at random and solving for H
with the weighted pseudo-inverse yields exact dual pairs; projecting onto
the orthocomplement of the column space yields exact orthogonal pairs.

Draw order: one standard normal draw per system build (per layer in
`random_descriptor`) and one per engineered layer's coset stack, laid out as
per-window `random_signal` calls (real part, then imaginary part) and per-coset
draws would read the stream, so every corpus is bit for bit theirs at every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat

import numpy as np

from .fourier import Signal, _transform
from .groups import (
    Automorphism,
    GroupSpec,
    Subgroup,
    _extend,
    _flat_index,
    automorphism_from_matrix,
    full_subgroup,
    make_group,
    subgroup_from_generators,
)
from .systems import GtiLayer, SuperSystemDescriptor, WeightedGenerator

SWEEP_GROUP_ORDERS: tuple[tuple[int, ...], ...] = (
    (4,),
    (6,),
    (8,),
    (12,),
    (16,),
    (2, 4),
    (3, 3),
    (2, 2, 2),
)

_subgroup_cache: dict[tuple[int, ...], list[Subgroup]] = {}


def all_small_subgroups(group: GroupSpec) -> list[Subgroup]:
    """Every distinct subgroup generated by at most two elements.

    Ordered by first generating set among (), the elements, then element pairs.
    <x, y> depends only on <x> and <y>, and the first pair giving two distinct
    cyclic subgroups is their pair of smallest generators.
    """
    cached = _subgroup_cache.get(group.orders)
    if cached is not None:
        return cached
    # The first unmarked element is the smallest generator of a new cyclic
    # subgroup; its unit multiples are all the generators of that subgroup.
    marked = np.arange(group.size) == 0
    cyclic: list[Subgroup] = []
    while not marked.all():
        x = group.element_at(int(np.argmin(marked)))
        cyclic.append(subgroup_from_generators(group, [x]))
        k = np.arange(cyclic[-1].order)
        marked[_flat_index(group, k[np.gcd(k, k.size) == 1, None] * np.asarray(x))] = True
    seen = {s.indices.tobytes(): s for s in [subgroup_from_generators(group, []), *cyclic]}
    for a, b in combinations(cyclic, 2):
        joined = _extend(group, a.indices, b.generators[0])
        seen.setdefault(joined.tobytes(), Subgroup(group, a.generators + b.generators, joined))
    # Groups needing more than two generators (e.g. three Z_2 factors) would
    # otherwise miss their own improper subgroup.
    whole = full_subgroup(group)
    seen.setdefault(whole.indices.tobytes(), whole)
    out = list(seen.values())
    _subgroup_cache[group.orders] = out
    return out


def random_subgroup(rng: np.random.Generator, group: GroupSpec,
                    max_index: int | None = None) -> Subgroup:
    """A random subgroup, optionally with |G|/|Gamma| bounded by max_index."""
    pool = all_small_subgroups(group)
    if max_index is not None:
        pool = [s for s in pool if s.covolume <= max_index]
    return pool[int(rng.integers(len(pool)))]


def _normal_rows(rng: np.random.Generator, group: GroupSpec, shape: tuple[int, ...]) -> np.ndarray:
    """(*shape, |G|) complex standard normal rows from one draw: row by row the
    `random_signal` of that many calls in C order, real part then imaginary part."""
    draw = rng.standard_normal((*shape, 2, group.size))
    return (draw[..., 0, :] + 1j * draw[..., 1, :]) / np.sqrt(2.0)


def _random_windows(rng: np.random.Generator, group: GroupSpec, channels: int) -> tuple[Signal, ...]:
    return tuple(Signal(group, v) for v in _normal_rows(rng, group, (channels,)))


def _layer(group: GroupSpec, sub: Subgroup, weights: np.ndarray | list[float],
           windows: np.ndarray) -> GtiLayer:
    """The layer on `sub` whose generator p has weight weights[p] and the rows of the
    (P, N, |G|) `windows[p]` as its windows, each a view of its own row."""
    rows = map(Signal, repeat(group), windows.reshape(-1, group.size))
    # zip over N references to one iterator groups N consecutive rows per generator.
    return GtiLayer(sub, list(map(WeightedGenerator, map(float, weights),
                                  zip(*[rows] * windows.shape[1]))))


def random_descriptor(
    rng: np.random.Generator,
    group: GroupSpec,
    channels: int,
    n_layers: int,
    gens_per_layer: int,
    subgroups: list[Subgroup] | None = None,
) -> SuperSystemDescriptor:
    """Unit-weight layers with independent random windows."""
    layers = []
    for j in range(n_layers):
        sub = subgroups[j] if subgroups is not None else random_subgroup(rng, group)
        layers.append(_layer(group, sub, [1.0] * gens_per_layer,
                             _normal_rows(rng, group, (gens_per_layer, channels))))
    return SuperSystemDescriptor(group, channels, layers)


def matched_random_pair(
    rng: np.random.Generator,
    group: GroupSpec,
    channels: int,
    n_layers: int,
    gens_per_layer: int,
    full_group_layers: bool = False,
) -> tuple[SuperSystemDescriptor, SuperSystemDescriptor]:
    """Two structure-matched descriptors with independent random windows and
    shared random weights in [0.5, 2)."""
    if full_group_layers:
        whole = next(s for s in all_small_subgroups(group) if s.covolume == 1)
        subgroups = [whole] * n_layers
    else:
        subgroups = [random_subgroup(rng, group) for _ in range(n_layers)]
    weights = rng.uniform(0.5, 2.0, size=(n_layers, gens_per_layer))
    def build() -> SuperSystemDescriptor:
        windows = _normal_rows(rng, group, (n_layers, gens_per_layer, channels))
        return SuperSystemDescriptor(group, channels, [
            _layer(group, sub, w, rows) for sub, w, rows in zip(subgroups, weights, windows)])
    return build(), build()


def _fiberwise_pair_layer(
    rng: np.random.Generator,
    group: GroupSpec,
    sub: Subgroup,
    channels: int,
    orthogonal: bool,
) -> tuple[GtiLayer, GtiLayer]:
    """One layer of an exact dual (or orthogonal) pair over the subgroup,
    with random weights in [0.5, 2).  An orthogonal pair takes one generator
    more than the coset width, so that the orthocomplement is not trivial.
    Every coset is solved in one batched call over the stack of cosets."""
    cosets = sub.annihilator.cosets
    width = channels * sub.annihilator.order
    n_gens = width + int(orthogonal)
    weights = rng.uniform(0.5, 2.0, size=n_gens)
    # Per coset: real and imaginary parts of G, then (orthogonal) of the matrix projected for H.
    draw = rng.standard_normal((len(cosets), 2 + 2 * orthogonal, n_gens, width))
    gm = (draw[:, 0] + 1j * draw[:, 1]) / np.sqrt(2.0)
    gram = gm.conj().swapaxes(-1, -2) @ gm
    if orthogonal:
        proj = gm @ np.linalg.solve(gram, gm.conj().swapaxes(-1, -2))
        hm = (np.eye(n_gens) - proj) @ (draw[:, 2] + 1j * draw[:, 3]) / weights[:, None]
    else:
        hm = gm @ np.linalg.inv(gram) / weights[:, None]
    # Column n * |A| + i of a coset block is channel n at the coset's i-th index.
    blocks = np.stack([gm, hm]).reshape(2, len(cosets), n_gens, channels, -1)
    hats = np.zeros((2, n_gens, channels, group.size), dtype=np.complex128)
    hats[..., cosets] = blocks.transpose(0, 2, 3, 1, 4)
    lf, lh = (_layer(group, sub, weights, w) for w in _transform(hats, group, inverse=True))
    return lf, lh


def dual_pair(
    rng: np.random.Generator,
    group: GroupSpec,
    channels: int,
    n_layers: int = 1,
) -> tuple[SuperSystemDescriptor, SuperSystemDescriptor]:
    """An exact super dual frame pair with the requested layer count.

    Each layer is an exact dual pair on its own subgroup, of index at most
    max(1, 4 // channels); layers are scaled by split masses summing to one,
    which keeps the combined pair dual.
    """
    masses = rng.dirichlet(np.ones(n_layers)) if n_layers > 1 else np.array([1.0])
    f_layers = []
    h_layers = []
    for j in range(n_layers):
        sub = random_subgroup(rng, group, max_index=max(1, 4 // channels))
        lf, lh = _fiberwise_pair_layer(rng, group, sub, channels, orthogonal=False)
        scale = float(np.sqrt(masses[j]))
        for gen in lf.generators:
            for w in gen.windows:
                w.values *= scale
        for gen in lh.generators:
            for w in gen.windows:
                w.values *= scale
        f_layers.append(lf)
        h_layers.append(lh)
    return (
        SuperSystemDescriptor(group, channels, f_layers),
        SuperSystemDescriptor(group, channels, h_layers),
    )


def orthogonal_pair(
    rng: np.random.Generator,
    group: GroupSpec,
    channels: int,
) -> tuple[SuperSystemDescriptor, SuperSystemDescriptor]:
    """An exact orthogonal pair (zero mixed dual Gramian), single layer."""
    sub = random_subgroup(rng, group, max_index=max(1, 3 // channels))
    lf, lh = _fiberwise_pair_layer(rng, group, sub, channels, orthogonal=True)
    return (
        SuperSystemDescriptor(group, channels, [lf]),
        SuperSystemDescriptor(group, channels, [lh]),
    )


def random_automorphism(rng: np.random.Generator, group: GroupSpec) -> Automorphism:
    """A random automorphism: a diagonal of units plus, with probability 0.7 when d > 1,
    one admissible shear entry.  D + E with E that one entry is D(I + D^-1 E), and
    (D^-1 E)^2 = 0, so every draw is bijective."""
    d = group.ndim
    orders = group.orders
    mat = np.zeros((d, d), dtype=np.int64)
    for k, n in enumerate(orders):
        units = [u for u in range(1, n + 1) if np.gcd(u, n) == 1] or [1]
        mat[k, k] = units[int(rng.integers(len(units)))]
    if d > 1 and rng.random() < 0.7:
        k, l = rng.choice(d, size=2, replace=False)
        step = orders[k] // np.gcd(orders[k], orders[l])
        mat[k, l] = step * int(rng.integers(0, max(1, orders[k] // max(1, step))))
    return automorphism_from_matrix(group, mat)


@dataclass
class SweepCase:
    """One pair of the standard corpus, tagged with how it was built."""

    name: str
    kind: str  # "random", "full_group", "dual", "orthogonal"
    f_system: SuperSystemDescriptor
    h_system: SuperSystemDescriptor


def sweep_cases(seed: int = 20240801, per_group: dict[str, int] | None = None) -> list[SweepCase]:
    """The standard seeded corpus over the desk-scale group list.

    Default mix per group: 13 fully random pairs, 4 pairs whose layers all sit
    on the full group (so their Gramians are always translation-commuting),
    6 engineered dual pairs and 4 engineered orthogonal pairs.
    """
    counts = {"random": 13, "full_group": 4, "dual": 6, "orthogonal": 4}
    if per_group:
        counts.update(per_group)
    rng = np.random.default_rng(seed)
    cases = []
    for orders in SWEEP_GROUP_ORDERS:
        group = make_group(orders)
        for i in range(counts["random"]):
            channels = int(rng.integers(1, 4))
            f, h = matched_random_pair(
                rng, group, channels,
                n_layers=int(rng.integers(1, 4)),
                gens_per_layer=int(rng.integers(1, 5)),
            )
            cases.append(SweepCase(f"{group}-random-{i}", "random", f, h))
        for i in range(counts["full_group"]):
            channels = int(rng.integers(1, 4))
            f, h = matched_random_pair(
                rng, group, channels,
                n_layers=int(rng.integers(1, 3)),
                gens_per_layer=int(rng.integers(1, 5)),
                full_group_layers=True,
            )
            cases.append(SweepCase(f"{group}-full-{i}", "full_group", f, h))
        for i in range(counts["dual"]):
            channels = int(rng.integers(1, 4))
            f, h = dual_pair(rng, group, channels, n_layers=int(rng.integers(1, 3)))
            cases.append(SweepCase(f"{group}-dual-{i}", "dual", f, h))
        for i in range(counts["orthogonal"]):
            channels = int(rng.integers(1, 4))
            f, h = orthogonal_pair(rng, group, channels)
            cases.append(SweepCase(f"{group}-orth-{i}", "orthogonal", f, h))
    return cases
