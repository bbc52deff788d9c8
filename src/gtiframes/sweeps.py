"""Seeded construction of random systems, engineered dual and orthogonal
pairs, and the standard desk-scale sweep corpus.

The engineered constructions work fiberwise on cosets of the annihilator:
stacking the window spectra of one coset into a matrix, duality of a pair
means (H* W G) = identity there, so drawing G at random and solving for H
with the weighted pseudo-inverse yields exact dual pairs; projecting onto
the orthocomplement of the column space yields exact orthogonal pairs.
`dual_pair` and `orthogonal_pair` are one construction, `_engineered_pair`;
its coset blocks are laid out as the annihilator's `_coset_columns`, and
every window array here becomes a layer through `systems._layer`.

Draw order: one standard normal draw per system build (per layer in
`random_descriptor`) and one per engineered layer's coset stack, laid out as
per-window `random_signal` calls (real part, then imaginary part) and per-coset
draws would read the stream, so every corpus is bit for bit theirs at every seed.
`sweep_cases` draws each case's channel count, then what its builder draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .fourier import Signal, _normal_rows, _transform
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
from .systems import GtiLayer, SuperSystemDescriptor, _layer

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


def _random_windows(rng: np.random.Generator, group: GroupSpec, channels: int) -> tuple[Signal, ...]:
    return tuple(Signal(group, v) for v in _normal_rows(rng, group, (channels,)))


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
    Every coset is solved in one batched call over the stack of cosets, and the
    blocks are scattered through the annihilator's `_coset_columns`."""
    ann = sub.annihilator
    width = channels * ann.order
    n_gens = width + int(orthogonal)
    weights = rng.uniform(0.5, 2.0, size=n_gens)
    # Per coset: real and imaginary parts of G, then (orthogonal) of the matrix projected for H.
    draw = rng.standard_normal((len(ann.cosets), 2 + 2 * orthogonal, n_gens, width))
    gm = (draw[:, 0] + 1j * draw[:, 1]) / np.sqrt(2.0)
    gram = gm.conj().swapaxes(-1, -2) @ gm
    if orthogonal:
        proj = gm @ np.linalg.solve(gram, gm.conj().swapaxes(-1, -2))
        hm = (np.eye(n_gens) - proj) @ (draw[:, 2] + 1j * draw[:, 3]) / weights[:, None]
    else:
        hm = gm @ np.linalg.inv(gram) / weights[:, None]
    hats = np.zeros((2, n_gens, channels * group.size), dtype=np.complex128)
    hats[..., ann._coset_columns(channels)] = np.stack([gm, hm]).swapaxes(1, 2)
    hats = _transform(hats.reshape(2, n_gens, channels, group.size), group, inverse=True)
    lf, lh = (_layer(group, sub, weights, w) for w in hats)
    return lf, lh


def _engineered_pair(rng: np.random.Generator, group: GroupSpec, channels: int, n_layers: int,
                     orthogonal: bool) -> tuple[SuperSystemDescriptor, SuperSystemDescriptor]:
    """The masses (split by a Dirichlet draw when n_layers > 1), then per layer a subgroup
    of index at most max(1, 4 // channels), or max(1, 3 // channels) when orthogonal, and
    its `_fiberwise_pair_layer`, both sides scaled in place by the square root of its mass."""
    masses = rng.dirichlet(np.ones(n_layers)) if n_layers > 1 else np.array([1.0])
    f_layers: list[GtiLayer] = []
    h_layers: list[GtiLayer] = []
    for mass in masses:
        sub = random_subgroup(rng, group, max_index=max(1, (3 if orthogonal else 4) // channels))
        scale = float(np.sqrt(mass))
        for layer, side in zip(_fiberwise_pair_layer(rng, group, sub, channels, orthogonal),
                               (f_layers, h_layers)):
            for gen in layer.generators:
                for w in gen.windows:
                    w.values *= scale
            side.append(layer)
    return (SuperSystemDescriptor(group, channels, f_layers),
            SuperSystemDescriptor(group, channels, h_layers))


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
    return _engineered_pair(rng, group, channels, n_layers, orthogonal=False)


def orthogonal_pair(
    rng: np.random.Generator,
    group: GroupSpec,
    channels: int,
) -> tuple[SuperSystemDescriptor, SuperSystemDescriptor]:
    """An exact orthogonal pair (zero mixed dual Gramian), single layer."""
    return _engineered_pair(rng, group, channels, 1, orthogonal=True)


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
    6 engineered dual pairs and 4 engineered orthogonal pairs.  `per_group` overrides
    these counts by kind; any other key, or a count that is not a non-negative int
    (bools included), raises ValueError.
    """
    counts = {"random": 13, "full_group": 4, "dual": 6, "orthogonal": 4}
    unknown = sorted(set(per_group or ()) - counts.keys())
    if unknown:
        raise ValueError(f"unknown per_group keys {unknown}; the kinds are {list(counts)}")
    for kind, count in (per_group or {}).items():
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ValueError(f"per_group[{kind!r}] is {count!r}, not a non-negative int")
    counts.update(per_group or {})
    rng = np.random.default_rng(seed)
    # Kind -> (name tag, the pair for a group and a drawn channel count n), in corpus order.
    builders = {
        "random": ("random", lambda group, n: matched_random_pair(
            rng, group, n, n_layers=int(rng.integers(1, 4)),
            gens_per_layer=int(rng.integers(1, 5)))),
        "full_group": ("full", lambda group, n: matched_random_pair(
            rng, group, n, n_layers=int(rng.integers(1, 3)),
            gens_per_layer=int(rng.integers(1, 5)), full_group_layers=True)),
        "dual": ("dual", lambda group, n: dual_pair(
            rng, group, n, n_layers=int(rng.integers(1, 3)))),
        "orthogonal": ("orth", lambda group, n: orthogonal_pair(rng, group, n)),
    }
    cases = []
    for orders in SWEEP_GROUP_ORDERS:
        group = make_group(orders)
        for kind, (tag, build) in builders.items():
            for i in range(counts[kind]):
                f, h = build(group, int(rng.integers(1, 4)))
                cases.append(SweepCase(f"{group}-{tag}-{i}", kind, f, h))
    return cases
