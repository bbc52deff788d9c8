"""Shared builders and independent brute-force oracles for the test suite.

Oracles here deliberately avoid the library's vectorized paths: closures by
explicit enumeration, characters from cmath, pairings by python loops.
"""

from __future__ import annotations

import cmath

import numpy as np

from gtiframes import (
    GroupSpec,
    Signal,
    SuperSignal,
    SuperSystemDescriptor,
    delta_signal,
    full_subgroup,
)
from gtiframes.systems import GtiLayer, Verdict, WeightedGenerator, Witness, translate


def brute_closure(group: GroupSpec, gens) -> set:
    """Additive closure by repeated pairwise sums until a fixed point."""
    current = {group.zero} | {group.reduce(g) for g in gens}
    while True:
        new = set(current)
        for a in current:
            for b in current:
                new.add(group.add(a, b))
        if new == current:
            return current
        current = new


def brute_character(group: GroupSpec, xi, x) -> complex:
    """Character from cmath, one axis at a time."""
    out = 1.0 + 0.0j
    for e, v, n in zip(group.reduce(xi), group.reduce(x), group.orders):
        out *= cmath.exp(2j * cmath.pi * e * v / n)
    return out


def brute_annihilator(group: GroupSpec, subgroup_elements) -> set:
    """All xi whose character is 1 on every subgroup element, by |chi - 1| test."""
    out = set()
    for xi in group.elements():
        if all(abs(brute_character(group, xi, g) - 1) < 1e-9 for g in subgroup_elements):
            out.add(xi)
    return out


def delta_system(group: GroupSpec, channels: int = 1, scale: complex = 1.0) -> SuperSystemDescriptor:
    """Full-group layer with a single scaled delta generator per channel slot.

    For channels == 1 this reproduces every signal exactly; the frame
    operator is |scale|^2 times the identity.
    """
    windows = tuple(
        Signal(group, scale * delta_signal(group).values) for _ in range(channels)
    )
    layer = GtiLayer(full_subgroup(group), [WeightedGenerator(1.0, windows)])
    return SuperSystemDescriptor(group, channels, [layer])


def channel_split_parseval(group: GroupSpec, scale: complex = 1.0) -> SuperSystemDescriptor:
    """Two channels, two delta generators living on disjoint channels.

    Generator p hits channel p only, so the pair with itself is an exact
    super dual (Parseval) system when scale == 1.
    """
    def zero():
        return Signal(group, np.zeros(group.size))

    def delta():
        return Signal(group, scale * delta_signal(group).values)

    layer = GtiLayer(
        full_subgroup(group),
        [
            WeightedGenerator(1.0, (delta(), zero())),
            WeightedGenerator(1.0, (zero(), delta())),
        ],
    )
    return SuperSystemDescriptor(group, 2, [layer])


def system_members(system: SuperSystemDescriptor) -> list[np.ndarray]:
    """Every translated member as an (N, |G|) matrix, for set comparisons."""
    members = []
    for layer in system.layers:
        for gamma in layer.subgroup.elements():
            for gen in layer.generators:
                members.append(np.stack([translate(gamma, w).values for w in gen.windows]))
    return members


def as_member_set(members: list[np.ndarray], decimals: int = 9) -> set:
    """Multiset-as-set of members rounded to fixed decimals."""
    out = set()
    for m in members:
        rounded = np.round(m, decimals)
        out.add(tuple(map(tuple, np.stack([rounded.real, rounded.imag], axis=-1).reshape(rounded.shape[0], -1))))
    return out


def loop_analysis_entry(system: SuperSystemDescriptor, f: SuperSignal, j: int, p: int, gamma) -> complex:
    """Independent per-entry analysis pairing with explicit loops."""
    layer = system.layers[j]
    gen = layer.generators[p]
    group = system.group
    total = 0.0 + 0.0j
    for n in range(system.channels):
        w = gen.windows[n]
        for x in group.elements():
            shifted = group.sub(x, gamma)
            total += f.channels[n][x] * np.conj(w[shifted])
    return total


def loop_fiber_verdict(table, tol: float, top_k: int, dual: bool) -> Verdict:
    """Reference verdict from a fiber table by explicit loops: the worst
    frequency of |fiber - target| per offset, then per channel pair; duality
    verdicts get one sub-verdict per channel pair from a filtered list."""
    group = table.group
    n = table.channels
    witnesses = []
    for off_idx in sorted(table.data):
        for n1 in range(n):
            for n2 in range(n):
                target = 1.0 if dual and off_idx == 0 and n1 == n2 else 0.0
                resid = np.abs(table.data[off_idx][n1, n2] - target)
                xi = int(np.argmax(resid))
                witnesses.append(Witness((n1, n2), group.element_at(off_idx),
                                         group.element_at(xi), float(resid[xi])))
    verdict = Verdict.from_witnesses(witnesses, tol, top_k=top_k)
    if dual:
        verdict.blocks = {
            (n1, n2): Verdict.from_witnesses(
                [w for w in witnesses if w.channels == (n1, n2)], tol, top_k=top_k
            )
            for n1 in range(n)
            for n2 in range(n)
        }
    return verdict


def random_super(rng: np.random.Generator, group: GroupSpec, channels: int) -> SuperSignal:
    mats = rng.standard_normal((channels, group.size)) + 1j * rng.standard_normal(
        (channels, group.size)
    )
    return SuperSignal.from_stacked(group, mats)


def all_groups_upto(limit: int) -> list[GroupSpec]:
    """Representative product groups with size at most `limit`."""
    from gtiframes import make_group

    candidates = []
    for orders in [
        (2,), (3,), (4,), (5,), (6,), (8,), (12,), (16,), (24,), (64,),
        (2, 2), (2, 4), (3, 3), (4, 4), (2, 6), (6, 4),
        (2, 2, 2), (2, 2, 3), (2, 4, 8),
    ]:
        g = make_group(orders)
        if g.size <= limit:
            candidates.append(g)
    return candidates
