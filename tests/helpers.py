"""Shared builders and independent brute-force oracles for the test suite.

Oracles here deliberately avoid the library's vectorized paths: closures by
explicit enumeration, characters from cmath, pairings by python loops.
"""

from __future__ import annotations

import cmath
from itertools import combinations

import numpy as np

from gtiframes import (
    GroupSpec,
    Signal,
    SuperSignal,
    SuperSystemDescriptor,
    delta_signal,
    full_subgroup,
    inner,
    make_group,
    random_signal,
)
from gtiframes.sweeps import SWEEP_GROUP_ORDERS, SweepCase, random_subgroup
from gtiframes.systems import GtiLayer, Verdict, WeightedGenerator, Witness, translate


def brute_closure(group: GroupSpec, gens) -> set:
    """Additive closure by repeated pairwise sums until a fixed point.

    Each round adds the sums that involve an element new in the last round.
    """
    current = {group.zero} | {group.reduce(g) for g in gens}
    fresh = current
    while fresh:
        fresh = {group.add(a, b) for a in fresh for b in current} - current
        current = current | fresh
    return current


def loop_small_subgroups(group: GroupSpec) -> list:
    """(sorted indices, generators) of every distinct subgroup generated by at
    most two elements, in the order of its first generating set among (), the
    single elements and the element pairs, by element order; the whole group
    last if no such set generates it."""
    elements = list(group.elements())
    gen_sets = [()] + [(x,) for x in elements] + list(combinations(elements, 2))
    # Closures are shared between generating sets with the same cyclic parts.
    cyclic = {x: frozenset(brute_closure(group, [x])) for x in elements}
    joins: dict = {}
    seen: dict = {}
    for gens in gen_sets:
        parts = frozenset(cyclic[x] for x in gens)
        if parts not in joins:
            joins[parts] = frozenset(brute_closure(group, set().union(*parts)))
        seen.setdefault(joins[parts], gens)
    whole = frozenset(elements)
    if whole not in seen:
        seen[whole] = loop_greedy_generators(group, range(group.size))
    return [(sorted(group.index_of(x) for x in sub), gens) for sub, gens in seen.items()]


def loop_greedy_generators(group: GroupSpec, indices) -> tuple:
    """Generators of the subgroup at `indices`: repeatedly the first index not
    yet in the closure of the generators picked so far."""
    target = set(int(i) for i in indices)
    gens: list = []
    covered = {0}
    for idx in sorted(target):
        if covered == target:
            break
        if idx not in covered:
            gens.append(group.element_at(idx))
            covered = {group.index_of(x) for x in brute_closure(group, gens)}
    return tuple(gens)


def loop_cosets(group: GroupSpec, sub) -> list:
    """Cosets x + H as lists of indices: the smallest index not yet covered
    starts the next coset, whose entries follow the elements of H."""
    covered: set = set()
    rows = []
    for x in group.elements():
        if group.index_of(x) not in covered:
            rows.append([group.index_of(group.add(x, h)) for h in sub.elements()])
            covered.update(rows[-1])
    return rows


def brute_character(group: GroupSpec, xi, x) -> complex:
    """Character from cmath, one axis at a time."""
    out = 1.0 + 0.0j
    for e, v, n in zip(group.reduce(xi), group.reduce(x), group.orders):
        out *= cmath.exp(2j * cmath.pi * e * v / n)
    return out


def loop_flat_index(group: GroupSpec, residues) -> int:
    """Lexicographic index of a residue tuple, reduced with Python integers."""
    idx = 0
    for r, n in zip(residues, group.orders):
        idx = idx * n + int(r) % n
    return idx


def loop_character_column(group: GroupSpec, chi) -> np.ndarray:
    """Character of chi at every element: integer phases by Python loops, then
    exp(2*pi*i*p/|G|) elementwise, the formula a modulated window is held to."""
    size = group.size
    phases = [
        sum(c * v * (size // n) for c, v, n in zip(chi, x, group.orders)) % size
        for x in group.elements()
    ]
    return np.exp(2j * np.pi * np.array(phases, dtype=np.int64) / size)


def loop_expansion(windows, automorphisms, modulation) -> list:
    """Per layer, the (P, N, |G|) generator windows D_alpha M_chi psi_j over
    (j, chi), built one element at a time; None skips the dilation or the
    modulation."""
    group = windows[0][0].group
    chars = [None] if modulation is None else [
        loop_character_column(group, chi) for chi in modulation.elements()
    ]
    layers = []
    for alpha in automorphisms or [None]:
        rows = []
        for tup in windows:
            for col in chars:
                gen = [w.values if col is None else col * w.values for w in tup]
                rows.append([v if alpha is None else v[alpha.perm] for v in gen])
        layers.append(np.array(rows))
    return layers


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


def loop_mixed_dual_gramian(
    f_system: SuperSystemDescriptor, h_system: SuperSystemDescriptor
) -> np.ndarray:
    """Mixed dual Gramian by explicit loops over layers, generators and
    translates: sum of V_j * w_p * outer(T_gamma g, conj(T_gamma h))."""
    size = f_system.channels * f_system.group.size
    out = np.zeros((size, size), dtype=np.complex128)
    for lf, lh in zip(f_system.layers, h_system.layers):
        for gf, gh in zip(lf.generators, lh.generators):
            scale = lf.subgroup.covolume * gf.weight
            if scale == 0.0:
                continue
            for gamma in lf.subgroup.elements():
                tg = np.concatenate([translate(gamma, w).values for w in gf.windows])
                th = np.concatenate([translate(gamma, w).values for w in gh.windows])
                out += scale * np.outer(tg, th.conj())
    return out


def loop_commutation_defect(system: SuperSystemDescriptor, matrix: np.ndarray) -> float:
    """max over x of ||Theta T_x - T_x Theta||_F, with T_x the explicit permutation
    matrix of (T_x f)(y) = f(y - x) on every channel of the system."""
    group = system.group
    worst = 0.0
    for x in group.elements():
        shift = np.zeros((group.size, group.size))
        for y in group.elements():
            shift[group.index_of(y), group.index_of(group.sub(y, x))] = 1.0
        t = np.kron(np.eye(system.channels), shift)
        worst = max(worst, float(np.linalg.norm(matrix @ t - t @ matrix)))
    return worst


def loop_translate_quadratic_form(f: Signal, matrix: np.ndarray) -> np.ndarray:
    """x -> <Theta T_x f, T_x f> by a python loop over the group points, with T_x from
    `systems.translate` and the pairing from `fourier.inner`."""
    values = []
    for x in f.group.elements():
        shifted = translate(x, f)
        values.append(inner(Signal(f.group, matrix @ shifted.values), shifted))
    return np.array(values)


def loop_fiber_verdict(table, tol: float, top_k: int, dual: bool) -> Verdict:
    """Reference verdict from a fiber table by explicit loops: the worst
    frequency of |fiber - target| per offset, then per channel pair; duality
    verdicts get one sub-verdict per channel pair from a filtered list."""
    group = table.group
    n = table.channels
    witnesses = []
    for off_idx, block in zip(table.offset_indices.tolist(), table.stack):
        for n1 in range(n):
            for n2 in range(n):
                target = 1.0 if dual and off_idx == 0 and n1 == n2 else 0.0
                resid = np.abs(block[n1, n2] - target)
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


def definition_fiber_table(f_system: SuperSystemDescriptor, h_system: SuperSystemDescriptor):
    """(offsets, layer mask, stack) of a pair straight from the fiber definition,

        fiber[a](n1, n2, xi) = sum over layers j with a in A_j and their generators p of
                               w_p * conj(Hhat_p,n1(xi)) * Fhat_p,n2(xi + a),

    with per-window np.fft.fftn, each annihilator A_j of the characters that are 1 on
    the layer subgroup (an exact integer congruence per element) and xi + a by residue
    arithmetic; offsets are the sorted union of the A_j, the mask says which A_j holds
    each offset."""
    group, n = f_system.group, f_system.channels
    orders, size = np.array(group.orders), group.size
    res = np.stack(np.unravel_index(np.arange(size), group.orders), axis=1)

    def hat(w) -> np.ndarray:
        return np.fft.fftn(w.values.reshape(group.orders)).ravel()

    # <xi, x> = exp(2 pi i sum_k xi_k x_k / n_k) is 1 iff sum_k xi_k x_k (|G| / n_k) = 0 mod |G|.
    anns = []
    for layer in f_system.layers:
        members = res[layer.subgroup.indices]
        phases = (res * (size // orders)) @ members.T % size
        anns.append(np.flatnonzero((phases == 0).all(axis=1)))
    offsets = np.unique(np.concatenate(anns))
    holds = [set(ann.tolist()) for ann in anns]
    mask = np.array([[a in held for held in holds] for a in offsets.tolist()])
    stack = np.zeros((offsets.size, n, n, size), dtype=np.complex128)
    for lf, lh, ann in zip(f_system.layers, h_system.layers, anns):
        for gf, gh in zip(lf.generators, lh.generators):
            f_hat = np.array([hat(w) for w in gf.windows])
            h_hat = np.array([hat(w) for w in gh.windows])
            for a in ann.tolist():
                shifted = np.ravel_multi_index(((res + res[a]) % orders).T, group.orders)
                k = int(np.searchsorted(offsets, a))
                stack[k] += gf.weight * h_hat.conj()[:, None, :] * f_hat[None, :, shifted]
    return offsets, mask, stack


def _loop_pair_layer(rng, group, sub, channels, orthogonal):
    """One engineered layer pair: one Gram solve per annihilator coset, one inverse
    transform per window array."""
    ann = sub.annihilator
    width = channels * ann.order
    n_gens = width + int(orthogonal)
    weights = rng.uniform(0.5, 2.0, size=n_gens)
    g_hat = np.zeros((n_gens, channels, group.size), dtype=np.complex128)
    h_hat = np.zeros_like(g_hat)
    for coset in ann.cosets:
        gm = (rng.standard_normal((n_gens, width))
              + 1j * rng.standard_normal((n_gens, width))) / np.sqrt(2.0)
        gram = gm.conj().T @ gm
        if orthogonal:
            proj = gm @ np.linalg.solve(gram, gm.conj().T)
            rand = (rng.standard_normal((n_gens, width))
                    + 1j * rng.standard_normal((n_gens, width)))
            hm = (np.eye(n_gens) - proj) @ rand / weights[:, None]
        else:
            hm = gm @ np.linalg.inv(gram) / weights[:, None]
        g_hat[:, :, coset] = gm.reshape(n_gens, channels, -1)
        h_hat[:, :, coset] = hm.reshape(n_gens, channels, -1)

    def layer(hats):
        values = np.fft.ifftn(hats.reshape(n_gens, channels, *group.orders),
                              axes=tuple(range(2, 2 + group.ndim)))
        values = values.reshape(n_gens, channels, group.size)
        return GtiLayer(sub, [WeightedGenerator(float(w), tuple(Signal(group, v) for v in row))
                              for w, row in zip(weights, values)])
    return layer(g_hat), layer(h_hat)


def loop_dual_pair(rng, group, channels, n_layers):
    """`sweeps.dual_pair` one layer and one coset at a time: Dirichlet masses, then per
    layer a subgroup of index at most max(1, 4 // channels) and its pair, every window of
    both sides scaled by the square root of the layer's mass."""
    masses = rng.dirichlet(np.ones(n_layers)) if n_layers > 1 else np.array([1.0])
    pair = ([], [])
    for mass in masses:
        sub = random_subgroup(rng, group, max_index=max(1, 4 // channels))
        for side, layer in zip(pair, _loop_pair_layer(rng, group, sub, channels, False)):
            for gen in layer.generators:
                for w in gen.windows:
                    w.values *= float(np.sqrt(mass))
            side.append(layer)
    return tuple(SuperSystemDescriptor(group, channels, side) for side in pair)


def loop_orthogonal_pair(rng, group, channels):
    """`sweeps.orthogonal_pair` one coset at a time, on a subgroup of index at most
    max(1, 3 // channels)."""
    sub = random_subgroup(rng, group, max_index=max(1, 3 // channels))
    return tuple(SuperSystemDescriptor(group, channels, [layer])
                 for layer in _loop_pair_layer(rng, group, sub, channels, True))


def loop_sweep_cases(seed: int) -> list[SweepCase]:
    """The standard corpus built one draw at a time: `random_signal` per window, one
    Gram solve per annihilator coset, one inverse transform per window array and
    `full_subgroup` per full-group layer, drawing from the seed's stream in the
    order the corpus's documented construction reads it."""
    rng = np.random.default_rng(seed)

    def windows(group, channels):
        return tuple(random_signal(group, rng) for _ in range(channels))

    def matched(group, channels, n_layers, gens, full=False):
        if full:
            subs = [full_subgroup(group) for _ in range(n_layers)]
        else:
            subs = [random_subgroup(rng, group) for _ in range(n_layers)]
        weights = [[float(rng.uniform(0.5, 2.0)) for _ in range(gens)] for _ in range(n_layers)]

        def build():
            return SuperSystemDescriptor(group, channels, [
                GtiLayer(sub, [WeightedGenerator(w, windows(group, channels)) for w in ws])
                for sub, ws in zip(subs, weights)])
        return build(), build()

    cases = []
    for orders in SWEEP_GROUP_ORDERS:
        group = make_group(orders)
        for i in range(13):
            channels = int(rng.integers(1, 4))
            f, h = matched(group, channels, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            cases.append(SweepCase(f"{group}-random-{i}", "random", f, h))
        for i in range(4):
            channels = int(rng.integers(1, 4))
            f, h = matched(group, channels, int(rng.integers(1, 3)), int(rng.integers(1, 5)),
                           full=True)
            cases.append(SweepCase(f"{group}-full-{i}", "full_group", f, h))
        for i in range(6):
            channels = int(rng.integers(1, 4))
            f, h = loop_dual_pair(rng, group, channels, int(rng.integers(1, 3)))
            cases.append(SweepCase(f"{group}-dual-{i}", "dual", f, h))
        for i in range(4):
            channels = int(rng.integers(1, 4))
            f, h = loop_orthogonal_pair(rng, group, channels)
            cases.append(SweepCase(f"{group}-orth-{i}", "orthogonal", f, h))
    return cases
