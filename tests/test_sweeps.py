"""The seeded corpus against a one-draw-at-a-time build: batched draws and batched
coset solves give the same cases bit for bit, with every window its own memory."""

from itertools import combinations

import numpy as np
import pytest

from gtiframes import make_group, random_signal
from gtiframes.sweeps import all_small_subgroups, random_descriptor, random_subgroup, sweep_cases

from helpers import loop_sweep_cases


def _layers(case):
    return [layer for system in (case.f_system, case.h_system) for layer in system.layers]


@pytest.mark.parametrize("seed", [20240801, 7, 5])
def test_corpus_matches_per_window_draws(seed):
    got, want = sweep_cases(seed=seed), loop_sweep_cases(seed)
    assert [(c.name, c.kind) for c in got] == [(c.name, c.kind) for c in want]
    for case, ref in zip(got, want):
        for layer, ref_layer in zip(_layers(case), _layers(ref), strict=True):
            assert layer.subgroup.indices.tolist() == ref_layer.subgroup.indices.tolist()
            assert ([gen.weight for gen in layer.generators]
                    == [gen.weight for gen in ref_layer.generators]), case.name
            for gen, ref_gen in zip(layer.generators, ref_layer.generators, strict=True):
                assert ([w.values.tobytes() for w in gen.windows]
                        == [w.values.tobytes() for w in ref_gen.windows]), case.name
        # dual_pair scales each window in place, which must not reach another window.
        windows = [w.values for layer in _layers(case) for gen in layer.generators
                   for w in gen.windows]
        assert not any(np.shares_memory(a, b) for a, b in combinations(windows, 2)), case.name


@pytest.mark.parametrize("given", [False, True], ids=["drawn-subgroups", "given-subgroups"])
def test_random_descriptor_matches_per_window_draws(given):
    group = make_group((4, 6))
    subgroups = all_small_subgroups(group)[:3] if given else None
    system = random_descriptor(np.random.default_rng(11), group, 2, 3, 2, subgroups=subgroups)
    rng = np.random.default_rng(11)
    for j, layer in enumerate(system.layers):
        sub = subgroups[j] if given else random_subgroup(rng, group)
        assert layer.subgroup.indices.tolist() == sub.indices.tolist()
        for gen in layer.generators:
            assert gen.weight == 1.0
            assert ([w.values.tobytes() for w in gen.windows]
                    == [random_signal(group, rng).values.tobytes() for _ in range(2)])
