"""The seeded corpus against a one-draw-at-a-time build: batched draws and batched
coset solves give the same cases bit for bit, with every window its own memory."""

from itertools import combinations

import numpy as np
import pytest

from gtiframes import make_group, random_signal
from gtiframes.sweeps import (
    all_small_subgroups,
    dual_pair,
    orthogonal_pair,
    random_descriptor,
    random_subgroup,
    sweep_cases,
)

from helpers import loop_dual_pair, loop_orthogonal_pair, loop_sweep_cases


def _layers(pair):
    return [layer for system in pair for layer in system.layers]


def _assert_same_pairs(got, want, name):
    """Subgroups, weights and window bytes equal layer by layer, and no two windows
    sharing memory (the engineered pairs scale each window in place)."""
    assert [s.channels for s in got] == [s.channels for s in want], name
    for layer, ref_layer in zip(_layers(got), _layers(want), strict=True):
        assert layer.subgroup.indices.tolist() == ref_layer.subgroup.indices.tolist(), name
        assert ([gen.weight for gen in layer.generators]
                == [gen.weight for gen in ref_layer.generators]), name
        for gen, ref_gen in zip(layer.generators, ref_layer.generators, strict=True):
            assert ([w.values.tobytes() for w in gen.windows]
                    == [w.values.tobytes() for w in ref_gen.windows]), name
    windows = [w.values for layer in _layers(got) for gen in layer.generators
               for w in gen.windows]
    assert not any(np.shares_memory(a, b) for a, b in combinations(windows, 2)), name


@pytest.mark.parametrize("seed", [20240801, 7, 5])
def test_corpus_matches_per_window_draws(seed):
    got, want = sweep_cases(seed=seed), loop_sweep_cases(seed)
    assert [(c.name, c.kind) for c in got] == [(c.name, c.kind) for c in want]
    for case, ref in zip(got, want):
        _assert_same_pairs((case.f_system, case.h_system), (ref.f_system, ref.h_system),
                           case.name)


@pytest.mark.parametrize("orders", [(12,), (2, 4)], ids=["Z12", "Z2xZ4"])
def test_engineered_pairs_match_per_coset_builds(orders):
    # Outside the corpus mix: channels 1-3, and dual pairs of up to three layers.  Both
    # index rules (4 // N and 3 // N) and the scaling of both sides are pinned.
    group = make_group(orders)
    for channels in (1, 2, 3):
        for seed in range(4):
            for n_layers in (1, 2, 3):
                name = f"dual N={channels} layers={n_layers} seed={seed}"
                _assert_same_pairs(
                    dual_pair(np.random.default_rng(seed), group, channels, n_layers=n_layers),
                    loop_dual_pair(np.random.default_rng(seed), group, channels, n_layers), name)
            _assert_same_pairs(
                orthogonal_pair(np.random.default_rng(seed), group, channels),
                loop_orthogonal_pair(np.random.default_rng(seed), group, channels),
                f"orthogonal N={channels} seed={seed}")


def test_unknown_per_group_kind_refused():
    with pytest.raises(ValueError, match=r"unknown per_group keys \['orthogonals'\]"):
        sweep_cases(per_group={"orthogonals": 0})
    cases = sweep_cases(per_group={"random": 0, "full_group": 0, "dual": 0, "orthogonal": 1})
    assert [c.kind for c in cases] == ["orthogonal"] * 8


@pytest.mark.parametrize("count", [-2, True, False, 1.5, "2", None, np.int64(2)],
                         ids=["-2", "True", "False", "1.5", "str", "None", "int64"])
def test_per_group_count_that_is_not_a_non_negative_int_refused(count):
    with pytest.raises(ValueError, match=r"per_group\['dual'\] is .*not a non-negative int"):
        sweep_cases(per_group={"dual": count})


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
