"""Library refusals: each constructor and check names what it refuses."""

import re

import numpy as np
import pytest

from gtiframes import (
    CoefficientMap,
    FrameBounds,
    StructureMismatchError,
    SuperSignal,
    analysis_coeffs,
    annihilator,
    delta_signal,
    full_subgroup,
    gabor_canonical_dual,
    identity_automorphism,
    make_group,
    multiplier_symbol,
    quadratic_form_series,
    require_matching_structure,
    subgroup_from_generators,
    synthesis,
)
from gtiframes.characterization import _structured_fibers
from gtiframes.systems import (
    GtiLayer,
    SuperSystemDescriptor,
    WeightedGenerator,
    _validate_structure,
    dilate,
)

from helpers import channel_split_parseval, delta_system

Z4, Z8, Z2Z3 = make_group([4]), make_group([8]), make_group([2, 3])
d4, d8 = delta_signal(Z4), delta_signal(Z8)
MISMATCH = StructureMismatchError


def matched(other):
    return require_matching_structure(delta_system(Z4), other)


def two_layers(group):
    return SuperSystemDescriptor(group, 1, delta_system(group).layers * 2)


def two_generators(group):
    layer = delta_system(group).layers[0]
    return SuperSystemDescriptor(group, 1, [GtiLayer(layer.subgroup, layer.generators * 2)])


def split():
    return channel_split_parseval(Z4)


def structured(f_windows, h_windows):
    lattice = full_subgroup(Z4)
    return _structured_fibers(f_windows, h_windows, None, lattice, lattice)


REFUSALS = {
    "SuperSystemDescriptor": [
        (ValueError, lambda: SuperSystemDescriptor(Z4, 1, []),
         "descriptor needs at least one layer"),
        (ValueError, lambda: SuperSystemDescriptor(Z4, 0, delta_system(Z4).layers),
         "channel count must be at least 1"),
        (ValueError, lambda: SuperSystemDescriptor(Z4, 1, delta_system(Z8).layers),
         "layer subgroup does not live in the descriptor group"),
        (ValueError, lambda: SuperSystemDescriptor(Z4, 1, delta_system(Z4, channels=2).layers),
         "generator has 2 windows, expected 1"),
    ],
    "GtiLayer": [
        (ValueError, lambda: GtiLayer(full_subgroup(Z4), [WeightedGenerator(1.0, (d8,))]),
         "window group does not match layer subgroup parent"),
    ],
    "WeightedGenerator": [
        (ValueError, lambda: WeightedGenerator(1.0, ()),
         "generator needs at least one channel window"),
    ],
    "require_matching_structure": [
        (MISMATCH, lambda: matched(delta_system(Z8)), "group mismatch: Z4 vs Z8"),
        (MISMATCH, lambda: matched(delta_system(Z4, channels=2)), "channel mismatch: 1 vs 2"),
        (MISMATCH, lambda: matched(two_layers(Z4)), "layer count mismatch: 1 vs 2"),
        (MISMATCH, lambda: matched(two_generators(Z4)),
         "layer 0: generator count mismatch (1 vs 2)"),
    ],
    "_validate_structure": [
        (ValueError, lambda: _validate_structure([], None, full_subgroup(Z4), None),
         "need at least one window tuple"),
        (ValueError, lambda: _validate_structure([()], None, full_subgroup(Z4), None),
         "window tuples must have at least one channel"),
        (ValueError, lambda: _validate_structure([(d8,)], None, full_subgroup(Z4), None),
         "window group mismatch"),
    ],
    "gabor_canonical_dual": [
        (ValueError, lambda: gabor_canonical_dual(d8, full_subgroup(Z4), full_subgroup(Z4)),
         "window group mismatch"),
        (ValueError, lambda: gabor_canonical_dual(d4, full_subgroup(Z4), full_subgroup(Z8)),
         "modulation subgroup must live in the dual of the same group"),
    ],
    "dilate": [
        (ValueError, lambda: dilate(identity_automorphism(Z8), d4),
         "automorphism group does not match signal group"),
    ],
    "SuperSignal": [
        (ValueError, lambda: SuperSignal(()), "super signal needs at least one channel"),
        (ValueError, lambda: SuperSignal((d4, d8)), "all channels must share one group"),
    ],
    "analysis_coeffs": [
        (ValueError, lambda: analysis_coeffs(delta_system(Z4), SuperSignal((d4, d4))),
         "signal has 2 channels, system expects 1"),
    ],
    "synthesis": [
        (ValueError, lambda: synthesis(delta_system(Z4), CoefficientMap(Z8, 1, [np.ones((1, 8))])),
         "coefficient group does not match system group"),
        (ValueError,
         lambda: synthesis(delta_system(Z4), CoefficientMap(Z4, 1, [np.ones((1, 4))] * 2)),
         "coefficient layer count does not match system"),
    ],
    "FrameBounds": [
        (ValueError, lambda: FrameBounds(2.0, 1.0), "lower bound exceeds upper bound"),
    ],
    "multiplier_symbol": [
        (ValueError, lambda: multiplier_symbol(split(), split(), 2), "channel 2 out of range"),
    ],
    "quadratic_form_series": [
        (ValueError, lambda: quadratic_form_series(split(), split(), d4),
         "the series diagnostic is defined for single-channel systems"),
        (ValueError, lambda: quadratic_form_series(delta_system(Z4), delta_system(Z4), d8),
         "signal group does not match system group"),
    ],
    "_structured_fibers": [
        (ValueError, lambda: structured([(d4,)], [(d4,), (d4,)]),
         "window lists have different lengths (1 vs 2)"),
        (ValueError, lambda: structured([(d4,)], [(d4, d4)]),
         "all window tuples must have the same channel count"),
    ],
    "GroupSpec.reduce": [
        (ValueError, lambda: Z2Z3.reduce((1,)), "expected 2 residues, got 1"),
        (ValueError, lambda: Z2Z3.reduce((1, 1.5)), "residue must be an integer, got 1.5"),
    ],
    "GroupSpec.element_at": [
        (ValueError, lambda: Z2Z3.element_at(-1), "index -1 out of range for group of size 6"),
        (ValueError, lambda: Z2Z3.element_at(6), "index 6 out of range for group of size 6"),
    ],
    "annihilator": [
        (ValueError, lambda: annihilator(Z4, subgroup_from_generators(Z8, [(2,)])),
         "subgroup does not belong to this group"),
    ],
}


@pytest.mark.parametrize("error, call, message", [
    pytest.param(*case, id=f"{where}: {case[-1]}")
    for where, cases in REFUSALS.items() for case in cases
])
def test_refusal_names_its_cause(error, call, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
