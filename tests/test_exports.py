"""The package's public surface: the export list and what it leaves out."""

import ast
import inspect
import types
from pathlib import Path

import gtiframes
from gtiframes import (
    Automorphism,
    CoefficientMap,
    FiberTable,
    GroupSpec,
    Subgroup,
    SuperSignal,
    commutation_defect,
    gabor_canonical_dual,
    multiplex_decode,
    multiplex_encode,
    quadratic_form_series,
)
from gtiframes.configio import super_signal_from_json
from gtiframes.sweeps import (
    _fiberwise_pair_layer,
    dual_pair,
    matched_random_pair,
    orthogonal_pair,
    random_automorphism,
    random_descriptor,
)


def test_export_list_is_literal_and_holds_no_module():
    tree = ast.parse(Path(gtiframes.__file__).read_text())
    (value,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    ]
    names = ast.literal_eval(value)
    assert names == gtiframes.__all__
    assert len(names) == len(set(names)) == 65
    for name in names:
        assert not isinstance(getattr(gtiframes, name), types.ModuleType), name


def test_every_public_package_name_is_exported():
    public = {
        name for name, value in vars(gtiframes).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(gtiframes.__all__)


def test_removed_members_stay_removed():
    removed = {
        Automorphism: ["apply", "apply_inverse", "adjoint_apply", "adjoint_image", "is_identity"],
        FiberTable: ["fiber"],
        GroupSpec: ["phase_table"],
        Subgroup: ["contains"],
        CoefficientMap: ["max_abs"],
        SuperSignal: ["flattened"],
    }
    for cls, members in removed.items():
        for member in members:
            assert not hasattr(cls, member), (cls.__name__, member)
    assert "adjoint_matrix" not in Automorphism.__dataclass_fields__
    # An alias of mixed_dual_gramian(s, s); the oracle calls that directly.
    assert not hasattr(gtiframes, "frame_operator_matrix")
    assert not hasattr(gtiframes.analysis, "frame_operator_matrix")
    # Unread by the library: tests use _roll, character_column,
    # subgroup_from_generators(g, []), _difference_table and inline transforms.
    removed_functions = {
        gtiframes.fourier: ["shift_spectrum", "apply_multiplier"],
        gtiframes.groups: ["character_eval", "trivial_subgroup", "translation_index_table"],
        gtiframes.systems: ["restrict_channel"],
        gtiframes.sweeps: ["random_super_signal"],
    }
    for module, names in removed_functions.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert not hasattr(gtiframes, name), name


def test_removed_parameters_stay_removed():
    removed = {
        commutation_defect: ["cap"],
        gabor_canonical_dual: ["cap"],
        quadratic_form_series: ["cap"],
        dual_pair: ["max_annihilator", "random_weights"],
        orthogonal_pair: ["random_weights"],
        _fiberwise_pair_layer: ["random_weights", "extra_generators"],
        random_descriptor: ["random_weights"],
        random_automorphism: ["max_tries"],
        # The codec always certifies; analysis_coeffs and synthesis are the uncertified calls.
        multiplex_encode: ["force", "tol"],
        multiplex_decode: ["force", "tol"],
        # A signals document's own group is read and checked against the system.
        super_signal_from_json: ["group"],
        matched_random_pair: ["random_weights"],
    }
    for fn, params in removed.items():
        signature = inspect.signature(fn).parameters
        for param in params:
            assert param not in signature, (fn.__name__, param)
