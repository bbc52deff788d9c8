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
    quadratic_form_series,
)
from gtiframes.sweeps import (
    _fiberwise_pair_layer,
    dual_pair,
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
    assert len(names) == len(set(names)) == 71
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


def test_removed_parameters_stay_removed():
    removed = {
        commutation_defect: ["cap"],
        quadratic_form_series: ["cap"],
        dual_pair: ["max_annihilator", "random_weights"],
        orthogonal_pair: ["random_weights"],
        _fiberwise_pair_layer: ["random_weights"],
        random_descriptor: ["random_weights"],
        random_automorphism: ["max_tries"],
    }
    for fn, params in removed.items():
        signature = inspect.signature(fn).parameters
        for param in params:
            assert param not in signature, (fn.__name__, param)
