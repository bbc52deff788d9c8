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
from gtiframes.configio import load_config, parse_config, super_signal_from_json, window_from_value
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
        # A bare "random" window is seed 0; "random:N" names any other seed in the config.
        parse_config: ["seed"],
        load_config: ["seed"],
        window_from_value: ["seed"],
    }
    for fn, params in removed.items():
        signature = inspect.signature(fn).parameters
        for param in params:
            assert param not in signature, (fn.__name__, param)


def _names_read(tree: ast.Module) -> set[str]:
    """Every name a module reads: plain names, names inside string annotations, and the
    names its `__all__` exports."""
    nodes = list(ast.walk(tree))
    annotations = [node.annotation for node in nodes if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in nodes
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    texts = [node.value for annotation in annotations if annotation
             for node in ast.walk(annotation)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    parsed = [ast.parse(text, mode="eval") for text in texts]
    read = {node.id for root in [tree, *parsed] for node in ast.walk(root)
            if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    return read


def test_no_module_imports_a_name_it_never_uses():
    for path in sorted(Path(gtiframes.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        unused = imported - _names_read(tree)
        assert not unused, (path.name, sorted(unused))


def test_dense_oracle_lives_in_analysis_alone():
    # The fiber module neither imports nor reads the dense Gramian, its bounds or the
    # translate tables they are built from; the dense diagnostics are defined in analysis.
    tree = ast.parse(Path(gtiframes.characterization.__file__).read_text())
    read = _names_read(tree) | {node.attr for node in ast.walk(tree)
                                if isinstance(node, ast.Attribute)}
    read |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    dense = {"mixed_dual_gramian", "frame_bounds", "gramian_identity_residual",
             "translate_table"}
    assert not read & dense, sorted(read & dense)
    assert commutation_defect.__module__ == "gtiframes.analysis"
    assert quadratic_form_series.__module__ == "gtiframes.characterization"
