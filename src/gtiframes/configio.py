"""Reading and writing system configurations, signals and coefficient files.

Configurations are JSON documents.  The explicit form lists layers with
subgroup generators and per-generator weighted windows; the structured forms
(`gabor`, `wavelet`, `wavepacket`) hold base windows plus lattice data, are
read by one structured reader into a wave-packet specification and expanded
deterministically by the one wave-packet expander, so a configuration
round-trips to an identical descriptor.  Complex vectors are stored as
explicit re/im arrays to keep files diffable.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from pathlib import Path
from typing import Any

import numpy as np

from .analysis import CoefficientMap, SuperSignal
from .errors import ConfigError
from .fourier import (
    Signal,
    constant_signal,
    delta_signal,
    indicator_signal,
    random_signal,
)
from .groups import GroupSpec, Subgroup, automorphism_from_matrix, make_group, subgroup_from_generators
from .systems import (
    GtiLayer,
    SuperSystemDescriptor,
    WeightedGenerator,
    _structured_system,
)


def vector_to_json(values: np.ndarray) -> dict[str, list[float]]:
    arr = np.asarray(values, dtype=np.complex128)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def _re_im(doc: Any, where: str) -> tuple[list, list]:
    if not (isinstance(doc, dict) and isinstance(doc.get("re"), list)
            and isinstance(doc.get("im"), list)):
        raise ConfigError(f"{where}: expected an object with 're' and 'im' arrays")
    return doc["re"], doc["im"]


# JSON numbers only: a float conversion would also read "1" and true as 1.0.
_SAMPLE_TYPES = frozenset({int, float})


def vector_from_json(doc: Any, expected_len: int, where: str) -> np.ndarray:
    re, im = _re_im(doc, where)
    if len(re) != expected_len or len(im) != expected_len:
        raise ConfigError(
            f"{where}: vector length {len(re)}/{len(im)} does not match group size {expected_len}"
        )
    for name, part in (("re", re), ("im", im)):
        if not _SAMPLE_TYPES.issuperset(map(type, part)):
            i = next(i for i, x in enumerate(part) if type(x) not in _SAMPLE_TYPES)
            raise ConfigError(f"{where}: '{name}' sample {i} must be a number, got {part[i]!r}")
    try:
        re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    except OverflowError as exc:
        raise ConfigError(f"{where}: a sample is outside the float range ({exc})") from exc
    bad = np.flatnonzero(~(np.isfinite(re) & np.isfinite(im)))
    if bad.size:
        raise ConfigError(f"{where}: non-finite value at index {int(bad[0])}")
    return re + 1j * im


def window_from_value(group: GroupSpec, value: Any, where: str) -> Signal:
    """Expand a window entry: explicit re/im object or a shorthand string.

    Shorthands: "delta", "constant", "indicator:<json generator list>",
    "random:<seed>" (bare "random" is seed 0).
    """
    if isinstance(value, str):
        if value == "delta":
            return delta_signal(group)
        if value == "constant":
            return constant_signal(group)
        if value.startswith("indicator:"):
            try:
                gens = json.loads(value[len("indicator:"):])
                sub = subgroup_from_generators(group, [tuple(g) for g in gens])
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                raise ConfigError(f"{where}: bad indicator shorthand {value!r}: {exc}") from exc
            return indicator_signal(group, sub)
        if value == "random":
            return random_signal(group, 0)
        if value.startswith("random:"):
            try:
                return random_signal(group, int(value[len("random:"):]))
            except ValueError as exc:
                raise ConfigError(f"{where}: bad random shorthand {value!r}") from exc
        raise ConfigError(f"{where}: unknown window shorthand {value!r}")
    return Signal(group, vector_from_json(value, group.size, where))


def _subgroup_from_doc(group: GroupSpec, gens: Any, where: str) -> Subgroup:
    if not isinstance(gens, list):
        raise ConfigError(f"{where}: expected a list of generator tuples")
    try:
        return subgroup_from_generators(group, [tuple(g) for g in gens])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: bad subgroup generators: {exc}") from exc


def _window_tuple(group: GroupSpec, doc: Any, channels: int, where: str) -> tuple[Signal, ...]:
    """One window per channel; messages name the tuple `where` and its windows
    `where window n`."""
    if not isinstance(doc, list) or len(doc) != channels:
        raise ConfigError(f"{where}: expected {channels} channel windows")
    return tuple(
        window_from_value(group, w, f"{where} window {n}") for n, w in enumerate(doc)
    )


def _group_field(doc: dict, what: str) -> GroupSpec:
    if "group" not in doc:
        raise ConfigError(f"{what} document needs a 'group' field")
    try:
        return make_group(doc["group"])
    except ValueError as exc:
        raise ConfigError(f"{what} document: bad group field: {exc}") from exc


def _config_section(doc: Any) -> tuple[GroupSpec, int, str, Any]:
    """The group, channel count, kind and section of a configuration document;
    the kind is 'layers', 'gabor', 'wavelet' or 'wavepacket'."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    group = _group_field(doc, "configuration")
    if "channels" not in doc:
        raise ConfigError("configuration is missing the 'channels' field")
    channels = doc["channels"]
    if not isinstance(channels, int) or isinstance(channels, bool):
        raise ConfigError(f"bad channels field: expected an integer, got {channels!r}")

    structured = [k for k in ("gabor", "wavelet", "wavepacket", "layers") if k in doc]
    if len(structured) != 1:
        raise ConfigError(
            "configuration must contain exactly one of 'layers', 'gabor', "
            f"'wavelet', 'wavepacket' (found {structured or 'none'})"
        )
    kind = structured[0]
    sec = doc[kind]
    if kind != "layers" and not isinstance(sec, dict):
        raise ConfigError(f"the '{kind}' section must be an object, got {sec!r}")
    return group, channels, kind, sec


def _structured_spec(
    group: GroupSpec, channels: int, kind: str, sec: dict
) -> tuple[list[tuple[Signal, ...]], list | None, Subgroup, Subgroup | None]:
    """The windows, automorphisms, translation and modulation of a 'gabor',
    'wavelet' or 'wavepacket' section, in that order; Gabor sections have no
    automorphisms and wavelet sections no modulation (None)."""
    windows_doc = sec.get("windows")
    if not isinstance(windows_doc, list) or not windows_doc:
        raise ConfigError(f"{kind} windows: expected a nonempty list of window tuples")
    windows = [_window_tuple(group, tup, channels, f"{kind} windows entry {j}")
               for j, tup in enumerate(windows_doc)]
    autos = None
    if kind != "gabor":
        autos = _automorphisms_from_doc(group, sec.get("automorphism_matrices"),
                                        f"{kind} automorphism_matrices")
    translation = _subgroup_from_doc(group, sec.get("translation_generators"),
                                     f"{kind} translation_generators")
    modulation = None
    if kind != "wavelet":
        modulation = _subgroup_from_doc(group, sec.get("modulation_generators"),
                                        f"{kind} modulation_generators")
    return windows, autos, translation, modulation


def parse_config(doc: dict) -> SuperSystemDescriptor:
    """Turn a configuration document into a descriptor."""
    group, channels, kind, sec = _config_section(doc)
    if kind == "layers":
        return _parse_layers(group, channels, sec)
    return _structured_system(*_structured_spec(group, channels, kind, sec))


def _automorphisms_from_doc(group: GroupSpec, doc: Any, where: str):
    if not isinstance(doc, list) or not doc:
        raise ConfigError(f"{where}: expected a nonempty list of automorphism matrices")
    autos = []
    for i, mat in enumerate(doc):
        try:
            autos.append(automorphism_from_matrix(group, mat))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where} entry {i}: {exc}") from exc
    return autos


def _parse_layers(group: GroupSpec, channels: int, doc: Any) -> SuperSystemDescriptor:
    if not isinstance(doc, list) or not doc:
        raise ConfigError("'layers' must be a nonempty list")
    layers = []
    for j, layer_doc in enumerate(doc):
        if not isinstance(layer_doc, dict):
            raise ConfigError(f"layer {j}: expected an object")
        sub = _subgroup_from_doc(group, layer_doc.get("subgroup_generators"),
                                 f"layer {j} subgroup_generators")
        gens_doc = layer_doc.get("generators")
        if not isinstance(gens_doc, list) or not gens_doc:
            raise ConfigError(f"layer {j}: 'generators' must be a nonempty list")
        gens = []
        for p, gen_doc in enumerate(gens_doc):
            if not isinstance(gen_doc, dict):
                raise ConfigError(f"layer {j} generator {p}: expected an object")
            raw_weight = gen_doc.get("weight", 1.0)
            weight = math.nan
            # Real numbers only: float() would also read strings such as "1".
            if isinstance(raw_weight, numbers.Real) and not isinstance(raw_weight, bool):
                try:
                    weight = float(raw_weight)
                except OverflowError:
                    pass
            if not math.isfinite(weight):
                raise ConfigError(
                    f"layer {j} generator {p}: weight must be a finite number, got {raw_weight!r}"
                )
            if weight < 0:
                raise ConfigError(f"layer {j} generator {p}: negative weight {weight}")
            windows = _window_tuple(group, gen_doc.get("windows"), channels,
                                    f"layer {j} generator {p}")
            gens.append(WeightedGenerator(weight, windows))
        layers.append(GtiLayer(sub, gens))
    return SuperSystemDescriptor(group, channels, layers)


def descriptor_to_config(system: SuperSystemDescriptor) -> dict:
    """Serialize a descriptor to the explicit layered form."""
    return {
        "group": list(system.group.orders),
        "channels": system.channels,
        "layers": [
            {
                "subgroup_generators": [list(g) for g in layer.subgroup.generators],
                "generators": [
                    {
                        "weight": gen.weight,
                        "windows": [vector_to_json(w.values) for w in gen.windows],
                    }
                    for gen in layer.generators
                ],
            }
            for layer in system.layers
        ],
    }


def _config_doc(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def load_config(path: str | Path) -> tuple[SuperSystemDescriptor, dict]:
    doc = _config_doc(path)
    return parse_config(doc), doc


def config_digest(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def super_signal_to_json(signals: SuperSignal) -> dict:
    return {
        "group": list(signals.group.orders),
        "channels": [vector_to_json(s.values) for s in signals.channels],
    }


def super_signal_from_json(doc: Any) -> SuperSignal:
    if not isinstance(doc, dict) or not isinstance(doc.get("channels"), list):
        raise ConfigError("signals document needs a 'channels' list")
    group = _group_field(doc, "signals")
    channels = [
        Signal(group, vector_from_json(ch, group.size, f"signal channel {n}"))
        for n, ch in enumerate(doc["channels"])
    ]
    return SuperSignal(tuple(channels))


def coefficients_to_json(coeffs: CoefficientMap) -> dict:
    return {
        "group": list(coeffs.group.orders),
        "channels": coeffs.channels,
        "layers": [
            {
                "entries": [vector_to_json(row) for row in rows],
            }
            for rows in coeffs.entries
        ],
    }


def coefficients_from_json(doc: Any) -> CoefficientMap:
    """Decode a coefficients document; the measure data ('covolume' and
    'weights') of files written by older versions is ignored."""
    if not isinstance(doc, dict) or not isinstance(doc.get("layers"), list):
        raise ConfigError("coefficients document needs a 'layers' list")
    group = _group_field(doc, "coefficients")
    channels = doc.get("channels", 1)
    if not isinstance(channels, int) or isinstance(channels, bool):
        raise ConfigError(f"coefficients document: bad channels field {channels!r}")
    entries = []
    for j, layer_doc in enumerate(doc["layers"]):
        if not isinstance(layer_doc, dict) or "entries" not in layer_doc:
            raise ConfigError(f"coefficients layer {j}: expected an object with key 'entries'")
        rows = layer_doc["entries"]
        if not isinstance(rows, list) or not rows:
            raise ConfigError(f"coefficients layer {j} has no entries")
        width = len(_re_im(rows[0], f"coefficients layer {j} row 0")[0])
        entries.append(np.stack(
            [vector_from_json(row, width, f"coefficients layer {j} row {p}")
             for p, row in enumerate(rows)]
        ))
    return CoefficientMap(group, channels, entries)
