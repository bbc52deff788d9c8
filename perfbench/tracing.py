"""In-memory span tracer for the gtiframes layers.

`Tracer.install` replaces every public function of a layer module with a
wrapper, in every gtiframes namespace that holds it: the defining module,
the modules that import it (e.g. `gtiframes.characterization.dft`) and the
package itself.  Each wrapped call records a span (phase, request, parent,
layer, name, start, end) and the counts its arguments or result imply; a
codec call also records the peak bytes it allocates, read from tracemalloc
(numpy reports its array buffers there).
Nothing inside the package changes; `uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("groups", "fourier", "systems", "characterization", "analysis", "configio", "sweeps")

# The analysis module holds two unrelated jobs: the dense oracle (plus the
# frame bounds behind every default tolerance) and the translate-table codec.
CODEC_FUNCTIONS = frozenset({"analysis_coeffs", "synthesis", "multiplex_encode", "multiplex_decode"})
TRANSFORMS = frozenset({"dft", "idft", "dft_naive", "idft_naive"})
STRUCTURED_CHECKS = frozenset(
    {"check_gabor_duality", "check_wavelet_duality", "check_wavepacket_duality"}
)

# Span fields, stored as lists so the end time can be filled in place.
PHASE, REQUEST, PARENT, LAYER, NAME, START, END = range(7)

# Per-layer metrics in reporting order: name -> unit.
PER_LAYER_UNITS = {
    "fourier.self_s": "s",
    "fourier.calls": "count",
    "fourier.points": "count",
    "groups.self_s": "s",
    "groups.calls": "count",
    "groups.elements": "count",
    "systems.self_s": "s",
    "systems.generators_built": "count",
    "characterization.self_s": "s",
    "characterization.verdicts": "count",
    "characterization.offsets_visited": "count",
    "analysis.dense_self_s": "s",
    "analysis.dense_rows": "count",
    "analysis.cap_fallbacks": "count",
    "analysis.codec_self_s": "s",
    "analysis.encode_self_s": "s",
    "analysis.decode_self_s": "s",
    "analysis.coefficients": "count",
    "analysis.table_bytes_computed": "bytes",
    "configio.self_s": "s",
    "configio.json_bytes": "bytes",
    "sweeps.self_s": "s",
    "bench.self_s": "s",
}

# The self time of each span layer feeds one `*_self_s` metric.
_SELF_TIME_METRIC = {
    "fourier": "fourier.self_s",
    "groups": "groups.self_s",
    "systems": "systems.self_s",
    "characterization": "characterization.self_s",
    "analysis.dense": "analysis.dense_self_s",
    "analysis.codec": "analysis.codec_self_s",
    "configio": "configio.self_s",
    "sweeps": "sweeps.self_s",
    "bench": "bench.self_s",
}
_CODEC_SPLIT_METRIC = {"analysis_coeffs": "analysis.encode_self_s",
                       "synthesis": "analysis.decode_self_s"}


def _span_layer(module_name: str, function_name: str) -> str:
    if module_name != "analysis":
        return module_name
    return "analysis.codec" if function_name in CODEC_FUNCTIONS else "analysis.dense"


class Tracer:
    """Collects spans and counts while installed; one instance per run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[object, Counter] = defaultdict(Counter)
        self.phase: object = "setup"
        self.request = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        from gtiframes import FiberTable, Subgroup, SuperSystemDescriptor, Verdict

        self._types = (FiberTable, Subgroup, SuperSystemDescriptor, Verdict)
        wrappers: dict[object, object] = {}
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (
                module_name == "gtiframes" or module_name.startswith("gtiframes.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home, _, _ = value.__module__.partition(".")
                layer = value.__module__.rpartition(".")[2]
                if home != "gtiframes" or layer not in LAYERS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(layer, value)
                setattr(module, attr, wrappers[value])
                self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, module_layer: str, fn):
        name = fn.__name__
        layer = _span_layer(module_layer, name)
        signature = inspect.signature(fn) if name in STRUCTURED_CHECKS else None
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            nested = parent >= 0 and spans[parent][LAYER] == layer
            # Allocations are traced only inside outermost codec calls, and
            # tracemalloc is started and stopped outside the span's clock.
            traced = layer == "analysis.codec" and not tracemalloc.is_tracing()
            if traced:
                tracemalloc.start()
            span = [self.phase, self.request, parent, layer, name, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if traced:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if traced:
                self.counts[self.phase]["analysis.table_bytes_computed"] += peak
            self._count(layer, name, args, kwargs, result, nested, signature)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own code ("bench" layer), e.g. one op."""
        parent = self._stack[-1] if self._stack else -1
        span = [self.phase, self.request, parent, "bench", name, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def add(self, metric: str, amount: float) -> None:
        self.counts[self.phase][metric] += amount

    # -- counting ---------------------------------------------------------

    def _count(self, layer, name, args, kwargs, result, nested, signature) -> None:
        FiberTable, Subgroup, SuperSystemDescriptor, Verdict = self._types
        c = self.counts[self.phase]
        if layer == "fourier":
            c["fourier.calls"] += 1
            if name in TRANSFORMS:
                c["fourier.points"] += (args[0] if args else next(iter(kwargs.values()))).group.size
        elif layer == "groups":
            c["groups.calls"] += 1
            if isinstance(result, Subgroup):
                c["groups.elements"] += result.order
        elif layer == "systems":
            if isinstance(result, SuperSystemDescriptor):
                c["systems.generators_built"] += result.generator_count()
        elif layer == "characterization":
            if isinstance(result, Verdict) and not nested:
                c["characterization.verdicts"] += 1
            if isinstance(result, FiberTable):
                c["characterization.offsets_visited"] += sum(
                    len(layers) for layers in result.contributors.values()
                )
            if signature is not None:
                translation = signature.bind(*args, **kwargs).arguments["translation"]
                c["characterization.offsets_visited"] += translation.annihilator.order
        elif layer == "analysis.dense":
            if name == "mixed_dual_gramian":
                c["analysis.dense_rows"] += result.shape[0]
            elif name == "default_tolerance" and result[1] is None:
                c["analysis.cap_fallbacks"] += 1
        elif layer == "analysis.codec":
            if name in ("analysis_coeffs", "synthesis"):
                coeffs = result if name == "analysis_coeffs" else (
                    args[1] if len(args) > 1 else kwargs["coeffs"]
                )
                c["analysis.coefficients"] += coeffs.total_size()

    # -- reports ------------------------------------------------------------

    def self_times(self) -> dict[object, Counter]:
        """Self time per (phase, span layer, function name): the span's
        duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict[object, Counter] = defaultdict(Counter)
        for span, children in zip(self.spans, child_time):
            out[span[PHASE]][(span[LAYER], span[NAME])] += span[END] - span[START] - children
        return out

    def layer_metrics(self, phases) -> dict[str, float]:
        """Every per-layer metric summed over the given phases."""
        phases = list(phases)
        selfs = self.self_times()
        values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        for phase in phases:
            for (layer, name), seconds in selfs.get(phase, {}).items():
                values[_SELF_TIME_METRIC[layer]] += seconds
                if name in _CODEC_SPLIT_METRIC:
                    values[_CODEC_SPLIT_METRIC[name]] += seconds
            for metric, amount in self.counts.get(phase, {}).items():
                values[metric] += amount
        return values

    def write(self, path: Path, header: dict) -> None:
        """Write the header and then one span per line, as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
