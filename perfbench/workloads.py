"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in `setup`, then
serves ops one at a time: `op(i)` runs request i through the public
gtiframes API and checks the answer, so a wrong result is a failed op, never
a timed success.  Functions are looked up on the package modules at call
time (`gf.check_super_duality`, `gf.configio.coefficients_to_json`), which is
where the tracer installs its wrappers.

Why these three:

* sweep216 -- the 216-case acceptance corpus: many tiny cases, so time goes
  to per-call overhead in `characterization` and to the dense oracle and the
  bounds-scaled tolerance in `analysis`; `fourier` does almost nothing.
* gabor_wide -- Gabor pairs on Z_1024, above the dense cap: transforms and
  system expansion dominate and every tolerance takes the cap fallback, so a
  `fourier` change shows here and an `analysis` change must not.
* codec_stream -- the multiplex codec on Z_2048 with 2 channels: the only
  workload where the translate-table analysis/synthesis and `configio` work.
  Encode and decode use that layer in opposite directions.

The Gabor and codec inputs are built with numpy alone (`np.fft.ifft` for the
coset construction), so a later change to `gtiframes.fourier` or
`gtiframes.sweeps` cannot silently change what is measured.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

import gtiframes as gf
import gtiframes.configio  # noqa: F401  (gf.configio)
import gtiframes.sweeps  # noqa: F401  (gf.sweeps)

ACCEPTANCE_SEED = 20240801

# Fingerprints of the inputs each workload builds at REFERENCE_SEED with its
# default sizes.  A mismatch means the input generator changed, and with it
# what the benchmark measures.
REFERENCE_SEED = 0
REFERENCE_FINGERPRINTS = {
    "sweep216": "5576ba855ff06bb3",
    "gabor_wide": "3e40af3e26676974",
    "codec_stream": "e5b544025d4bd73b",
}

# Floats are rounded to this grid before hashing, so last-bit noise (e.g.
# from a different FFT) leaves a fingerprint unchanged.
_FINGERPRINT_GRID = 2.0**20


def fingerprint(*parts) -> str:
    """Hash of arrays and plain values; floats are rounded to 2**-20 first."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = part
            if np.iscomplexobj(arr):
                arr = np.stack([arr.real, arr.imag])
            if arr.dtype.kind == "f":
                arr = np.rint(arr * _FINGERPRINT_GRID)
            digest.update(repr(arr.shape).encode())
            digest.update(arr.astype(np.int64).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()[:16]


def _system_parts(system) -> list:
    parts = [system.group.orders, system.channels]
    for layer in system.layers:
        parts.append(layer.subgroup.indices)
        for gen in layer.generators:
            parts.append(np.array([gen.weight]))
            parts.extend(w.values for w in gen.windows)
    return parts


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@dataclass
class Outcome:
    """What one op reports besides pass/fail: phase times and traced counts."""

    ok: bool
    phases: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)


class Sweep216:
    """One op is one corpus case, with exactly the per-case work of
    scripts/run_sweep.py: fiber verdicts, the dense oracle and their agreement."""

    name = "sweep216"

    def __init__(self, seed: int, corpora: int = 4, per_group: dict[str, int] | None = None):
        self.seed = seed
        self.corpora = corpora
        self.per_group = per_group
        self.cases: list = []
        self.acceptance_size = 0
        # Case index -> (dual, orthogonality, commutation) agreement with the
        # oracle, for the acceptance corpus.
        self.acceptance: dict[int, tuple[bool, bool, bool]] = {}

    def corpus_seeds(self) -> list[int]:
        derived = np.random.default_rng(self.seed).integers(0, 2**31, size=self.corpora - 1)
        return [ACCEPTANCE_SEED] + [int(s) for s in derived]

    def setup(self) -> None:
        corpora = [gf.sweeps.sweep_cases(seed=s, per_group=self.per_group)
                   for s in self.corpus_seeds()]
        self.acceptance_size = len(corpora[0])
        self.cases = [case for corpus in corpora for case in corpus]
        # A traced pass covers every case, so per-layer figures describe the
        # same mix of ops as the untraced run.
        self.pass_size = len(self.cases)

    def input_fingerprint(self, cases=None) -> str:
        parts = []
        for case in self.cases if cases is None else cases:
            parts += [case.name, case.kind]
            parts += _system_parts(case.f_system) + _system_parts(case.h_system)
        return fingerprint(*parts)

    def reference_fingerprint(self) -> str:
        # The acceptance corpus is the same for every workload seed.
        if self.per_group is None and self.cases:
            return self.input_fingerprint(self.cases[: self.acceptance_size])
        return self.input_fingerprint(gf.sweeps.sweep_cases(seed=ACCEPTANCE_SEED))

    def op(self, i: int) -> Outcome:
        index = i % len(self.cases)
        case = self.cases[index]
        f, h = case.f_system, case.h_system
        verdict = gf.check_super_duality(f, h)
        orth = gf.check_orthogonality(f, h, tol=verdict.tolerance)
        matrix = gf.mixed_dual_gramian(f, h)
        dual_oracle = gf.gramian_identity_residual(matrix)
        orth_oracle = float(np.abs(matrix).max())
        defect = gf.commutation_defect(f, h, matrix=matrix)
        fibers = gf.fiber_table(f, h)
        off_translation = max(
            (np.abs(b).max() for off, b in fibers.data.items() if off != 0), default=0.0
        )
        agree = (
            verdict.passed == (dual_oracle <= verdict.tolerance),
            orth.passed == (orth_oracle <= orth.tolerance),
            (defect <= verdict.tolerance) == (off_translation <= verdict.tolerance),
        )
        if index < self.acceptance_size:
            self.acceptance.setdefault(index, agree)
        own = {"dual": verdict.passed, "orthogonal": orth.passed}.get(case.kind, True)
        return Outcome(all(agree) and own)

    def notes(self) -> list[str]:
        n = len(self.acceptance)
        counts = [sum(a[k] for a in self.acceptance.values()) for k in range(3)]
        return [
            f"acceptance corpus (seed {ACCEPTANCE_SEED}): {n}/{self.acceptance_size} cases run; "
            f"dual {counts[0]}/{n}, orthogonality {counts[1]}/{n}, "
            f"commutation {counts[2]}/{n} agree with the oracle"
        ]


class GaborWide:
    """Single-window Gabor pairs on Z_n above the dense cap, checked by the
    structured Gabor verdict and by the expanded super-system verdict.

    The dual is the painless-case formula h = g / (a * M * sum_k |g(x - k a)|^2)
    for a window supported on M points; every second request scales one dual
    sample by 1 + 1e-3, and both verdicts must then fail.
    """

    name = "gabor_wide"

    # The painless formula is exact only when the window support equals the
    # number of modulations.
    STEP = 16
    MODULATIONS = 32

    def __init__(self, seed: int, order: int = 1024, windows: int = 8):
        self.seed = seed
        self.order = order
        self.n_windows = windows
        self.pass_size = 2 * windows

    def build_inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        n, a, m = self.order, self.STEP, self.MODULATIONS
        windows = np.zeros((self.n_windows, n), dtype=np.complex128)
        windows[:, :m] = _complex_normal(rng, (self.n_windows, m))
        periodized = sum(np.abs(np.roll(windows, k * a, axis=1)) ** 2 for k in range(n // a))
        duals = windows / (a * m * periodized)
        bad_samples = rng.integers(0, m, size=self.n_windows)
        corrupted = duals.copy()
        corrupted[np.arange(self.n_windows), bad_samples] *= 1 + 1e-3
        return windows, duals, corrupted

    def setup(self) -> None:
        self.group = gf.make_group([self.order])
        self.windows, self.duals, self.corrupted = self.build_inputs(self.seed)

    def input_fingerprint(self, inputs=None) -> str:
        inputs = (self.windows, self.duals, self.corrupted) if inputs is None else inputs
        return fingerprint(self.order, self.STEP, self.MODULATIONS, *inputs)

    def reference_fingerprint(self) -> str:
        return self.input_fingerprint(self.build_inputs(REFERENCE_SEED))

    def notes(self) -> list[str]:
        return []

    def op(self, i: int) -> Outcome:
        k = (i // 2) % self.n_windows
        expected = i % 2 == 0
        dual = self.duals[k] if expected else self.corrupted[k]
        group = self.group
        translation = gf.subgroup_from_generators(group, [(self.STEP,)])
        modulation = gf.subgroup_from_generators(group, [(self.order // self.MODULATIONS,)])
        # Building a lattice includes its annihilator (cached on the subgroup).
        translation.annihilator
        modulation.annihilator
        g = [[gf.Signal(group, self.windows[k])]]
        h = [[gf.Signal(group, dual)]]
        structured = gf.check_gabor_duality(g, h, translation, modulation)
        expanded = gf.check_super_duality(
            gf.gabor_system(g, translation, modulation),
            gf.gabor_system(h, translation, modulation),
        )
        return Outcome(structured.passed == expanded.passed == expected)


class CodecStream:
    """The multiplex codec: N channels through one coefficient stream of an
    exact super dual pair on one layer, with a JSON round trip in between."""

    name = "codec_stream"

    # Coset blocks are redrawn until their condition number is below this, so
    # the built pair is exact to well inside the 1e-9 verdict tolerance.
    MAX_BLOCK_CONDITION = 100.0
    MAX_RELATIVE_ERROR = 1e-9
    STEP = 8
    CHANNELS = 2

    def __init__(self, seed: int, order: int = 2048, frames: int = 8):
        self.seed = seed
        self.order = order
        self.pass_size = frames

    def build_inputs(self, seed: int):
        """Window spectra per annihilator coset: H = G (G* G)^-1 / w per block.

        ann(step * Z) in Z_n is (n/step) * Z, so the cosets are
        {xi + k n/step}; each block stacks one coset of every channel and is
        square (generators = channels * |ann|).
        """
        rng = np.random.default_rng(seed)
        n, ann, chans = self.order, self.STEP, self.CHANNELS
        cosets = n // ann
        gens = chans * ann
        weights = rng.uniform(0.5, 2.0, size=gens)
        g_hat = np.zeros((gens, chans, n), dtype=np.complex128)
        h_hat = np.zeros_like(g_hat)
        for xi in range(cosets):
            coset = xi + cosets * np.arange(ann)
            block = _complex_normal(rng, (gens, gens))
            while np.linalg.cond(block) > self.MAX_BLOCK_CONDITION:
                block = _complex_normal(rng, (gens, gens))
            dual = block @ np.linalg.inv(block.conj().T @ block) / weights[:, None]
            g_hat[:, :, coset] = block.reshape(gens, chans, ann)
            h_hat[:, :, coset] = dual.reshape(gens, chans, ann)
        return weights, np.fft.ifft(g_hat, axis=-1), np.fft.ifft(h_hat, axis=-1)

    def _system(self, windows: np.ndarray):
        group = self.group
        generators = [
            gf.WeightedGenerator(float(w), tuple(gf.Signal(group, v) for v in windows[p]))
            for p, w in enumerate(self.weights)
        ]
        return gf.SuperSystemDescriptor(
            group, self.CHANNELS, [gf.GtiLayer(self.subgroup, generators)]
        )

    def setup(self) -> None:
        self.group = gf.make_group([self.order])
        self.subgroup = gf.subgroup_from_generators(self.group, [(self.STEP,)])
        self.weights, self.g_windows, self.h_windows = self.build_inputs(self.seed)
        self.f_system = self._system(self.g_windows)
        self.h_system = self._system(self.h_windows)
        verdict = gf.check_super_duality(self.f_system, self.h_system)
        if not verdict.passed:
            raise RuntimeError(
                f"codec pair failed certification (residual {verdict.max_residual:.3e} "
                f"> tol {verdict.tolerance:.3e})"
            )
        self.certification_residual = verdict.max_residual

    def input_fingerprint(self, inputs=None) -> str:
        inputs = (self.weights, self.g_windows, self.h_windows) if inputs is None else inputs
        return fingerprint(self.order, self.STEP, self.CHANNELS, *inputs)

    def reference_fingerprint(self) -> str:
        return self.input_fingerprint(self.build_inputs(REFERENCE_SEED))

    def notes(self) -> list[str]:
        return [f"codec pair certified in set-up, residual {self.certification_residual:.3e}"]

    def op(self, i: int) -> Outcome:
        rng = np.random.default_rng([self.seed, i])
        values = _complex_normal(rng, (self.CHANNELS, self.order))
        signal = gf.SuperSignal.from_stacked(self.group, values)
        start = time.perf_counter()
        coeffs = gf.analysis_coeffs(self.f_system, signal)
        encoded = time.perf_counter()
        text = json.dumps(gf.configio.coefficients_to_json(coeffs))
        decoded = gf.configio.coefficients_from_json(json.loads(text))
        transported = time.perf_counter()
        back = gf.synthesis(self.h_system, decoded).stacked()
        done = time.perf_counter()
        errors = np.linalg.norm(back - values, axis=1) / np.linalg.norm(values, axis=1)
        return Outcome(
            bool(np.all(errors <= self.MAX_RELATIVE_ERROR)),
            phases={"encode": encoded - start, "decode": done - transported},
            counts={"configio.json_bytes": len(text)},
        )


WORKLOADS = {w.name: w for w in (Sweep216, GaborWide, CodecStream)}
