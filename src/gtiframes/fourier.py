"""Discrete Fourier transform on products of cyclic groups.

Normalization is asymmetric: the forward transform is the plain character
sum (counting measure on the group), the inverse carries the 1/|G| factor
(so the dual group carries mass 1/|G| per point), which are the sign and
scale conventions of numpy.fft.fftn/ifftn.  The fast path is numpy.fft; a
naive O(|G|^2) path evaluated straight from the character definition is kept
as the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groups import GroupSpec, Subgroup


@dataclass(eq=False)
class _GroupVector:
    group: GroupSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        values = self.values  # a 1-D complex128 array is kept as it is, not re-viewed
        if type(values) is not np.ndarray or values.dtype != np.complex128 or values.ndim != 1:
            self.values = np.asarray(values, dtype=np.complex128).reshape(-1)
        if self.values.size != self.group.size:
            kind = type(self).__name__.lower()
            raise ValueError(
                f"{kind} length {self.values.size} does not match group size {self.group.size}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def __getitem__(self, element: Sequence[int]) -> complex:
        return complex(self.values[self.group.index_of(element)])


@dataclass(eq=False)
class Signal(_GroupVector):
    """A complex vector indexed by group elements in lexicographic order."""


@dataclass(eq=False)
class Spectrum(_GroupVector):
    """A complex vector indexed by dual elements in lexicographic order."""


def inner(f: Signal, g: Signal) -> complex:
    """Inner product sum_x f(x) * conj(g(x)) with counting measure."""
    if f.group.orders != g.group.orders:
        raise ValueError("group mismatch in inner product")
    return complex(np.vdot(g.values, f.values))


def dft(f: Signal) -> Spectrum:
    """Forward transform F(xi) = sum_x f(x) * conj(<xi, x>)."""
    return Spectrum(f.group, _transform(f.values, f.group))


def idft(spec: Spectrum) -> Signal:
    """Inverse transform f(x) = (1/|G|) sum_xi F(xi) * <xi, x>."""
    return Signal(spec.group, _transform(spec.values, spec.group, inverse=True))


def _naive_transform(values: np.ndarray, group: GroupSpec, inverse: bool) -> np.ndarray:
    """dft (or idft) of one flat vector as a character sum per point, from
    integer phases taken a block of rows at a time."""
    size = group.size
    res = group.residue_matrix()
    weights = np.array([size // n for n in group.orders], dtype=np.int64)
    sign = 1 if inverse else -1
    out = np.empty(size, dtype=np.complex128)
    step = max(1, (1 << 20) // size)
    for start in range(0, size, step):
        rows = slice(start, min(start + step, size))
        phases = ((res[rows] * weights) @ res.T) % size
        out[rows] = np.exp(sign * 2j * np.pi * phases / size) @ values
    return out / size if inverse else out


def dft_naive(f: Signal) -> Spectrum:
    """Reference transform evaluated element by element from the definition."""
    return Spectrum(f.group, _naive_transform(f.values, f.group, inverse=False))


def idft_naive(spec: Spectrum) -> Signal:
    return Signal(spec.group, _naive_transform(spec.values, spec.group, inverse=True))


def _transform(values: np.ndarray, group: GroupSpec, inverse: bool = False,
               out: np.ndarray | None = None) -> np.ndarray:
    """dft (or idft) of every flat vector stacked along the leading axes, written into
    `out` when it is given (a C-contiguous complex array of the shape of `values`).
    `out` may be `values` itself: numpy.fft transforms each line through its own
    buffer, so the transform in place allocates nothing and equals the copying one
    bit for bit."""
    lead = values.shape[:-1]
    grid = values.reshape(lead + group.orders)
    # Giving both s and axes skips numpy's own shape lookup (a cost per call).
    axes = tuple(range(-group.ndim, 0))
    fft = np.fft.ifftn if inverse else np.fft.fftn
    if out is not None:
        out = out.reshape(grid.shape)
    return fft(grid, s=group.orders, axes=axes, out=out).reshape(lead + (group.size,))


def _spectra(tuples: Sequence[Sequence[Signal]], group: GroupSpec) -> np.ndarray:
    """(P, N, |G|) transforms of P window tuples of N channels each, in one call."""
    values = np.stack([w.values for tup in tuples for w in tup])
    return _transform(values.reshape(len(tuples), -1, group.size), group)


def _roll(values: np.ndarray, group: GroupSpec, offset: Sequence[int]) -> np.ndarray:
    """out[..., x] = values[..., x + offset] for stacked flat vectors."""
    lead = values.shape[:-1]
    grid = values.reshape(lead + group.orders)
    axes = tuple(range(len(lead), len(lead) + group.ndim))
    rolled = np.roll(grid, shift=tuple(-int(r) for r in offset), axis=axes)
    return rolled.reshape(lead + (group.size,))


def delta_signal(group: GroupSpec, at: Sequence[int] | None = None) -> Signal:
    values = np.zeros(group.size, dtype=np.complex128)
    values[0 if at is None else group.index_of(at)] = 1.0
    return Signal(group, values)


def constant_signal(group: GroupSpec, value: complex = 1.0) -> Signal:
    return Signal(group, np.full(group.size, value, dtype=np.complex128))


def indicator_signal(group: GroupSpec, sub: Subgroup) -> Signal:
    values = np.zeros(group.size, dtype=np.complex128)
    values[sub.indices] = 1.0
    return Signal(group, values)


def _normal_rows(rng: np.random.Generator, group: GroupSpec, shape: tuple[int, ...]) -> np.ndarray:
    """(*shape, |G|) complex standard normal rows from one draw: row by row the
    `random_signal` of that many calls in C order, real part then imaginary part."""
    draw = rng.standard_normal((*shape, 2, group.size))
    return (draw[..., 0, :] + 1j * draw[..., 1, :]) / np.sqrt(2.0)


def random_signal(group: GroupSpec, rng: np.random.Generator | int) -> Signal:
    """Complex standard normal signal, deterministic for a fixed seed."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(int(rng))
    return Signal(group, _normal_rows(rng, group, ()))
