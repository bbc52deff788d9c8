"""Exact arithmetic for finite abelian groups, their duals and automorphisms.

A group is a product of cyclic groups Z_{n_1} x ... x Z_{n_d}; elements are
residue tuples, indexed lexicographically.  The dual group is represented by
the same residue tuples through the pairing

    <xi, x> = exp(2*pi*i * sum_k xi_k * x_k / n_k),

so annihilators and adjoints can be computed in integer arithmetic, without
comparing floating-point characters to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm, prod
import operator
from typing import Any, Callable, Iterable, Sequence

import numpy as np

Element = tuple[int, ...]

# Enumeration-based operations refuse to run past this size.
ENUMERATION_CAP = 1 << 22
# A group or subgroup keeps an index table of at most this many entries (64 KiB of
# int64).  Rebuilding a larger one costs little next to the transforms and products
# of a pass over that many points, and keeping it would hold its memory for the
# instance's life.
_KEPT_TABLE_ENTRIES = 1 << 13


class _KeptTables:
    """Index tables that depend on the instance alone (and on a channel count or a
    second subgroup), built on first use and kept in its `_tables`."""

    _tables: dict

    def _table(self, key: tuple, build: Callable[[], Any]) -> Any:
        """The table (or tuple of tables) stored under `key`, built on first use and kept,
        read-only, when it has at most _KEPT_TABLE_ENTRIES entries in all; a larger one is
        rebuilt per call."""
        table = self._tables.get(key)
        if table is None:
            table = build()
            arrays = table if isinstance(table, tuple) else (table,)
            if sum(a.size for a in arrays) <= _KEPT_TABLE_ENTRIES:
                for a in arrays:
                    a.flags.writeable = False
                self._tables[key] = table
        return table


@dataclass(frozen=True)
class GroupSpec(_KeptTables):
    """A finite abelian group given by the orders of its cyclic factors."""

    orders: tuple[int, ...]
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.orders) == 0:
            raise ValueError("group needs at least one cyclic factor")
        for n in self.orders:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ValueError(f"cyclic order must be a positive integer, got {n!r}")
        if self.size > ENUMERATION_CAP:
            raise ValueError(f"group size {self.size} exceeds cap {ENUMERATION_CAP}")

    @property
    def size(self) -> int:
        return prod(self.orders)

    @property
    def ndim(self) -> int:
        return len(self.orders)

    def reduce(self, residues: Sequence[int]) -> Element:
        """Residues mod the orders; raises ValueError for non-integers (no truncation)."""
        if len(residues) != self.ndim:
            raise ValueError(f"expected {self.ndim} residues, got {len(residues)}")
        return tuple(_integer(r, "residue") % n for r, n in zip(residues, self.orders))

    def index_of(self, element: Sequence[int]) -> int:
        x = self.reduce(element)
        idx = 0
        for r, n in zip(x, self.orders):
            idx = idx * n + r
        return idx

    def element_at(self, index: int) -> Element:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for group of size {self.size}")
        out = []
        for n in reversed(self.orders):
            index, r = divmod(index, n)
            out.append(r)
        return tuple(reversed(out))

    def add(self, a: Sequence[int], b: Sequence[int]) -> Element:
        return tuple((x + y) % n for x, y, n in zip(self.reduce(a), self.reduce(b), self.orders))

    def neg(self, a: Sequence[int]) -> Element:
        return tuple((-x) % n for x, n in zip(self.reduce(a), self.orders))

    def sub(self, a: Sequence[int], b: Sequence[int]) -> Element:
        return self.add(a, self.neg(b))

    @property
    def zero(self) -> Element:
        return (0,) * self.ndim

    def residue_matrix(self) -> np.ndarray:
        """All elements as a read-only (size, ndim) int64 matrix in index order."""
        return self._residues

    @cached_property
    def _residues(self) -> np.ndarray:
        res = np.stack(np.unravel_index(np.arange(self.size), self.orders), axis=1)
        res.flags.writeable = False
        return res

    def elements(self) -> Iterable[Element]:
        return (tuple(int(v) for v in row) for row in self.residue_matrix())

    def __str__(self) -> str:
        return "Z" + "xZ".join(str(n) for n in self.orders)


def _integer(value: object, what: str) -> int:
    # operator.index takes Python and numpy integers and refuses floats and
    # strings; booleans are integers to it, so they are refused first.
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def make_group(orders: Sequence[int]) -> GroupSpec:
    """Build the group Z_{orders[0]} x ... x Z_{orders[-1]}.

    Raises ValueError for orders that are not integers (no truncation).
    """
    try:
        items = tuple(orders)
    except TypeError:
        raise ValueError(f"group orders must be a list of integers, got {orders!r}") from None
    return GroupSpec(tuple(_integer(n, "cyclic order") for n in items))


def _phase_rows(group: GroupSpec, duals: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """(k, |G|) integer phases p[i, y] = sum_m xi_im * y_m * (|G|/n_m) mod |G| of
    k dual elements xi_i against every group element y, in index order.

    Axis m contributes a (k, n_m) table that depends on y_m alone; the tables
    are summed by broadcasting over the group grid and reduced once (each
    entry is below n_m * |G|, so the sum stays far below 2**63).
    """
    duals = np.asarray(duals, dtype=np.int64).reshape(-1, group.ndim)
    k, size = len(duals), group.size
    out = np.zeros((k,) + (1,) * group.ndim, dtype=np.int64)
    for m, n in enumerate(group.orders):
        axis = (duals[:, m, None] % n) * (np.arange(n, dtype=np.int64) * (size // n))
        out = out + axis.reshape((k,) + (1,) * m + (n,) + (1,) * (group.ndim - m - 1))
    return out.reshape(k, size) % size


def _character_rows(group: GroupSpec, duals: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """(k, |G|) characters of k dual elements at every group element: the
    phases of `_phase_rows` gathered from the |G| roots of unity, which equals
    exp(2*pi*i*p/|G|) evaluated elementwise bit for bit."""
    roots = np.exp(2j * np.pi * np.arange(group.size) / group.size)
    return roots[_phase_rows(group, duals)]


def character_column(group: GroupSpec, xi: Sequence[int]) -> np.ndarray:
    """The character of xi evaluated at every group element, in index order."""
    return _character_rows(group, [group.reduce(xi)])[0]


@dataclass(eq=False)
class Subgroup(_KeptTables):
    """A subgroup stored as its full sorted element set plus a generator list,
    with the index tables of `_KeptTables`."""

    parent: GroupSpec
    generators: tuple[Element, ...]
    indices: np.ndarray = field(repr=False)
    _tables: dict[tuple, object] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)

    @property
    def order(self) -> int:
        return int(self.indices.size)

    @property
    def covolume(self) -> int:
        # |G| / |Gamma|; exact by Lagrange.
        return self.parent.size // self.order

    def elements(self) -> list[Element]:
        return [self.parent.element_at(int(i)) for i in self.indices]

    def same_set(self, other: "Subgroup") -> bool:
        return other is self or (self.parent.orders == other.parent.orders
                                 and np.array_equal(self.indices, other.indices))

    @cached_property
    def annihilator(self) -> "Subgroup":
        return annihilator(self.parent, self)

    @cached_property
    def translate_table(self) -> np.ndarray:
        """Index table T with T[i, x] = index(x - gamma_i), one row per subgroup element.

        values[T[i]] is then the translate by gamma_i of a signal stored as a
        flat vector, for every element of the subgroup at once.
        """
        return _difference_table(self.parent, self.indices)

    @cached_property
    def cosets(self) -> np.ndarray:
        """(|G|/|H|, |H|) indices of the cosets x + H: one row per coset, rows
        ordered by their smallest index, entries by the elements of H, so
        row 0 is `indices`.

        Every x is labelled with the smallest index of x + H, a minimum taken
        along each generator g by doubling: label[x] = min(label[x], label[x + s*g])
        for s = 1, 2, 4, ... below ord(g).  The labels that label themselves
        are the row starts."""
        group = self.parent
        res = group.residue_matrix()
        label = np.arange(group.size)
        for g in self.generators:
            step = _flat_index(group, res + np.asarray(g))  # x -> x + g
            span, order = 1, _element_order(group, g)
            while span < order:
                label = np.minimum(label, label[step])
                step, span = step[step], 2 * span
        starts = np.flatnonzero(label == np.arange(group.size))
        return _flat_index(group, res[starts][:, None, :] + res[self.indices][None, :, :])

    def _membership(self) -> np.ndarray:
        """(|G|,) mask of the subgroup's elements."""
        def build() -> np.ndarray:
            member = np.zeros(self.parent.size, dtype=bool)
            member[self.indices] = True
            return member
        return self._table(("membership",), build)

    def _coset_columns(self, channels: int) -> np.ndarray:
        """(C, N|H|) flat indices into N stacked |G|-vectors: row c holds the coset
        c + H of `cosets` in channel 0, then in channel 1, and so on."""
        def build() -> np.ndarray:
            count, order = self.cosets.shape
            shift = self.parent.size * np.arange(channels)[:, None]
            return (self.cosets[:, None, :] + shift).reshape(count, channels * order)
        return self._table(("columns", channels), build)

    def _block_take(self, channels: int) -> np.ndarray:
        """(|H|, N, N, |G|) flat positions into a (C, N|H|, N|H|) stack of blocks whose
        rows and columns are ordered as `_coset_columns(N)`: position [k, n1, n2, x]
        holds entry [(n1, i), (n2, j)] of the block of x's coset c + H, where
        x = c + h_i and x + h_k = c + h_j."""
        def build() -> np.ndarray:
            group, order = self.parent, self.order
            size = group.size
            width = channels * order
            # Coset row and column of every element; moved[k, x] is the column of x + h_k.
            position = np.empty(size, dtype=np.int64)
            position[self.cosets.ravel()] = np.arange(size)
            row, col = np.divmod(position, order)
            res = group.residue_matrix()[self.indices]
            moved = col[_flat_index(group, res[:, None, :] + res[None, :, :])].take(col, axis=1)
            channel = np.arange(channels) * order
            point = moved + (row * width + col) * width
            pair = channel[:, None] * width + channel[None, :]
            return point[:, None, None, :] + pair[:, :, None]
        return self._table(("take", channels), build)

    def _join(self, other: "Subgroup") -> "Subgroup":
        """The subgroup H + K for a subgroup K of the same group: H itself when it
        holds K, else kept per element set of K."""
        if self._membership()[other.indices].all():
            return self
        key = ("join", other.indices.tobytes())
        joined = self._tables.get(key)
        if joined is None:
            res = self.parent.residue_matrix()
            sums = _flat_index(self.parent, res[self.indices][:, None, :] + res[other.indices])
            joined = self._tables[key] = subgroup_from_indices(self.parent, sums.ravel())
        return joined

    def _difference_mask(self, sub: "Subgroup") -> np.ndarray:
        """(|H|, |H|) mask whose entry [i, k] says whether h_k - h_i lies in `sub`."""
        def build() -> np.ndarray:
            res = self.parent.residue_matrix()[self.indices]
            return sub._membership()[_flat_index(self.parent, res[None, :, :] - res[:, None, :])]
        return self._table(("mask", sub.indices.tobytes()), build)

    def __str__(self) -> str:
        gens = ",".join(str(g) for g in self.generators)
        return f"<{gens}> of order {self.order} in {self.parent}"


def _flat_index(group: GroupSpec, residues: np.ndarray) -> np.ndarray:
    """Flat index of every residue row (last axis), reduced mod the orders first."""
    return np.ravel_multi_index(np.moveaxis(residues, -1, 0), group.orders, mode="wrap")


def _element_order(group: GroupSpec, element: Element) -> int:
    return lcm(*(n // gcd(r, n) for r, n in zip(element, group.orders)))


def _extend(group: GroupSpec, members: np.ndarray, gen: Element) -> np.ndarray:
    """Sorted indices of <S, gen> for the subgroup S at the sorted indices `members`.

    <S, g> is the disjoint union of the cosets S + k*g for 0 <= k < m, where m
    is the least k >= 1 with k*g in S.  The multiples run up to ord(g), whose
    multiple is 0 and so always in S: m is ord(g) when <g> meets S only in 0.
    """
    order = _element_order(group, gen)
    multiples = np.arange(order + 1, dtype=np.int64)[:, None] * np.asarray(gen, dtype=np.int64)
    mask = np.zeros(group.size, dtype=bool)
    mask[members] = True
    m = 1 + int(np.argmax(mask[_flat_index(group, multiples[1:])]))
    res = group.residue_matrix()
    return np.sort(_flat_index(group, res[members][None, :, :] + multiples[:m, None, :]).ravel())


def _greedy_generators(group: GroupSpec, indices: np.ndarray) -> tuple[Element, ...]:
    """Pick a small generating set for the subgroup given by sorted indices.

    The next generator is always the first target index not yet covered.
    """
    gens: list[Element] = []
    covered = np.zeros(1, dtype=np.int64)
    while covered.size < indices.size:
        mask = np.zeros(group.size, dtype=bool)
        mask[covered] = True
        gens.append(group.element_at(int(indices[np.argmax(~mask[indices])])))
        covered = _extend(group, covered, gens[-1])
    return tuple(gens)


def subgroup_from_generators(group: GroupSpec, gens: Sequence[Sequence[int]]) -> Subgroup:
    """Additive closure of the generators; always contains 0."""
    gen_tuples = tuple(group.reduce(g) for g in gens)
    indices = np.zeros(1, dtype=np.int64)
    for g in gen_tuples:
        indices = _extend(group, indices, g)
    return Subgroup(group, gen_tuples, indices)


def subgroup_from_indices(group: GroupSpec, indices: Iterable[int]) -> Subgroup:
    """Wrap an element set already known to be a subgroup."""
    arr = np.sort(np.fromiter(indices, dtype=np.int64))
    arr = arr[np.diff(arr, prepend=-1) > 0]
    gens = _greedy_generators(group, arr)
    return Subgroup(group, gens, arr)


def full_subgroup(group: GroupSpec) -> Subgroup:
    return subgroup_from_indices(group, range(group.size))


def _difference_table(group: GroupSpec, rows: np.ndarray | None = None) -> np.ndarray:
    """T[i, y] = index(y - x_i) for the elements x_i at `rows` (all when None)."""
    res = group.residue_matrix()
    gammas = res if rows is None else res[rows]
    return _flat_index(group, res[None, :, :] - gammas[:, None, :])


def annihilator(group: GroupSpec, sub: Subgroup) -> Subgroup:
    """All dual elements whose character is identically 1 on the subgroup.

    Membership is decided through the integer congruence
    sum_k xi_k * gamma_k * (|G|/n_k) = 0 (mod |G|) per generator, so the
    result is exact.
    """
    if sub.parent.orders != group.orders:
        raise ValueError("subgroup does not belong to this group")
    phases = _phase_rows(group, sub.generators)
    return subgroup_from_indices(group, np.flatnonzero(~phases.any(axis=0)))


@dataclass(eq=False)
class Automorphism:
    """An automorphism x -> A x (mod orders) with its exact dual-side adjoint.

    perm[index(x)] = index(A x); adjoint_perm does the same for the adjoint
    on dual indices; inv_perm and adjoint_inv_perm are their inverses.
    """

    parent: GroupSpec
    matrix: tuple[tuple[int, ...], ...]
    perm: np.ndarray = field(repr=False)
    inv_perm: np.ndarray = field(repr=False)
    adjoint_perm: np.ndarray = field(repr=False)
    adjoint_inv_perm: np.ndarray = field(repr=False)

    def inverse_image(self, sub: Subgroup) -> Subgroup:
        """The subgroup alpha^{-1}(Gamma)."""
        return subgroup_from_indices(self.parent, self.inv_perm[sub.indices])

    def __str__(self) -> str:
        return f"automorphism {list(map(list, self.matrix))} of {self.parent}"


def _perm_from_matrix(group: GroupSpec, matrix: np.ndarray) -> np.ndarray:
    """Flat index of A x for every x, with A x = sum_l x_l * A[:, l] summed
    column by column (no int64 matmul)."""
    res = group.residue_matrix()
    image = np.zeros_like(res)
    for l in range(group.ndim):
        image += res[:, l, None] * matrix[:, l]
    return _flat_index(group, image)


def automorphism_from_matrix(group: GroupSpec, matrix: Sequence[Sequence[int]]) -> Automorphism:
    """Validate an integer matrix as a group automorphism and package it.

    Raises ValueError when the matrix does not define a homomorphism (the
    congruence A[k][l]*n_l = 0 mod n_k fails) or is not bijective.
    """
    d = group.ndim
    entries = np.asarray(matrix, dtype=object)
    if entries.shape != (d, d):
        raise ValueError(f"matrix must be {d}x{d}, got shape {entries.shape}")
    n = np.asarray(group.orders, dtype=np.int64)
    # Row k reduced mod n_k (no truncation): the congruences below do not change.
    rows = zip(entries.tolist(), group.orders)
    a = np.array([[_integer(v, "matrix entry") % m for v in row] for row, m in rows], dtype=np.int64)
    scaled = a * n  # A[k][l] * n_l
    bad = np.argwhere(scaled % n[:, None])
    if bad.size:
        k, l = bad[0]
        raise ValueError(
            f"matrix is not a homomorphism: entry ({k},{l})={a[k, l]} "
            f"violates {a[k, l]}*{n[l]} = 0 mod {n[k]}"
        )
    perm = _perm_from_matrix(group, a)
    if not np.all(np.bincount(perm, minlength=group.size) == 1):
        raise ValueError("matrix is not bijective on the group")
    # Adjoint on dual indices: B[l][k] = A[k][l] * n_l / n_k, exact by the
    # homomorphism congruence; reduces to the plain transpose when all the
    # cyclic orders agree.
    b = (scaled // n[:, None]).T % n[:, None]
    adjoint_perm = _perm_from_matrix(group, b)
    if not np.all(np.bincount(adjoint_perm, minlength=group.size) == 1):
        raise ValueError("adjoint matrix is not bijective on the dual")
    return Automorphism(
        parent=group,
        matrix=tuple(tuple(int(v) for v in row) for row in a),
        perm=perm,
        inv_perm=np.argsort(perm).astype(np.int64),
        adjoint_perm=adjoint_perm,
        adjoint_inv_perm=np.argsort(adjoint_perm).astype(np.int64),
    )


def identity_automorphism(group: GroupSpec) -> Automorphism:
    eye = np.eye(group.ndim, dtype=np.int64)
    return automorphism_from_matrix(group, eye)
