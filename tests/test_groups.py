"""Exact group arithmetic: elements, subgroups, annihilators, automorphisms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gtiframes import (
    annihilator,
    automorphism_from_matrix,
    character_column,
    identity_automorphism,
    make_group,
    subgroup_from_generators,
    subgroup_from_indices,
    full_subgroup,
)
from gtiframes.groups import (
    GroupSpec,
    _character_rows,
    _difference_table,
    _flat_index,
    _perm_from_matrix,
    _phase_rows,
)
from gtiframes.sweeps import all_small_subgroups

from helpers import (
    all_groups_upto,
    brute_annihilator,
    brute_character,
    brute_closure,
    loop_cosets,
    loop_flat_index,
    loop_greedy_generators,
    loop_small_subgroups,
)

small_orders = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3)


def elements_of(group, count, rng):
    return [tuple(int(rng.integers(n)) for n in group.orders) for _ in range(count)]


class TestGroupSpec:
    def test_sizes(self):
        assert make_group([4]).size == 4
        assert make_group([2, 2]).size == 4
        assert make_group([8, 3]).size == 24

    def test_element_enumeration_z2xz2(self):
        g = make_group([2, 2])
        assert list(g.elements()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            make_group([])
        with pytest.raises(ValueError):
            make_group([0])
        with pytest.raises(ValueError):
            make_group([4, -2])
        with pytest.raises(ValueError):
            GroupSpec((True,))

    @pytest.mark.parametrize(
        "orders", [[4.5], [4.0], [True], ["4"], [np.bool_(True)], 4],
        ids=["float", "integral-float", "bool", "string", "numpy-bool", "not-a-list"],
    )
    def test_non_integer_orders_rejected(self, orders):
        with pytest.raises(ValueError):
            make_group(orders)

    def test_numpy_integer_orders_accepted(self):
        assert make_group(np.array([4, 6])).orders == (4, 6)

    @given(small_orders, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_index_tuple_roundtrip(self, orders, raw):
        g = make_group(orders)
        idx = raw % g.size
        assert g.index_of(g.element_at(idx)) == idx

    def test_residue_matrix_is_read_only(self):
        g = make_group([4, 6])
        with pytest.raises(ValueError):
            g.residue_matrix()[1, 1] = 5
        assert make_group([4, 6]).residue_matrix()[1, 1] == 1

    def test_reduce_idempotent(self):
        g = make_group([4, 6])
        assert g.reduce((7, -1)) == (3, 5)
        assert g.reduce(g.reduce((7, -1))) == (3, 5)


class TestCharacters:
    def test_z4_quarter_turn(self):
        g = make_group([4])
        assert character_column(g, (1,))[g.index_of((1,))] == pytest.approx(1j)

    def test_trivial_character(self):
        g = make_group([5, 3])
        assert np.allclose(character_column(g, (0, 0)), 1.0, rtol=0, atol=1e-12)

    def test_z2xz2_sign(self):
        g = make_group([2, 2])
        col = character_column(g, (1, 1))
        assert col[g.index_of((1, 1))] == pytest.approx(1.0)
        assert col[g.index_of((1, 0))] == pytest.approx(-1.0)

    @given(small_orders, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_homomorphism_and_modulus(self, orders, pyrng):
        g = make_group(orders)
        rng = np.random.default_rng(pyrng.randrange(2**32))
        xi, x, y = elements_of(g, 3, rng)
        col = character_column(g, xi)
        cxy = col[g.index_of(g.add(x, y))]
        assert cxy == pytest.approx(col[g.index_of(x)] * col[g.index_of(y)])
        assert np.allclose(np.abs(col), 1.0, rtol=0, atol=1e-12)

    def test_matches_cmath_reference(self):
        # Dual elements outside the residue range are reduced first.
        g = make_group([6, 4])
        rng = np.random.default_rng(0)
        for _ in range(20):
            xi = tuple(int(v) for v in rng.integers(-20, 20, size=2))
            (x,) = elements_of(g, 1, rng)
            got = character_column(g, xi)[g.index_of(x)]
            assert got == pytest.approx(brute_character(g, xi, x))

    def test_character_column_matches_pointwise(self):
        g = make_group([3, 4])
        col = character_column(g, (2, 3))
        for i, x in enumerate(g.elements()):
            assert col[i] == pytest.approx(brute_character(g, (2, 3), x))


class TestSubgroups:
    def test_cyclic_closure(self):
        g = make_group([8])
        sub = subgroup_from_generators(g, [(2,)])
        assert sub.elements() == [(0,), (2,), (4,), (6,)]
        assert sub.covolume == 2

    def test_empty_generators(self):
        g = make_group([6])
        sub = subgroup_from_generators(g, [])
        assert sub.elements() == [(0,)]
        assert sub.covolume == 6

    def test_product_closure_matches_brute_force(self):
        # In the last two cases <g> meets the closure so far only in 0.
        for orders, gens, order in [
            ((4, 4), [(2, 0), (0, 2)], 4),
            ((6,), [(2,), (3,)], 6),
            ((2, 4), [(1, 0), (0, 1)], 8),
        ]:
            g = make_group(orders)
            sub = subgroup_from_generators(g, gens)
            assert set(sub.elements()) == brute_closure(g, gens)
            assert sub.order == order
            assert sub.covolume == g.size // order

    def test_translate_table(self):
        g = make_group([4])
        sub = subgroup_from_generators(g, [(2,)])
        values = np.arange(4.0)
        table = sub.translate_table
        # Row for gamma=2 shifts by two positions.
        row = list(sub.elements()).index((2,))
        assert list(values[table[row]]) == [2.0, 3.0, 0.0, 1.0]


def _automorphisms(g):
    """Negation, unit scalings and shears of g, where they are automorphisms."""
    eye = np.eye(g.ndim, dtype=int)
    candidates = [-eye, 3 * eye, 5 * eye, eye + np.triu(np.ones_like(eye), 1),
                  eye + np.tril(np.ones_like(eye), -1)]
    autos = []
    for mat in candidates:
        try:
            autos.append(automorphism_from_matrix(g, mat.tolist()))
        except ValueError:
            pass
    return autos


@pytest.mark.parametrize("g", all_groups_upto(64), ids=str)
class TestClosureMatchesLoops:
    def test_small_subgroups_match_pairwise_enumeration(self, g):
        got = [(s.indices.tolist(), s.generators, s.order) for s in all_small_subgroups(g)]
        assert got == [(idx, gens, len(idx)) for idx, gens in loop_small_subgroups(g)]

    def test_cosets_match_loop(self, g):
        for sub in all_small_subgroups(g):
            cosets = sub.cosets
            assert cosets.tolist() == loop_cosets(g, sub)
            assert np.array_equal(np.sort(cosets.ravel()), np.arange(g.size))
            assert np.array_equal(cosets[0], sub.indices)
            assert np.all(np.diff(cosets.min(axis=1)) > 0)

    def test_generators_from_indices_match_greedy_loop(self, g):
        for sub in all_small_subgroups(g):
            derived = [sub.annihilator]
            for auto in _automorphisms(g):
                adjoint_image = auto.adjoint_perm[sub.annihilator.indices]
                derived += [auto.inverse_image(sub), subgroup_from_indices(g, adjoint_image)]
            for d in derived:
                assert d.generators == loop_greedy_generators(g, d.indices)
                assert set(d.elements()) == brute_closure(g, d.generators)


class TestAnnihilator:
    def test_z8_even_subgroup(self):
        g = make_group([8])
        sub = subgroup_from_generators(g, [(2,)])
        assert set(sub.annihilator.elements()) == {(0,), (4,)}
        assert set(sub.annihilator.elements()) == brute_annihilator(g, sub.elements())

    def test_extremes(self):
        g = make_group([12])
        assert full_subgroup(g).annihilator.elements() == [(0,)]
        assert subgroup_from_generators(g, []).annihilator.order == g.size

    @pytest.mark.parametrize("orders", [(4,), (6,), (12,), (2, 4), (3, 3), (2, 2, 2)])
    def test_double_dual_and_size_product(self, orders):
        g = make_group(orders)
        rng = np.random.default_rng(sum(orders))
        for _ in range(8):
            gens = elements_of(g, int(rng.integers(0, 3)), rng)
            sub = subgroup_from_generators(g, gens)
            ann = sub.annihilator
            assert sub.order * ann.order == g.size
            assert ann.annihilator.same_set(sub)
            assert set(ann.elements()) == brute_annihilator(g, sub.elements())


class TestAutomorphisms:
    def test_valid_unit_on_z5(self):
        g = make_group([5])
        a = automorphism_from_matrix(g, [[2]])
        assert a.perm.tolist() == [2 * x % 5 for x in range(5)]

    def test_non_bijective_rejected(self):
        g = make_group([4])
        with pytest.raises(ValueError, match="not bijective"):
            automorphism_from_matrix(g, [[2]])

    def test_non_homomorphism_rejected(self):
        g = make_group([2, 4])
        # entry (0,1)=1 requires 1*4 = 0 mod 2, fine; entry (1,0)=1 requires 1*2 = 0 mod 4: no.
        with pytest.raises(ValueError, match="not a homomorphism"):
            automorphism_from_matrix(g, [[1, 1], [1, 1]])

    @pytest.mark.parametrize("entry", [2.5, 2.0, "2", True], ids=["float", "integral-float",
                                                                   "string", "bool"])
    def test_non_integer_entries_rejected(self, entry):
        g = make_group([5])
        with pytest.raises(ValueError, match="must be an integer"):
            automorphism_from_matrix(g, [[entry]])
        with pytest.raises(ValueError, match="must be an integer"):
            subgroup_from_generators(g, [(entry,)])

    def test_huge_and_numpy_integer_entries_reduced(self):
        g = make_group([5])
        assert automorphism_from_matrix(g, [[5 * 10**30 + 2]]).matrix == ((2,),)
        assert automorphism_from_matrix(g, np.array([[7]])).matrix == ((2,),)

    def test_shear_on_z3xz3(self):
        g = make_group([3, 3])
        a = automorphism_from_matrix(g, [[1, 1], [0, 1]])
        images = [g.element_at(int(i)) for i in a.perm]
        assert images == [((x + y) % 3, y) for x, y in g.elements()]
        assert len(set(images)) == g.size

    def test_adjoint_identity_exhaustive(self):
        cases = [
            (make_group([5]), [[2]]),
            (make_group([3, 3]), [[1, 1], [0, 1]]),
            (make_group([2, 4]), [[1, 0], [2, 1]]),
            (make_group([8]), [[3]]),
        ]
        for g, mat in cases:
            a = automorphism_from_matrix(g, mat)
            adjoints = [g.element_at(int(i)) for i in a.adjoint_perm]  # alpha* xi
            for xi, adjoint_xi in zip(g.elements(), adjoints):
                # <xi, alpha x> == <alpha* xi, x> at every x, in index order.
                lhs = character_column(g, xi)[a.perm]
                rhs = character_column(g, adjoint_xi)
                assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_inverse_image_subgroup_and_annihilator(self):
        g = make_group([8])
        a = automorphism_from_matrix(g, [[3]])
        sub = subgroup_from_generators(g, [(4,)])
        pre = a.inverse_image(sub)
        assert pre.order == sub.order
        adjoint_image = subgroup_from_indices(g, a.adjoint_perm[sub.annihilator.indices])
        assert pre.annihilator.same_set(adjoint_image)

    def test_identity(self):
        g = make_group([3, 4])
        a = identity_automorphism(g)
        for perm in (a.perm, a.inv_perm, a.adjoint_perm, a.adjoint_inv_perm):
            assert np.array_equal(perm, np.arange(g.size))


@pytest.mark.parametrize("orders", [(64,), (8, 8), (4, 4, 4), (6, 6)])
def test_character_homomorphism_exhaustive_integer(orders):
    """Exact phase additivity over every (xi, x, y) triple for |G| <= 64."""
    g = make_group(orders)
    size = g.size
    tables = _phase_rows(g, g.residue_matrix())  # tables[xi] over y
    # phase(xi, x + y) == phase(xi, x) + phase(xi, y) mod |G|, via the sum table.
    table_xy = _difference_table(g)  # index(y - x)
    neg = np.array([g.index_of(g.neg(x)) for x in g.elements()])
    for xi_idx in range(size):
        row = tables[xi_idx]
        sums = row[:, None] + row[None, :]
        # index(x + y) = index(y - (-x)).
        idx_sum = table_xy[neg]
        assert np.array_equal(row[idx_sum] % size, sums % size)


def test_subgroup_closure_properties():
    rng = np.random.default_rng(7)
    g = make_group([6, 4])
    for _ in range(6):
        gens = elements_of(g, int(rng.integers(0, 3)), rng)
        sub = subgroup_from_generators(g, gens)
        members = set(sub.elements())
        assert g.zero in members
        for a in members:
            assert g.neg(a) in members
            for b in members:
                assert g.add(a, b) in members
        assert sub.order * sub.covolume == g.size


def test_translation_index_table_consistency():
    """The full difference table: row x is the index permutation of the translation by x."""
    g = make_group([2, 3])
    table = _difference_table(g)
    for xi, x in enumerate(g.elements()):
        for yi, y in enumerate(g.elements()):
            assert table[xi, yi] == g.index_of(g.sub(y, x))


@pytest.mark.parametrize("group", all_groups_upto(64), ids=str)
def test_flat_index_and_matrix_perm_match_python_reference(group):
    """Per-axis index arithmetic equals Python integers on residues in [-3n, 3n)."""
    rng = np.random.default_rng(group.size)
    residues = np.stack([rng.integers(-3 * n, 3 * n, size=(4, 9)) for n in group.orders], axis=-1)
    expected = [[loop_flat_index(group, r) for r in row] for row in residues.tolist()]
    assert np.array_equal(_flat_index(group, residues), expected)
    matrix = np.stack([rng.integers(-3 * n, 3 * n, size=group.ndim) for n in group.orders])
    images = [[sum(a * v for a, v in zip(row, x)) for row in matrix.tolist()]
              for x in group.elements()]
    assert np.array_equal(_perm_from_matrix(group, matrix),
                          [loop_flat_index(group, y) for y in images])


@pytest.mark.parametrize("group", all_groups_upto(64), ids=str)
def test_character_rows_match_brute_character(group):
    """The one phase primitive, gathered into characters, for every (xi, x)."""
    elements = list(group.elements())
    brute = [[brute_character(group, xi, x) for x in elements] for xi in elements]
    assert np.allclose(_character_rows(group, elements), brute, rtol=0, atol=1e-12)
