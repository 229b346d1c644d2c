"""Group arithmetic: enumeration, pairing, subgroups, annihilators, transversals."""

import math
from itertools import combinations

import numpy as np
import pytest

from zakfiber import (
    GroupSpec,
    all_subgroups,
    annihilator,
    determining_function,
    fiber_context,
    make_group,
    pairing,
    subgroup_from_generators,
    translate,
    translation_matrix,
    transversal,
)

from conftest import BATTERY_ORDERS, delta, load_script, rand_signal


WORKLOADS = load_script("bench/workloads.py")
SWEEP_UP_TO_16 = [o for o in WORKLOADS.SWEEP if math.prod(o) <= 16]


def closure(g, gens):
    """Close a generator list under addition, one element at a time."""
    seen, frontier = {g.zero()}, [g.zero()]
    while frontier:
        new = []
        for x in frontier:
            for t in gens:
                y = g.add(x, t)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return tuple(sorted(seen))


def closure_subgroups(g):
    """Reference enumeration: closures of every generator set of size <= rank."""
    found = {closure(g, gens) for r in range(len(g.orders) + 1) for gens in combinations(g.elements().tolist(), r)}
    return [[list(x) for x in elements] for elements in sorted(found)]


def lex_scan_reps(g, h):
    """Reference transversal: scan G in lex order, mark each new coset."""
    reps, covered = [], set()
    for x in map(tuple, g.elements().tolist()):
        if x not in covered:
            reps.append(list(x))
            covered.update(g.add(x, t) for t in h.elements.tolist())
    return reps


def brute_annihilator(g, h):
    lcm = math.lcm(*g.orders)
    return [
        k for k in g.elements().tolist()
        if all(sum(a * b * (lcm // n) for a, b, n in zip(t, k, g.orders)) % lcm == 0 for t in h.elements.tolist())
    ]


def bench_contexts():
    """(group, subgroup) for every analyze, demo-diffop and sweep context of the benchmark."""
    cases = [(o, [tuple(t) for t in gens]) for o, gens in WORKLOADS.BLOCKS + WORKLOADS.FIBERS]
    cases += [([n], [(d % n,)]) for n, d in WORKLOADS.DIFFOPS]
    out = []
    for orders, gens in cases:
        g = make_group(orders)
        out.append((g, subgroup_from_generators(g, gens)))
    for orders in WORKLOADS.SWEEP:
        g = make_group(orders)
        out.extend((g, sub) for sub in all_subgroups(g))
    return out


class TestMakeGroup:
    def test_cyclic_order_four(self):
        g = make_group([4])
        assert g.size == 4
        assert g.elements().tolist() == [[0], [1], [2], [3]]

    def test_product_enumeration_is_lexicographic(self):
        g = make_group([2, 2])
        assert g.size == 4
        assert g.elements().tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_trivial_group(self):
        g = make_group([1])
        assert g.size == 1
        assert g.elements().tolist() == [[0]]

    def test_index_matches_enumeration(self):
        g = make_group([3, 4])
        for i, x in enumerate(g.elements()):
            assert g.index(x) == i

    @pytest.mark.parametrize("orders", [[], [0], [4, -1]])
    def test_rejects_bad_orders(self, orders):
        with pytest.raises(ValueError):
            make_group(orders)

    def test_accepts_an_iterator(self):
        # the orders are read once, so a one-shot iterable is not exhausted early
        assert make_group(iter([4])) == make_group([4])
        assert make_group(n for n in (2, 3)).orders == (2, 3)


class TestPairing:
    def test_identity_pairs_to_one(self):
        g = make_group([4])
        for k in g.elements():
            assert pairing(g, (0,), k) == pytest.approx(1.0)

    def test_half_turn(self):
        g = make_group([4])
        assert pairing(g, (2,), (1,)) == pytest.approx(-1.0)

    def test_z8_against_direct_evaluation(self):
        # oracle: literal exp(2*pi*i*x*k/8) for every pair
        g = make_group([8])
        for x in range(8):
            for k in range(8):
                expected = np.exp(2j * np.pi * x * k / 8)
                assert pairing(g, (x,), (k,)) == pytest.approx(expected, abs=1e-12)
        assert pairing(g, (2,), (1,)) == pytest.approx(1j)
        assert pairing(g, (2,), (2,)) == pytest.approx(-1.0)

    @pytest.mark.parametrize("orders", BATTERY_ORDERS)
    def test_unit_modulus(self, orders):
        g = make_group(orders)
        for x in g.elements():
            for k in g.elements():
                assert abs(abs(pairing(g, x, k)) - 1.0) < 1e-12

    @pytest.mark.parametrize("orders", BATTERY_ORDERS)
    def test_biadditive(self, orders):
        g = make_group(orders)
        rng = np.random.default_rng(7)
        elems = g.elements()
        for _ in range(200):
            x, y, k = (elems[rng.integers(len(elems))] for _ in range(3))
            assert pairing(g, g.add(x, y), k) == pytest.approx(
                pairing(g, x, k) * pairing(g, y, k), abs=1e-12
            )
            assert pairing(g, x, g.add(y, k)) == pytest.approx(
                pairing(g, x, y) * pairing(g, x, k), abs=1e-12
            )

    def test_out_of_range_coordinate(self):
        g = make_group([4])
        with pytest.raises(ValueError):
            pairing(g, (4,), (0,))
        with pytest.raises(ValueError):
            pairing(g, (0, 0), (0,))


class TestSubgroups:
    def test_generated_by_two_in_z4(self):
        g = make_group([4])
        sub = subgroup_from_generators(g, [(2,)])
        assert sub.elements.tolist() == [[0], [2]]

    def test_empty_generators_give_trivial(self):
        g = make_group([4])
        assert subgroup_from_generators(g, []).elements.tolist() == [[0]]

    def test_involution_closure_in_z2z2(self):
        g = make_group([2, 2])
        sub = subgroup_from_generators(g, [(1, 0)])
        assert sub.elements.tolist() == [[0, 0], [1, 0]]

    @pytest.mark.parametrize("orders", BATTERY_ORDERS)
    def test_lagrange_and_closure_exhaustive(self, orders):
        g = make_group(orders)
        for sub in all_subgroups(g):
            assert g.size % sub.size == 0
            assert g.zero() in sub
            for a in sub.elements:
                assert g.neg(a) in sub
                for b in sub.elements:
                    assert g.add(a, b) in sub

    def test_probes_are_the_generators_or_the_one_element(self):
        # a translation check probes the generators; the trivial subgroup has
        # none, so its one element stands in
        g = make_group([4, 2])
        assert all_subgroups(g)[0].probes == ((0, 0),)
        assert subgroup_from_generators(g, []).probes == ((0, 0),)
        assert subgroup_from_generators(g, [(2, 1), (0, 1)]).probes == ((2, 1), (0, 1))
        assert all(sub.probes == sub.generators for sub in all_subgroups(g)[1:])

    def test_subgroup_counts(self):
        # divisor counts for cyclic groups, five subgroups of the Klein group
        assert len(all_subgroups(make_group([4]))) == 3
        assert len(all_subgroups(make_group([2, 2]))) == 5
        assert len(all_subgroups(make_group([12]))) == 6


class TestLatticeSubgroups:
    @pytest.mark.parametrize("orders", list(BATTERY_ORDERS) + SWEEP_UP_TO_16, ids=str)
    def test_matches_closure_enumeration(self, orders):
        g = make_group(orders)
        assert [sub.elements.tolist() for sub in all_subgroups(g)] == closure_subgroups(g)

    @pytest.mark.parametrize(
        "orders, count", [([2] * 5, 374), ([2] * 6, 2825), ([3, 3, 3], 28)], ids=["Z2^5", "Z2^6", "Z3^3"]
    )
    def test_elementary_abelian_counts(self, orders, count):
        assert len(all_subgroups(make_group(orders))) == count

    @pytest.mark.parametrize("orders", WORKLOADS.SWEEP, ids=str)
    def test_hnf_invariants(self, orders):
        g = make_group(orders)
        for sub in all_subgroups(g):
            for h in (sub, annihilator(g, sub)):
                b = np.array(h.basis)
                pivots = np.diag(b)
                assert np.array_equal(b, np.triu(b))
                assert all(n % d == 0 for d, n in zip(pivots, orders))
                assert all(0 <= b[i, j] < pivots[j] for i in range(len(orders)) for j in range(i + 1, len(orders)))
                assert math.prod(n // d for d, n in zip(pivots, orders)) == h.size
                again = subgroup_from_generators(g, h.generators)
                assert np.array_equal(again.elements, h.elements) and again.basis == h.basis

    def test_generators_are_the_nonzero_hnf_rows(self):
        g = make_group([4, 4])
        sub = subgroup_from_generators(g, [(2, 2), (0, 2)])
        assert sub.generators == ((2, 2), (0, 2))
        assert sub.basis == ((2, 0), (0, 2))
        (listed,) = [s for s in all_subgroups(g) if s == sub]
        assert listed.generators == ((2, 0), (0, 2))
        assert all_subgroups(g)[0].generators == ()


class TestAnnihilator:
    def test_z4(self):
        g = make_group([4])
        gamma = subgroup_from_generators(g, [(2,)])
        assert annihilator(g, gamma).elements.tolist() == [[0], [2]]

    def test_z8_against_brute_force(self):
        g = make_group([8])
        gamma = subgroup_from_generators(g, [(2,)])
        # oracle: test all eight candidate characters numerically
        expected = [
            k
            for k in g.elements().tolist()
            if all(abs(pairing(g, t, k) - 1) < 1e-12 for t in gamma.elements)
        ]
        result = annihilator(g, gamma)
        assert result.elements.tolist() == expected == [[0], [4]]

    def test_z2z2_against_brute_force(self):
        g = make_group([2, 2])
        gamma = subgroup_from_generators(g, [(1, 0)])
        expected = [
            k
            for k in g.elements().tolist()
            if all(abs(pairing(g, t, k) - 1) < 1e-12 for t in gamma.elements)
        ]
        result = annihilator(g, gamma)
        assert result.elements.tolist() == expected == [[0, 0], [0, 1]]

    @pytest.mark.parametrize("orders", BATTERY_ORDERS)
    def test_size_product_and_biannihilator(self, orders):
        g = make_group(orders)
        for sub in all_subgroups(g):
            ann = annihilator(g, sub)
            assert ann.size * sub.size == g.size
            assert np.array_equal(annihilator(g, ann).elements, sub.elements)


class TestTransversal:
    def test_z4(self):
        g = make_group([4])
        h = subgroup_from_generators(g, [(2,)])
        assert transversal(g, h).tolist() == [[0], [1]]

    def test_z8(self):
        g = make_group([8])
        h = subgroup_from_generators(g, [(4,)])
        assert transversal(g, h).tolist() == [[0], [1], [2], [3]]

    def test_z2z2_against_coset_enumeration(self):
        g = make_group([2, 2])
        h = subgroup_from_generators(g, [(1, 0)])
        tr = transversal(g, h)
        # oracle: explicit coset list and minima
        cosets = [{(0, 0), (1, 0)}, {(0, 1), (1, 1)}]
        assert set(map(tuple, tr.tolist())) == {min(c) for c in cosets}
        assert tr.tolist() == [[0, 0], [0, 1]]

    @pytest.mark.parametrize("orders", BATTERY_ORDERS)
    def test_reps_are_coset_minima_and_total(self, orders):
        g = make_group(orders)
        for sub in all_subgroups(g):
            tr = transversal(g, sub)
            reps = tr.tolist()
            assert len(reps) * sub.size == g.size
            # with one rep per coset, every coset minimum a rep means the reps are the minima
            for x in g.elements().tolist():
                assert list(min(g.add(x, t) for t in sub.elements.tolist())) in reps


class TestLexConventions:
    """Transversals and annihilators against one-element-at-a-time scans."""

    @pytest.mark.parametrize("orders", BATTERY_ORDERS, ids=str)
    def test_battery(self, orders):
        g = make_group(orders)
        for sub in all_subgroups(g):
            self.check(g, sub)

    def test_bench_contexts(self):
        for g, sub in bench_contexts():
            self.check(g, sub)

    @staticmethod
    def check(g, sub):
        ann = annihilator(g, sub)
        assert ann.elements.tolist() == brute_annihilator(g, sub)
        for h in (sub, ann):
            tr = transversal(g, h)
            assert tr.tolist() == lex_scan_reps(g, h)
            assert tuple(tr[0].tolist()) == g.zero()


class TestElementSets:
    """Element sets are read-only int64 arrays; a subgroup is named by its HNF."""

    def test_subgroups_with_one_hnf_are_equal(self):
        g = make_group([12])
        subs = [subgroup_from_generators(g, gens) for gens in ([(4,)], [(8,)], [(4,), (8,)])]
        assert subs[0] == subs[1] == subs[2]
        assert len({hash(sub) for sub in subs}) == 1
        assert all(sub != subgroup_from_generators(g, [(2,)]) for sub in subs)

    @pytest.mark.parametrize("orders", WORKLOADS.SWEEP, ids=str)
    def test_all_subgroups_are_distinct(self, orders):
        subs = all_subgroups(make_group(orders))
        assert len(set(subs)) == len(subs)

    def test_element_sets_are_read_only(self, f2_ctx):
        g, gamma = f2_ctx.group, f2_ctx.gamma
        for rows in (g.elements(), gamma.elements, f2_ctx.omega, transversal(g, gamma)):
            assert rows.dtype == np.int64 and rows.ndim == 2
            with pytest.raises(ValueError):
                rows[0, 0] = 1

    def test_membership_agrees_with_the_elements(self, ctx):
        members = set(map(tuple, ctx.gamma.elements.tolist()))
        for x in ctx.group.elements().tolist():
            assert (x in ctx.gamma) == (tuple(x) in members)

    def test_rows_validate(self):
        g = make_group([3, 4])
        assert [g.validate(x) for x in g.elements()] == [tuple(x) for x in g.elements().tolist()]


Z8 = make_group([8])


@pytest.mark.parametrize(
    "call",
    [
        lambda: subgroup_from_generators(Z8, [(2.9,)]),
        lambda: make_group([2.7, True]),
        lambda: GroupSpec((4.0,)),
        lambda: translate(Z8, np.zeros(8), (1.5,)),
        lambda: pairing(Z8, (1.9,), (True,)),
        lambda: determining_function(fiber_context(Z8, subgroup_from_generators(Z8, [(2,)])), (4.2,)),
    ],
    ids=["subgroup_from_generators", "make_group", "GroupSpec", "translate", "pairing", "determining_function"],
)
def test_only_integers_are_elements_or_orders(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


class TestTranslate:
    def test_zero_shift_is_identity(self):
        g = make_group([4])
        rng = np.random.default_rng(0)
        f = rand_signal(rng, 4)
        assert np.array_equal(translate(g, f, (0,)), f)

    def test_delta_shifts_to_offset(self):
        g = make_group([4])
        assert np.array_equal(translate(g, delta(g, (0,)), (2,)), delta(g, (2,)))

    def test_norm_preserved(self):
        g = make_group([2, 2])
        rng = np.random.default_rng(1)
        f = rand_signal(rng, 4)
        assert np.linalg.norm(translate(g, f, (1, 1))) == np.linalg.norm(f)

    def test_composition_exact(self):
        g = make_group([8])
        rng = np.random.default_rng(2)
        f = rand_signal(rng, 8)
        for s in g.elements():
            for t in g.elements():
                lhs = translate(g, translate(g, f, t), s)
                rhs = translate(g, f, g.add(s, t))
                assert np.array_equal(lhs, rhs)

    def test_matrix_matches_function(self):
        g = make_group([12])
        rng = np.random.default_rng(3)
        f = rand_signal(rng, 12)
        for t in [(1,), (5,), (11,)]:
            assert np.allclose(translation_matrix(g, t) @ f, translate(g, f, t))

    def test_length_mismatch(self):
        g = make_group([4])
        with pytest.raises(ValueError):
            translate(g, np.zeros(3), (1,))
