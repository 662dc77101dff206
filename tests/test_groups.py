from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covspec import (
    CapExceededError,
    Permutation,
    closure,
    fano_generators,
    fano_triple,
    is_gassmann_sunada,
    is_jump_equivalent,
    load_generators,
    schreier_graph,
    stabilizer,
    subgroup_generated,
)
from covspec import groups as groups_mod
from covspec.groups import (
    FANO_LABELS,
    FANO_MATRIX_A,
    FANO_MATRIX_B,
    FiniteGroup,
    Subgroup,
    _apply_row,
    _matrix_line_perm,
    _matrix_point_perm,
    _meet_subgroups,
)

from oracles import (
    action_is_free,
    classes_by_conjugation,
    closure_by_permutations,
    det,
    jump_equivalence_by_patterns,
    left_action_by_products,
    regular_cayley_by_products,
    subgroup_by_closure,
)


def cycle_map(perm, labels):
    return {labels[i]: labels[perm(i)] for i in range(perm.degree)}


def s3():
    return closure([Permutation([1, 0, 2]), Permutation([1, 2, 0])])


class TestPermutation:
    def test_identity(self):
        e = Permutation.identity(4)
        assert e.images == (0, 1, 2, 3) and e(2) == 2

    def test_not_bijection_rejected(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_apply_then_composition(self):
        p = Permutation([1, 2, 0])
        q = Permutation([0, 2, 1])
        assert (p * q)(0) == q(p(0))

    def test_inverse_and_order(self):
        p = Permutation([1, 2, 0])
        assert p * p.inverse() == Permutation.identity(3)
        assert closure([p]).order == 3


class TestClosure:
    def test_identity_generator(self):
        G = closure([Permutation.identity(3)])
        assert G.order == 1

    def test_cyclic_three(self):
        G = closure([Permutation([1, 2, 0])])
        assert G.order == 3
        assert len(G.conjugacy_classes()) == 3  # abelian: all singletons

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            closure([Permutation([1, 0]), Permutation([1, 2, 0])])

    def test_cap(self):
        with pytest.raises(CapExceededError):
            closure([Permutation([1, 2, 0])], cap=2)

    def test_default_cap_is_read_when_closure_runs(self, monkeypatch):
        monkeypatch.setattr(groups_mod, "DEFAULT_ORDER_CAP", 2)
        with pytest.raises(CapExceededError):
            closure([Permutation([1, 2, 0])])

    def test_fano_point_group(self, fano):
        G = closure([fano.point_perms["A"], fano.point_perms["B"]])
        assert G.order == 168
        assert len(G.conjugacy_classes()) == 6
        # orbit-stabilizer: the action is transitive on 7 points
        orbit = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for s in G.generators:
                if s(v) not in orbit:
                    orbit.add(s(v))
                    frontier.append(s(v))
        assert len(orbit) == 7
        assert stabilizer(G, 0).order * 7 == G.order

    def test_class_stability_under_conjugation(self, fano):
        G = fano.group
        rng = random.Random(7)
        sample = [G.elements[rng.randrange(G.order)] for _ in range(5)]
        for cls in G.conjugacy_classes():
            members = {G.elements[i] for i in cls}
            for g in list(G.generators) + sample:
                assert {x.conjugate_by(g) for x in members} == members

    def test_class_sizes(self, fano):
        sizes = sorted(len(c) for c in fano.group.conjugacy_classes())
        assert sizes == [1, 21, 24, 24, 42, 56]


class TestFanoActions:
    def test_point_action_of_a(self, fano):
        m = cycle_map(fano.point_perms["A"], fano.labels)
        assert m["100"] == "110" and m["110"] == "111"
        assert m["111"] == "101" and m["101"] == "100"
        assert m["010"] == "001" and m["001"] == "010"
        assert m["011"] == "011"

    def test_point_action_of_b_has_order_three(self, fano):
        m = cycle_map(fano.point_perms["B"], fano.labels)
        assert m["100"] == "010" and m["010"] == "001" and m["001"] == "100"
        assert closure([fano.point_perms["B"]]).order == 3

    def test_line_action_of_a(self, fano):
        m = cycle_map(fano.line_perms["A"], fano.labels)
        assert m["100"] == "100"
        assert m["011"] == "111" and m["111"] == "011"
        assert m["010"] == "001" and m["001"] == "110"
        assert m["110"] == "101" and m["101"] == "010"

    def test_actions_transitive_and_faithful(self, fano):
        for perms in (fano.point_perms, fano.line_perms):
            reach = {0}
            frontier = [0]
            while frontier:
                v = frontier.pop()
                for p in perms.values():
                    if p(v) not in reach:
                        reach.add(p(v))
                        frontier.append(p(v))
            assert len(reach) == 7
        # faithful: the line action of the 168 elements keeps them distinct
        assert closure(list(fano.line_perms.values())).order == 168

    def test_matrices_invertible_and_compatible(self, fano):
        assert det(FANO_MATRIX_A) % 2 == det(FANO_MATRIX_B) % 2 == 1
        # row i of AB is row i of A times B
        ab = tuple(_apply_row(row, FANO_MATRIX_B) for row in FANO_MATRIX_A)
        prodperm = fano.point_perms["A"] * fano.point_perms["B"]
        assert _matrix_point_perm(ab) == prodperm

    def test_singular_matrix(self):
        assert det(((1, 1, 0), (1, 1, 0), (0, 0, 1))) % 2 == 0

    def test_triple_matches_the_14_point_closure(self):
        """fano_triple against GL(3,2) closed on the points 0-6 and the lines
        7-13 side by side, where both stabilizers are point stabilizers."""
        G, H1, H2 = fano_triple()
        point, line = fano_generators()
        G14 = closure(
            [Permutation(point[n].images + tuple(7 + j for j in line[n].images)) for n in point]
        )
        i = FANO_LABELS.index("100")
        K1, K2 = stabilizer(G14, i), stabilizer(G14, 7 + i)
        assert [g.images for g in G.elements] == [g.images[:7] for g in G14.elements]
        assert (H1.members, H2.members) == (K1.members, K2.members)
        assert is_gassmann_sunada(G, H1, H2).rows == is_gassmann_sunada(G14, K1, K2).rows
        assert is_jump_equivalent(G, H1, H2) == is_jump_equivalent(G14, K1, K2)


class TestSubgroups:
    def test_empty_generating_set(self, fano):
        assert subgroup_generated(fano.group, []).members == frozenset([0])

    def test_cyclic(self, fano):
        g = fano.group.elements[17]
        assert subgroup_generated(fano.group, [g]).order == closure([g]).order

    def test_whole_group(self, fano):
        H = subgroup_generated(fano.group, list(fano.group.generators))
        assert H.order == 168

    def test_idempotent_and_monotone(self, fano):
        G = fano.group
        rng = random.Random(3)
        small = [G.elements[rng.randrange(G.order)] for _ in range(2)]
        bigger = small + [G.elements[rng.randrange(G.order)]]
        H1 = subgroup_generated(G, small)
        H2 = subgroup_generated(G, [G.elements[i] for i in sorted(H1.members)])
        assert H1.members == H2.members  # idempotent
        assert H1.members <= subgroup_generated(G, bigger).members

    def test_duplicate_redundant_and_reordered_generators(self, fano):
        G = fano.group
        a, b = [G.elements[i] for i in sorted(fano.h1.members)][5:7]
        expected = subgroup_generated(G, [a, b]).members
        assert 1 < len(expected) < G.order
        for gens in ([b, a], [a, a, b, a, b], [G.elements[0], a, b, a * b], [a * b, b.inverse(), a]):
            assert subgroup_generated(G, gens).members == expected

    def test_foreign_element_rejected(self, fano):
        for foreign in ([1, 0, 2, 3, 4, 5, 6], [1, 0, 2]):
            with pytest.raises(ValueError, match="element not in group"):
                subgroup_generated(fano.group, [fano.group.elements[3], Permutation(foreign)])

    def test_stabilizer_orders(self, fano):
        assert fano.h1.order == 24
        assert fano.h2.order == 24

    def test_constructed_subgroups_are_closed(self, fano):
        G, g = fano.group, fano.group.elements[5]
        for H in (fano.h1, fano.h2, subgroup_generated(G, [g])):
            assert H.members == subgroup_by_closure(G, [G.elements[i] for i in H.members])

    def test_stabilizer_trivial_group(self):
        G = closure([Permutation.identity(3)])
        assert stabilizer(G, 1).order == 1

    def test_stabilizer_point_range(self, fano):
        with pytest.raises(ValueError):
            stabilizer(fano.group, 9)


class TestGassmannSunada:
    def test_equal_subgroups(self, fano):
        H = fano.h1
        assert is_gassmann_sunada(fano.group, H, H).verdict

    def test_fano_triple(self, fano):
        H1, H2 = fano.h1, fano.h2
        assert H1.members != H2.members
        rep = is_gassmann_sunada(fano.group, H1, H2)
        assert rep.verdict
        assert rep.rows == ((1, 1, 1), (42, 6, 6), (56, 8, 8), (21, 9, 9), (24, 0, 0), (24, 0, 0))
        assert sum(a for _, a, _ in rep.rows) == H1.order == H2.order == 24

    def test_symmetric(self, fano):
        H1, H2 = fano.h1, fano.h2
        a = is_gassmann_sunada(fano.group, H1, H2)
        b = is_gassmann_sunada(fano.group, H2, H1)
        assert a.verdict == b.verdict

    def test_s3_counterexample(self):
        G = s3()
        H1 = subgroup_generated(G, [Permutation([1, 0, 2])])
        H2 = subgroup_generated(G, [Permutation([1, 2, 0])])
        rep = is_gassmann_sunada(G, H1, H2)
        assert not rep.verdict
        assert any(a != b for _, a, b in rep.rows)


class TestJumpEquivalence:
    def test_reflexive(self, fano):
        H = fano.h1
        rep = is_jump_equivalent(fano.group, H, H)
        assert rep.verdict and rep.witness is None
        assert rep.stable_subset_count == 64

    def test_conjugate_subgroups(self, fano):
        G, H = fano.group, fano.h1
        g = G.elements[100]
        conjugate = frozenset(G.index[G.elements[i].conjugate_by(g).images] for i in H.members)
        assert is_jump_equivalent(G, Subgroup(G, conjugate), H).verdict

    def test_fano_triple_verdict(self, fano):
        # recorded as computed by the exhaustive check over all 64 stable
        # subsets; the two stabilizers are not conjugate, yet equivalent
        H1, H2 = fano.h1, fano.h2
        rep = is_jump_equivalent(fano.group, H1, H2)
        assert rep.verdict
        assert is_jump_equivalent(fano.group, H2, H1).verdict  # symmetric

    def test_s3_failure_with_witness(self):
        G = s3()
        H1 = subgroup_generated(G, [Permutation([1, 0, 2])])
        H2 = subgroup_generated(G, [Permutation([1, 2, 0])])
        rep = is_jump_equivalent(G, H1, H2)
        assert not rep.verdict
        assert rep.witness == ((), (1,))
        S, T = rep.witness
        classes = G.conjugacy_classes()
        for H in (H1, H2):
            pats = []
            for chosen in (S, T):
                stable = {i for k in chosen for i in classes[k]}
                gens = [G.elements[i] for i in (H.members & stable)]
                pats.append(subgroup_generated(G, gens).members)
            if H is H1:
                eq1 = pats[0] == pats[1]
            else:
                eq2 = pats[0] == pats[1]
        assert eq1 != eq2

    def test_class_cap(self, fano, monkeypatch):
        monkeypatch.setattr(groups_mod, "CONJUGACY_CLASS_CAP", 3)
        with pytest.raises(CapExceededError):
            is_jump_equivalent(fano.group, fano.h1, fano.h2)

    def test_witness_search_is_linear_in_the_masks(self, monkeypatch):
        # the cyclic group of order 10 has 10 classes; patched patterns that
        # differ only at the last two masks force the longest witness search
        G = closure([Permutation([(k + 1) % 10 for k in range(10)])])
        H1 = subgroup_generated(G, [G.elements[5]])
        H2 = subgroup_generated(G, [G.elements[2]])
        comparisons = [0]

        class Counted:
            def __eq__(self, other):
                comparisons[0] += 1
                return self is other

            def __hash__(self):
                return 0  # every lookup in a hashed container compares too

        x, y, z, w = (Counted() for _ in range(4))
        n = 1 << 10
        patterns = {H1: [x] * (n - 2) + [y, z], H2: [x] * (n - 2) + [w, w]}
        monkeypatch.setattr(groups_mod, "_meet_subgroups", lambda G, H: patterns[H])
        rep = is_jump_equivalent(G, H1, H2)
        assert not rep.verdict
        assert rep.witness == (tuple(range(1, 10)), tuple(range(10)))
        assert comparisons[0] <= 16 * n


def _gl32_on_points_and_lines(rng):
    """GL(3,2) on the 7 points and 7 lines (shifted to 7-13), closed from a
    random generating pair of invertible matrices."""
    while True:
        mats = []
        while len(mats) < 2:
            M = tuple(tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(3))
            if det(M) % 2:
                mats.append(M)
        gens = [
            Permutation(_matrix_point_perm(M).images + tuple(7 + j for j in _matrix_line_perm(M).images))
            for M in mats
        ]
        G = closure(gens)
        if G.order == 168:
            return G


class TestIndexSpaceAgainstOracles:
    """Subgroups, classes and jump-equivalence reports match the
    Permutation-product paths kept in tests/oracles.py."""

    def check(self, G, gen_sets, pairs):
        assert G.conjugacy_classes() == classes_by_conjugation(G)
        for gens in gen_sets:
            assert subgroup_generated(G, gens).members == subgroup_by_closure(G, gens)
        for H1, H2 in pairs:
            rep = is_jump_equivalent(G, H1, H2)
            expected = jump_equivalence_by_patterns(G, H1, H2)
            assert (rep.verdict, rep.witness, rep.stable_subset_count) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_gl32_random_generating_pairs(self, seed):
        rng = random.Random(seed)
        G = _gl32_on_points_and_lines(rng)
        x, g = rng.sample(G.elements, 2)
        H1, H2 = stabilizer(G, rng.randrange(7)), stabilizer(G, 7 + rng.randrange(7))
        K1, K2 = subgroup_generated(G, [x]), subgroup_generated(G, [x.conjugate_by(g)])
        assert H1.order == H2.order == 24 and K1.order == K2.order
        H1_elements = [G.elements[i] for i in sorted(H1.members)]
        gen_sets = [[], [x], [x, g], G.generators, rng.sample(G.elements, 3), H1_elements]
        self.check(G, gen_sets, [(H1, H2), (K1, K2)])

    @pytest.mark.parametrize("seed", range(18))
    def test_random_subgroups_of_s3_to_s5(self, seed):
        # degree 3, 4, 5 in turn; seeds 0-2 and 9-11 (a third) compare a
        # subgroup with a conjugate of it
        rng = random.Random(seed)
        n = 3 + seed % 3
        G = closure([Permutation([1, 0, *range(2, n)]), Permutation([*range(1, n), 0])])
        conjugate = seed // 3 % 3 == 0
        gens1 = rng.sample(G.elements, rng.randint(int(conjugate), 2))
        H1 = subgroup_generated(G, gens1)
        if conjugate:
            g = rng.choice(G.elements)
            gens2 = [x.conjugate_by(g) for x in gens1]
        else:
            gens2 = rng.sample(G.elements, rng.randint(0, 2))
        H2 = subgroup_generated(G, gens2)
        self.check(G, [gens1, gens2, gens1 + gens2], [(H1, H2)])


@given(st.integers(3, 6).flatmap(lambda n: st.lists(
    st.permutations(range(n)), min_size=1, max_size=2)), st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_random_groups_with_cyclic_subgroups_match_the_oracles(images, data):
    # random cyclic pairs are mostly not jump equivalent, so unlike the
    # seeded pairs above these reach the witness search
    G = closure([Permutation(p) for p in images])
    classes = classes_by_conjugation(G)
    assume(len(classes) <= 8)
    assert G.conjugacy_classes() == classes
    x, y = (G.elements[data.draw(st.integers(0, G.order - 1))] for _ in range(2))
    for gens in ([x], [y], [x, y]):
        assert subgroup_generated(G, gens).members == subgroup_by_closure(G, gens)
    H1, H2 = subgroup_generated(G, [x]), subgroup_generated(G, [y])
    rep = is_jump_equivalent(G, H1, H2)
    assert (rep.verdict, rep.witness, rep.stable_subset_count) == jump_equivalence_by_patterns(
        G, H1, H2
    )
    # the subgroup at every class mask, grown from a smaller mask's
    for H in (H1, H2):
        expected = [
            subgroup_by_closure(G, [G.elements[i] for k, cls in enumerate(classes)
                                    if mask >> k & 1 for i in cls if i in H.members])
            for mask in range(1 << len(classes))
        ]
        assert _meet_subgroups(G, H) == expected


def _seeded_generators(seed):
    """Seeds 0-7: two or three random permutations of degree 3, 4, 5, 6 in
    turn; seeds 8-10: a random generating pair of GL(3,2) on 14 points."""
    rng = random.Random(seed)
    if seed >= 8:
        return _gl32_on_points_and_lines(rng).generators
    n = 3 + seed % 4
    return [Permutation(rng.sample(range(n), n)) for _ in range(rng.randint(2, 3))]


class TestProductRuleAgainstOracles:
    """closure, generated and conjugate subgroups and the group graphs
    match Permutation-product references from tests/oracles.py."""

    @pytest.mark.parametrize("seed", range(11))
    def test_closure_order_and_cap(self, seed):
        gens = _seeded_generators(seed)
        G = closure(gens)
        assert G.elements == closure_by_permutations(gens, cap=G.order)
        closure(gens, cap=G.order)
        for k in (G.order - 1, G.order // 2):
            with pytest.raises(CapExceededError):
                closure_by_permutations(gens, cap=k)
            with pytest.raises(CapExceededError, match=f"exceeds cap {k}$"):
                closure(gens, cap=k)

    @pytest.mark.parametrize("seed", range(11))
    def test_subgroup_helpers(self, seed):
        rng = random.Random(100 + seed)
        G = closure(_seeded_generators(seed))
        for _ in range(4):
            gens = rng.sample(G.elements, rng.randint(1, 2))
            H = subgroup_generated(G, gens)
            assert H.members == subgroup_by_closure(G, gens)
            # a conjugate of a subgroup is a subgroup of the same order
            g = rng.choice(G.elements)
            conjugates = [G.elements[i].conjugate_by(g) for i in H.members]
            expected = frozenset(G.index[x.images] for x in conjugates)
            assert len(expected) == H.order
            assert subgroup_by_closure(G, conjugates) == expected

    @pytest.mark.parametrize("seed", range(11))
    def test_group_graphs(self, seed):
        # the Schreier graph of the trivial subgroup is G's own Cayley graph,
        # and G acts on it freely from the left
        rng = random.Random(200 + seed)
        G = closure(_seeded_generators(seed))
        gens = [("A", G.generators[0]), ("B", rng.choice(G.elements))]
        cayley = schreier_graph(G, subgroup_generated(G, []), gens)
        reference = regular_cayley_by_products(G, gens)
        assert (cayley.edges, cayley.colors) == (reference.edges, reference.colors)
        if G.order <= 168:  # 720 x 720 products would only slow the suite
            assert action_is_free(cayley, left_action_by_products(G)[1:])


def test_triple_op_group_products_stay_bounded(monkeypatch):
    # the group calls of one triple op of the benchmark, on a fresh
    # GL(3,2); composing conjugates directly and growing each meet's
    # subgroup from the previous one took this op from 3244 products to 1356
    calls = 0
    product = FiniteGroup.product

    def counting(self, i, j):
        nonlocal calls
        calls += 1
        return product(self, i, j)

    rng = random.Random(1)
    G = _gl32_on_points_and_lines(rng)
    monkeypatch.setattr(FiniteGroup, "product", counting)
    H1, H2 = stabilizer(G, rng.randrange(7)), stabilizer(G, 7 + rng.randrange(7))
    assert is_gassmann_sunada(G, H1, H2).verdict and is_jump_equivalent(G, H1, H2).verdict
    x, g = rng.sample(G.elements, 2)
    K1, K2 = subgroup_generated(G, [x]), subgroup_generated(G, [x.conjugate_by(g)])
    assert is_jump_equivalent(G, K1, K2).verdict
    for H in (H1, H2):
        schreier_graph(G, H, [("A", G.generators[0]), ("B", G.generators[1])])
    assert calls <= 2000


class TestGeneratorFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gens.txt"
        path.write_text("# two generators\n1 0 2\n1 2 0\n")
        gens = load_generators(path)
        assert closure(gens).order == 6

    def test_bad_line(self, tmp_path):
        path = tmp_path / "gens.txt"
        path.write_text("1 0 x\n")
        with pytest.raises(ValueError):
            load_generators(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "gens.txt"
        path.write_text("\n")
        with pytest.raises(ValueError):
            load_generators(path)
