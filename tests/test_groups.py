from __future__ import annotations

import random

import pytest

from covspec import (
    CapExceededError,
    GF2Matrix,
    Permutation,
    closure,
    is_gassmann_sunada,
    is_jump_equivalent,
    load_generators,
    stabilizer,
    subgroup_generated,
)
from covspec.groups import FANO_MATRIX_A, FANO_MATRIX_B


def cycle_map(perm, labels):
    return {labels[i]: labels[perm(i)] for i in range(perm.degree)}


def s3():
    return closure([Permutation([1, 0, 2]), Permutation([1, 2, 0])])


class TestPermutation:
    def test_identity(self):
        e = Permutation.identity(4)
        assert e.is_identity() and e(2) == 2

    def test_not_bijection_rejected(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_apply_then_composition(self):
        p = Permutation([1, 2, 0])
        q = Permutation([0, 2, 1])
        assert (p * q)(0) == q(p(0))

    def test_inverse_and_order(self):
        p = Permutation([1, 2, 0])
        assert (p * p.inverse()).is_identity()
        assert p.order() == 3


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
        assert fano.point_perms["B"].order() == 3

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
        # faithful: no nontrivial element acts as the identity on lines
        assert all(
            not lp.is_identity()
            for g, lp in zip(fano.group.elements[1:], fano.line_action_of[1:])
        )

    def test_matrices_invertible_and_compatible(self, fano):
        assert FANO_MATRIX_A.is_invertible() and FANO_MATRIX_B.is_invertible()
        ab = FANO_MATRIX_A * FANO_MATRIX_B
        prodperm = fano.point_perms["A"] * fano.point_perms["B"]
        from covspec.groups import _matrix_point_perm

        assert _matrix_point_perm(ab) == prodperm

    def test_singular_matrix(self):
        assert GF2Matrix([(1, 1, 0), (1, 1, 0), (0, 0, 1)]).det() == 0


class TestSubgroups:
    def test_empty_generating_set(self, fano):
        assert subgroup_generated(fano.group, []).order == 1

    def test_cyclic(self, fano):
        g = fano.group.elements[17]
        assert subgroup_generated(fano.group, [g]).order == g.order()

    def test_whole_group(self, fano):
        H = subgroup_generated(fano.group, list(fano.group.generators))
        assert H.order == 168

    def test_idempotent_and_monotone(self, fano):
        G = fano.group
        rng = random.Random(3)
        small = [G.elements[rng.randrange(G.order)] for _ in range(2)]
        bigger = small + [G.elements[rng.randrange(G.order)]]
        H1 = subgroup_generated(G, small)
        H2 = subgroup_generated(G, H1.element_list())
        assert H1.members == H2.members  # idempotent
        assert H1.members <= subgroup_generated(G, bigger).members

    def test_foreign_element_rejected(self, fano):
        with pytest.raises(ValueError):
            subgroup_generated(fano.group, [Permutation([1, 0, 2, 3, 4, 5, 6])])

    def test_stabilizer_orders(self, fano):
        assert fano.point_stabilizer("100").order == 24
        assert fano.line_stabilizer("100").order == 24

    def test_constructed_subgroups_are_closed(self, fano):
        assert fano.point_stabilizer().is_closed()
        assert fano.line_stabilizer().is_closed()
        g = fano.group.elements[5]
        assert subgroup_generated(fano.group, [g]).is_closed()
        assert fano.point_stabilizer().conjugated_by(g).is_closed()

    def test_stabilizer_trivial_group(self):
        G = closure([Permutation.identity(3)])
        assert stabilizer(G, 1).order == 1

    def test_stabilizer_point_range(self, fano):
        with pytest.raises(ValueError):
            stabilizer(fano.group, 9)


class TestGassmannSunada:
    def test_equal_subgroups(self, fano):
        H = fano.point_stabilizer()
        assert is_gassmann_sunada(fano.group, H, H).verdict

    def test_fano_triple(self, fano):
        H1, H2 = fano.point_stabilizer(), fano.line_stabilizer()
        assert H1.members != H2.members
        rep = is_gassmann_sunada(fano.group, H1, H2)
        assert rep.verdict
        assert rep.rows == ((1, 1, 1), (42, 6, 6), (56, 8, 8), (21, 9, 9), (24, 0, 0), (24, 0, 0))
        assert sum(a for _, a, _ in rep.rows) == H1.order == H2.order == 24
        assert "class size" in rep.table()

    def test_symmetric(self, fano):
        H1, H2 = fano.point_stabilizer(), fano.line_stabilizer()
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
        H = fano.point_stabilizer()
        rep = is_jump_equivalent(fano.group, H, H)
        assert rep.verdict and rep.witness is None
        assert rep.stable_subset_count == 64

    def test_conjugate_subgroups(self, fano):
        H = fano.point_stabilizer()
        g = fano.group.elements[100]
        assert is_jump_equivalent(fano.group, H.conjugated_by(g), H).verdict

    def test_fano_triple_verdict(self, fano):
        # recorded as computed by the exhaustive check over all 64 stable
        # subsets; the two stabilizers are not conjugate, yet equivalent
        H1, H2 = fano.point_stabilizer(), fano.line_stabilizer()
        rep = is_jump_equivalent(fano.group, H1, H2)
        assert rep.verdict
        assert is_jump_equivalent(fano.group, H2, H1).verdict  # symmetric

    def test_s3_failure_with_witness(self):
        G = s3()
        H1 = subgroup_generated(G, [Permutation([1, 0, 2])])
        H2 = subgroup_generated(G, [Permutation([1, 2, 0])])
        rep = is_jump_equivalent(G, H1, H2)
        assert not rep.verdict
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

    def test_class_cap(self, fano):
        with pytest.raises(CapExceededError):
            is_jump_equivalent(
                fano.group, fano.point_stabilizer(), fano.line_stabilizer(), class_cap=3
            )


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
