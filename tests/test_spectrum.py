from __future__ import annotations

from fractions import Fraction

import pytest

from covspec import (
    ColoredGraph,
    IntLattice,
    MetricGraph,
    cayley_graph,
    covering_spectrum,
    covering_spectrum_lattice,
    enumerate_classes,
    jump_set,
    length_spectrum_containment,
)
from covspec.spectrum import BudgetExhaustedError, UndecidedOracleError

from oracles import lattice_jump_scan

LA, LB = Fraction(2), Fraction(5, 2)

X1_SPECTRUM = [Fraction(1), Fraction(5, 4), Fraction(2), Fraction(9, 4),
               Fraction(13, 4), Fraction(7, 2), Fraction(15, 4)]
X2_SPECTRUM = [Fraction(1), Fraction(5, 4), Fraction(2), Fraction(9, 4),
               Fraction(7, 2), Fraction(4)]


class _LatticeOracle:
    def __init__(self, n):
        self.lat = IntLattice(n)
        self.units = [[int(i == j) for j in range(n)] for i in range(n)]

    def contains(self, v):
        return self.lat.contains(v)

    def add(self, v):
        self.lat.add(v)

    def saturated(self):
        return self.lat.contains_all(self.units)


class TestJumpSet:
    def test_single_value(self):
        oracle = _LatticeOracle(1)
        jumps, wits, last = jump_set([(Fraction(5), [1])], oracle)
        assert jumps == [Fraction(5)] and last == Fraction(5)

    def test_multiples_generate_nothing_new(self):
        items = [(Fraction(k), [k]) for k in (2, 4, 6, 8)]
        jumps, _, _ = jump_set(items, _LatticeOracle(1))
        assert jumps == [Fraction(2)]

    def test_rectangular_lattice(self):
        items = []
        for a in range(-4, 5):
            for b in range(-3, 4):
                if (a, b) != (0, 0):
                    q = Fraction(4 * a * a + 9 * b * b)
                    items.append((q, [a, b]))
        items.sort(key=lambda t: t[0])
        jumps, _, _ = jump_set(items, _LatticeOracle(2))
        assert jumps == [Fraction(4), Fraction(9)]  # squared norms 2^2, 3^2

    def test_same_level_tested_before_added(self):
        # two equal vectors at one level: only one jump, not two
        items = [(Fraction(1), [1]), (Fraction(1), [-1]), (Fraction(4), [2])]
        jumps, _, _ = jump_set(items, _LatticeOracle(1))
        assert jumps == [Fraction(1)]

    def test_stops_at_saturation(self):
        # an endless stream: the walk must stop at the first saturated level
        def endless():
            k = 2
            while True:
                yield Fraction(k), [k]
                k += 1

        jumps, wits, last = jump_set(endless(), _LatticeOracle(1))
        assert jumps == [Fraction(2), Fraction(3)] and wits == [[2], [3]]
        assert last == Fraction(3)

    def test_unsorted_items_rejected(self):
        items = [(Fraction(4), [4]), (Fraction(2), [2])]
        with pytest.raises(ValueError):
            jump_set(items, _LatticeOracle(1))


class TestGraphSpectra:
    def test_wedge(self, wedge23):
        spectrum, report = covering_spectrum(wedge23)
        assert list(spectrum.values) == [Fraction(1), Fraction(3, 2)]
        assert report.jump_values() == [Fraction(2), Fraction(3)]
        assert report.verify_all_certificates(wedge23)

    def test_wedge_first_jump_is_shortest_class(self, wedge23):
        _, report = covering_spectrum(wedge23)
        shortest = min(c.length for c in enumerate_classes(wedge23, Fraction(10)))
        assert report.jump_values()[0] == shortest

    def test_jumps_strictly_increasing(self, fano_run):
        for report in (fano_run(LA, LB)[2], fano_run(LA, LB)[5]):
            vals = report.jump_values()
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_fano_spectra(self, fano_run):
        _, s1, r1, _, s2, r2 = fano_run(LA, LB)
        assert list(s1.values) == X1_SPECTRUM
        assert list(s2.values) == X2_SPECTRUM
        assert Fraction(13, 4) in s1 and Fraction(13, 4) not in s2
        for s, r in ((s1, r1), (s2, r2)):
            assert list(s.values) == [j / 2 for j in r.jump_values()]

    def test_fano_second_length_pair(self, fano_run):
        _, s1, _, _, s2, _ = fano_run(Fraction(2), Fraction(9, 4))
        assert Fraction(25, 8) in s1 and Fraction(25, 8) not in s2

    def test_certificates_reverify(self, fano_run):
        X1, _, r1, X2, _, r2 = fano_run(LA, LB)
        assert r1.verify_all_certificates(X1)
        assert r2.verify_all_certificates(X2)

    def test_rescaling_covariance(self, fano_graphs):
        g1, _ = fano_graphs
        base, _ = covering_spectrum(MetricGraph(g1, {"A": LA, "B": LB}))
        for c in (Fraction(1, 2), Fraction(3), Fraction(7, 5)):
            scaled, _ = covering_spectrum(MetricGraph(g1, {"A": LA * c, "B": LB * c}))
            assert list(scaled.values) == [v * c for v in base.values]

    def test_isometry_invariance_under_relabeling(self, fano, fano_run):
        # rebuild the point graph with permuted vertex order: same spectrum
        pi = [4, 2, 6, 0, 3, 5, 1]
        perms = []
        for name in fano.generator_names:
            p = fano.point_perms[name]
            images = [0] * 7
            for v in range(7):
                images[pi[v]] = pi[p(v)]
            from covspec import Permutation

            perms.append((name, Permutation(images)))
        labels = [""] * 7
        for v in range(7):
            labels[pi[v]] = fano.labels[v]
        graph = cayley_graph(perms, labels)
        spectrum, _ = covering_spectrum(MetricGraph(graph, {"A": LA, "B": LB}))
        assert list(spectrum.values) == list(fano_run(LA, LB)[1].values)

    def test_double_covspec_inside_marked_lengths(self, wedge23, fano_run):
        s, r = covering_spectrum(wedge23)
        assert length_spectrum_containment(r, s)
        X1, s1, r1, X2, s2, r2 = fano_run(LA, LB)
        assert length_spectrum_containment(r1, s1)
        assert length_spectrum_containment(r2, s2)

    def test_simply_connected(self):
        graph = ColoredGraph(["v"], [], [])
        spectrum, report = covering_spectrum(MetricGraph(graph, {}))
        assert spectrum.values == ()
        assert report.termination == {"mode": "simply_connected"}

    def test_budget_at_saturation_level(self, wedge23):
        # the wedge saturates at 3, where both generators are relators
        spectrum, report = covering_spectrum(wedge23, budget=Fraction(3))
        assert list(spectrum.values) == [Fraction(1), Fraction(3, 2)]
        assert report.processed_to == Fraction(3)

    def test_budget_exhaustion(self, wedge23):
        with pytest.raises(BudgetExhaustedError):
            covering_spectrum(wedge23, budget=Fraction(5, 2))

    def test_stops_at_saturation_below_a_high_budget(self, fano_run, fano_graphs):
        _, s1, r1, _, _, _ = fano_run(LA, LB)
        X1 = MetricGraph(fano_graphs[0], {"A": LA, "B": LB})
        spectrum, report = covering_spectrum(X1, budget=Fraction(40))
        assert spectrum == s1 and report.processed_to == r1.processed_to
        assert report.processed_to < Fraction(40)

    def test_jump_records_follow_witness_queries(self, fano_run):
        X1, _, r1, _, _, _ = fano_run(LA, LB)
        for j in r1.jumps:
            q = next(q for q in r1.queries if q.target_loop == j.witness)
            assert q.certificate.verdict == "non_member"
            assert (q.length, q.target_name, q.certificate) == (
                j.value, j.witness_name, j.certificate
            )

    def test_undecided_oracle_aborts(self, wedge23, monkeypatch):
        from covspec import spectrum as spectrum_mod
        from covspec.words import MembershipCertificate

        def always_undecided(*args, **kwargs):
            return MembershipCertificate("undecided", "exhausted", {"budgets": {}})

        monkeypatch.setattr(spectrum_mod, "decide_membership", always_undecided)
        with pytest.raises(UndecidedOracleError) as err:
            covering_spectrum(wedge23)
        assert err.value.length == Fraction(2)

    def test_relator_sets_nested(self, fano_run):
        _, _, r1, _, _, _ = fano_run(LA, LB)
        lengths = [c.length for c in r1.classes]
        assert lengths == sorted(lengths)  # saturation adds classes in order

    def test_jump_iff_strict_vs_closed_closures_differ(self, fano_run):
        # at every realized level, the recorded verdicts say whether
        # <m < L> and <m <= L> coincide; jumps are exactly the levels
        # where they do not
        _, s1, r1, _, _, _ = fano_run(LA, LB)
        jump_levels = set(r1.jump_values())
        for L in r1.realized_lengths():
            queried = [q for q in r1.queries if q.length == L]
            outside = any(q.certificate.verdict == "non_member" for q in queried)
            assert outside == (L in jump_levels)


class TestLatticeSpectra:
    def test_rectangle_2_3(self):
        spec = covering_spectrum_lattice([[2, 0], [0, 3]])
        assert spec.exact_values() == [Fraction(1), Fraction(3, 2)]
        assert spec.display() == ["1/1", "3/2"]

    def test_unit(self):
        assert covering_spectrum_lattice([[1]]).display() == ["1/2"]

    def test_rational_basis(self):
        spec = covering_spectrum_lattice([[Fraction(1, 2), 0], [0, Fraction(3, 4)]])
        assert spec.exact_values() == [Fraction(1, 4), Fraction(3, 8)]

    def test_irrational_values_display_squared(self):
        # the hexagonal-ish basis has a jump at a non-square norm
        spec = covering_spectrum_lattice([[2, 1], [0, 3]])
        for q, shown in zip(spec.values_squared, spec.display()):
            if shown.startswith("sqrt("):
                assert shown == f"sqrt({q.numerator}/{q.denominator})"

    def test_diag_2_3_7_against_scan(self):
        spec = covering_spectrum_lattice([[2, 0, 0], [0, 3, 0], [0, 0, 7]])
        scan = lattice_jump_scan([[2, 0, 0], [0, 3, 0], [0, 0, 7]], 100)
        assert [q for q in spec.jumps_squared] == [Fraction(q) for q in scan]

    def test_singular_basis(self):
        with pytest.raises(ValueError):
            covering_spectrum_lattice([[1, 2], [2, 4]])

    def test_scaling(self):
        a = covering_spectrum_lattice([[2, 0], [0, 3]])
        b = covering_spectrum_lattice([[4, 0], [0, 6]])
        assert [4 * q for q in a.values_squared] == list(b.values_squared)
