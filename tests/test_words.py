from __future__ import annotations

import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covspec import (
    MembershipCertificate,
    MetricGraph,
    Permutation,
    abelian_nonmember,
    cayley_graph,
    coset_membership,
    covering_spectrum,
    cyclic_reduce,
    decide_membership,
    enumerate_classes,
    free_reduce,
    loop_to_free_word,
    parse_loop,
    syntactic_member,
    todd_coxeter,
    verify_certificate,
    word_inverse,
)
from covspec import words as words_mod
from covspec.words import CosetTable, Presentation, contraction_nonmember, least_rotation

from oracles import (
    decide_membership_stateless,
    relator_forms,
    syntactic_member_stateless,
    todd_coxeter_reference,
)

LA, LB = Fraction(2), Fraction(5, 2)


def fano_relators_and_target(X, cutoff, target_name):
    """Class loops strictly below the cutoff, plus one named target loop."""
    classes = enumerate_classes(X, cutoff)
    loops = [c.word for c in classes]
    words = [loop_to_free_word(X, w) for w in loops]
    target_loop = parse_loop(X, target_name)
    return loops, words, target_loop, loop_to_free_word(X, target_loop)


class TestReduction:
    def test_cancellation(self):
        assert free_reduce([1, -1]) == ()
        assert free_reduce([1, 2, -2, -1, 3]) == (3,)

    def test_cyclic(self):
        assert cyclic_reduce([1, 2, -1]) == (2,)
        assert cyclic_reduce([1, 2, 3, -2, -1]) == (3,)

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(50):
            w = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(12))]
            r = free_reduce(w)
            assert free_reduce(r) == r
            c = cyclic_reduce(w)
            assert cyclic_reduce(c) == c

    def test_zero_letter_rejected(self):
        with pytest.raises(ValueError):
            free_reduce([1, 0])

    def test_canonical_invariance(self):
        w = (1, 2, -1, 3)
        cw = least_rotation(w, word_inverse(w))
        assert least_rotation(word_inverse(w), w) == cw
        rotated = (3, 1, 2, -1)
        assert least_rotation(rotated, word_inverse(rotated)) == cw


class TestAbelianTier:
    def test_separates_generators(self):
        cert = abelian_nonmember(Presentation(2, [(1,)]), (2,))
        assert cert is not None and cert.verdict == "non_member"
        assert cert.evidence["target_vector"] == [0, 1]
        assert verify_certificate(cert, Presentation(2, [(1,)]), (2,))

    def test_cannot_separate_powers(self):
        assert abelian_nonmember(Presentation(2, [(1,)]), (1,) * 5) is None

    def test_lattice_combination(self):
        # (0,2) = (1,1) + (-1,1): inconclusive
        assert abelian_nonmember(Presentation(2, [(1, 2), (-1, 2)]), (2, 2)) is None


class TestContractionTier:
    """The contraction predicate, which is no tier of the oracle: the
    abelian tier decides every target it certifies."""

    def test_fano_distinguishing_class(self, fano_run):
        X1 = fano_run(LA, LB)[0]
        loops, words, tl, tw = fano_relators_and_target(
            X1, 2 * LA + LB, "A[110]*A[111]*B[101]"
        )
        cert = contraction_nonmember(loops, tl)
        assert cert is not None and cert.verdict == "non_member"
        assert cert.evidence["image_word"]
        assert abelian_nonmember(Presentation(X1.rank, words), tw) is not None

    def test_a_contraction_certificate_does_not_replay(self, fano_run):
        X1 = fano_run(LA, LB)[0]
        loops, words, tl, tw = fano_relators_and_target(
            X1, 2 * LA + LB, "A[110]*A[111]*B[101]"
        )
        cert = contraction_nonmember(loops, tl)
        assert not verify_certificate(cert, Presentation(X1.rank, words), tw)

    def test_contracting_the_target_itself(self, fano_run):
        X1 = fano_run(LA, LB)[0]
        loop = parse_loop(X1, "A[011]")
        assert contraction_nonmember([loop], loop) is None

    def test_contract_nothing(self, fano_run):
        X1 = fano_run(LA, LB)[0]
        loop = parse_loop(X1, "B[111]")
        cert = contraction_nonmember([], loop)
        assert cert is not None and cert.verdict == "non_member"


class TestCosetTier:
    def test_trivial_quotient(self):
        pres = Presentation(2, [(1,), (2,)])
        cert = coset_membership(pres, (1, 2))
        assert cert.verdict == "member"
        assert cert.evidence["complete"] and cert.evidence["table_size"] == 1
        assert verify_certificate(cert, Presentation(2, [(1,), (2,)]), (1, 2))

    def test_klein_four(self):
        rels = [(1, 1), (2, 2), (1, 2, 1, 2)]
        pres = Presentation(2, rels)
        cert = coset_membership(pres, (1,))
        assert cert.verdict == "non_member"
        assert cert.evidence["table_size"] == 4
        assert verify_certificate(cert, Presentation(2, rels), (1,))
        assert coset_membership(pres, (1, 1)).verdict == "member"
        assert coset_membership(pres, (1, 2)).verdict == "non_member"

    @pytest.mark.parametrize(
        "rels, rank, target, size",
        [
            ([(1, 1, 1)], 1, (1,), 3),
            ([(1, 1), (2, 2), (1, 2) * 3], 2, (1, 2), 6),
        ],
    )
    def test_replay_of_nontrivial_finite_quotient(self, rels, rank, target, size):
        cert = coset_membership(Presentation(rank, rels), target)
        assert cert.verdict == "non_member" and cert.evidence["table_size"] == size
        assert verify_certificate(cert, Presentation(rank, rels), target)
        for key, forged in (("table_size", size + 1), ("target_coset", 0)):
            bad = MembershipCertificate(cert.verdict, cert.tier, {**cert.evidence, key: forged})
            assert not verify_certificate(bad, Presentation(rank, rels), target)

    def test_replay_rejects_a_transitive_table_that_is_not_regular(self, monkeypatch):
        # S3 on the three cosets of a subgroup of order 2 kills a^2, b^2 and
        # (ab)^3 and is transitive, but its group has order 6, not 3
        rels = [(1, 1), (2, 2), (1, 2) * 3]
        table = CosetTable([[1, 1, 0, 0], [0, 0, 2, 2], [2, 2, 1, 1]], complete=True)
        monkeypatch.setattr("covspec.words.todd_coxeter", lambda relators, rank, cap: table)
        cert = MembershipCertificate(
            "non_member",
            "coset_enumeration",
            {"complete": True, "cap": 100, "table_size": 3, "target_coset": 1},
        )
        assert not verify_certificate(cert, Presentation(2, rels), (1,))

    def test_partial_trace_member(self, monkeypatch):
        # F/<<x>> is infinite (free on y), but x itself traces to coset 0;
        # the cap is read per call, so the patched one reaches the evidence
        monkeypatch.setattr(words_mod, "COSET_CAP", 20)
        cert = coset_membership(Presentation(2, [(1,)]), (1,))
        assert cert is not None and cert.verdict == "member"
        assert not cert.evidence["complete"] and cert.evidence["cap"] == 20
        assert verify_certificate(cert, Presentation(2, [(1,)]), (1,))

    def test_inconclusive_on_infinite_quotient(self, monkeypatch):
        monkeypatch.setattr(words_mod, "COSET_CAP", 50)
        assert coset_membership(Presentation(2, [(1,)]), (2,)) is None

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            todd_coxeter([(1,)], 1, cap=0)

    def test_a_failed_table_build_leaves_the_presentation_usable(self):
        pres = Presentation(2, [(1,)])
        with pytest.raises(ValueError):
            pres.coset_table(0)
        assert pres.coset_table(50).trace((1,)) == 0

    def test_fano_composite_loop_is_member(self, fano_run):
        X2 = fano_run(LA, LB)[3]
        loops, words, tl, tw = fano_relators_and_target(
            X2, 2 * LA + LB, "A[011]*B[111]*A[111]"
        )
        cert = coset_membership(Presentation(X2.rank, words), tw)
        assert cert is not None and cert.verdict == "member"
        assert verify_certificate(cert, Presentation(X2.rank, words), tw)


@st.composite
def _enumeration_inputs(draw):
    rank = draw(st.integers(1, 4))
    # generators past `used` are in no relator, so their columns stay empty
    # and the table is incomplete without ever overflowing
    used = draw(st.integers(1, rank))
    letters = st.integers(1, used).flatmap(lambda g: st.sampled_from([g, -g]))
    words = st.lists(letters, max_size=6).map(tuple)
    powers = st.lists(letters, min_size=1, max_size=3).flatmap(
        lambda w: st.integers(2, 6 // len(w)).map(lambda k: tuple(w) * k))
    relators = draw(st.lists(st.one_of(words, powers), max_size=8))
    cap = draw(st.one_of(st.integers(1, 40), st.integers(1, 2000)))
    return relators, rank, cap


# Schreier graphs of two permutations at l_A = 2, l_B = 5/2 (the benchmark's
# pool instances 4, 25 and 125) whose runs reach the coset tier
_POOL_PERMUTATIONS = {
    4: ([4, 0, 5, 3, 7, 6, 2, 1], [0, 3, 4, 2, 7, 6, 1, 5]),
    25: ([0, 3, 4, 5, 8, 9, 2, 7, 1, 6], [1, 9, 3, 4, 6, 2, 8, 5, 7, 0]),
    125: ([3, 6, 4, 2, 1, 7, 0, 5], [0, 7, 5, 1, 3, 2, 4, 6]),
}
# the first 8 relators of instance 4, rank 9: generators 5 and 7 are in none
_POOL_4_RELATORS = [(2,), (6,), (2, 2), (-8,), (3, -9), (6, 6), (1, 3, 4), (2, 2, 2)]


class TestToddCoxeter:
    @given(_enumeration_inputs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_table_as_the_reference(self, case):
        relators, rank, cap = case
        got = todd_coxeter(relators, rank, cap)
        want = todd_coxeter_reference(relators, rank, cap)
        assert (got.table, got.complete) == (want.table, want.complete)

    @pytest.mark.parametrize("instance, evidence", [
        (4, [(8, 34368, 0, False)]),
        (25, [(17, 1, 0, False), (19, 1, 0, False)]),
        (125, [(12, 10002, 0, False), (15, 10002, 0, False)]),
    ])
    def test_pool_certificates(self, instance, evidence):
        a, b = _POOL_PERMUTATIONS[instance]
        graph = cayley_graph([("A", Permutation(a)), ("B", Permutation(b))])
        X = MetricGraph(graph, {"A": LA, "B": LB})
        _, report = covering_spectrum(X)
        got = [(sum(c.length < q.length for c in report.classes),
                q.certificate.evidence["table_size"],
                q.certificate.evidence["target_coset"], q.certificate.evidence["complete"])
               for q in report.queries if q.certificate.tier == "coset_enumeration"]
        assert got == evidence
        assert report.verify_all_certificates(X)

    @pytest.mark.parametrize("relator, rank", [((0,), 1), ((3,), 2), ((-3,), 2)])
    def test_a_letter_outside_the_rank_is_rejected(self, relator, rank):
        # unchecked, the letter 0 reads column -2, generator 1's forward
        # column, and gives the one-coset table of [(1,)]
        with pytest.raises(ValueError, match=f"letter {relator[0]} "):
            todd_coxeter([relator], rank, 10)

    def test_dead_rows_are_freed(self):
        # on Python 3.11 the peak read 38.8 MB with every dead row kept and
        # 22.2 MB with each freed at its merge
        tracemalloc.start()
        try:
            table = todd_coxeter(_POOL_4_RELATORS, 9, words_mod.COSET_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (table.size, table.complete) == (34368, False)
        assert peak < 30e6


class TestSyntacticTier:
    def test_inverse_of_relator(self):
        pres = Presentation(2, [(1, 2)])
        cert = syntactic_member(pres, (-2, -1))
        assert cert is not None and cert.verdict == "member"
        assert verify_certificate(cert, pres, (-2, -1))

    def test_power_of_relator(self):
        pres = Presentation(2, [(1, 2)])
        cert = syntactic_member(pres, (1, 2) * 3)
        assert cert is not None
        assert verify_certificate(cert, pres, (1, 2) * 3)

    def test_rotation_of_relator(self):
        pres = Presentation(2, [(1, 2, -1)])
        cert = syntactic_member(pres, (2, -1, 1))
        # (2,-1,1) freely reduces to (2,): compare via the conjugate (2,)
        assert cert is not None
        assert verify_certificate(cert, pres, (2, -1, 1))

    def test_square_of_loop_class(self, fano_run):
        X1 = fano_run(LA, LB)[0]
        w = loop_to_free_word(X1, parse_loop(X1, "A[011]"))
        pres = Presentation(X1.rank, [w])
        cert = syntactic_member(pres, w * 2)
        assert cert is not None
        assert verify_certificate(cert, pres, w * 2)

    def test_product_of_two_relators(self):
        rels = [(1, 2), (3, -1)]
        target = free_reduce((1, 2) + (3, -1))
        cert = syntactic_member(Presentation(3, rels), target)
        assert cert is not None
        assert verify_certificate(cert, Presentation(3, rels), target)

    def test_conjugated_relator(self):
        rels = [(1, 2)]
        target = free_reduce((3, -2) + (1, 2) + (2, -3))
        cert = syntactic_member(Presentation(3, rels), target)
        assert cert is not None
        assert verify_certificate(cert, Presentation(3, rels), target)

    def test_trivial_target(self):
        cert = syntactic_member(Presentation(1), (1, -1))
        assert cert is not None and cert.evidence["expression"] == []

    def test_gives_up_quietly(self):
        assert syntactic_member(Presentation(2, [(1, 1, 2)]), (2, 2, 2)) is None


class TestDecideMembership:
    def test_relator_itself_uses_syntactic_tier(self):
        cert = decide_membership(Presentation(2, [(1, 2, -1, -2)]), (1, 2, -1, -2))
        assert cert.verdict == "member" and cert.tier == "syntactic"

    def test_fano_x1_distinguishing_nonmember(self, fano_run):
        X1 = fano_run(LA, LB)[0]
        loops, words, tl, tw = fano_relators_and_target(
            X1, 2 * LA + LB, "A[110]*A[111]*B[101]"
        )
        cert = decide_membership(Presentation(X1.rank, words), tw)
        assert cert.verdict == "non_member" and cert.tier == "abelian"
        assert verify_certificate(cert, Presentation(X1.rank, words), tw)

    def test_fano_x2_composite_member(self, fano_run):
        X2 = fano_run(LA, LB)[3]
        loops, words, tl, tw = fano_relators_and_target(
            X2, 2 * LA + LB, "A[011]*B[111]*A[111]"
        )
        cert = decide_membership(Presentation(X2.rank, words), tw)
        assert cert.verdict == "member"
        assert verify_certificate(cert, Presentation(X2.rank, words), tw)

    def test_undecided_reported_honestly(self, monkeypatch):
        # is [y,z] in <<x>>? it is not, but no tier can see that
        target = (2, 3, -2, -3)
        monkeypatch.setattr(words_mod, "COSET_CAP", 100)
        cert = decide_membership(Presentation(3, [(1,)]), target)
        assert cert.verdict == "undecided"
        assert cert.evidence["budgets"]["coset_cap"] == 100
        # an undecided certificate proves nothing, so it never replays
        assert not verify_certificate(cert, Presentation(3, [(1,)]), target)


def random_presentation(rng, max_relators=3, max_len=5):
    rels = []
    for _ in range(rng.randint(1, max_relators)):
        w = cyclic_reduce(
            tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, max_len)))
        )
        if w:
            rels.append(w)
    return rels


class TestOracleProperties:
    def test_tiers_agree_with_completed_tables(self):
        rng = random.Random(42)
        usable = 0
        while usable < 20:
            rels = random_presentation(rng)
            if not rels:
                continue
            table = todd_coxeter(rels, 2, cap=3000)
            if not table.complete or table.size > 48:
                continue
            usable += 1
            target = cyclic_reduce(
                tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6)))
            )
            exact = table.trace(target) == 0
            cert = decide_membership(Presentation(2, rels), target)
            assert cert.verdict != "undecided"
            assert (cert.verdict == "member") == exact

    def test_member_verdicts_monotone_under_more_relators(self, monkeypatch):
        monkeypatch.setattr(words_mod, "COSET_CAP", 2000)
        rng = random.Random(5)
        for _ in range(30):
            rels = random_presentation(rng, max_relators=2)
            extra = random_presentation(rng, max_relators=1)
            if not rels:
                continue
            target = cyclic_reduce(
                tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 5)))
            )
            before = decide_membership(Presentation(2, rels), target)
            after = decide_membership(Presentation(2, rels + extra), target)
            if before.verdict == "member":
                assert after.verdict != "non_member"

    def test_every_certificate_reverifies(self, monkeypatch):
        monkeypatch.setattr(words_mod, "COSET_CAP", 2000)
        rng = random.Random(99)
        for _ in range(40):
            rels = random_presentation(rng)
            target = cyclic_reduce(
                tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6)))
            )
            cert = decide_membership(Presentation(2, rels), target)
            assert verify_certificate(cert, Presentation(2, rels), target)

    @pytest.mark.parametrize(
        "tier, evidence",
        [
            ("syntactic", {"expression": [[[], 1, 1]]}),  # relator index past the end
            ("syntactic", {"expression": [[[], -1, 1]]}),  # negative relator index
            ("syntactic", {"expression": [[[0], 0, 1]]}),  # 0 is not a letter
            ("coset_enumeration", {"complete": True, "cap": 0, "table_size": 1, "target_coset": 0}),
            ("coset_enumeration", {"complete": True, "cap": -5, "table_size": 1, "target_coset": 0}),
            ("syntactic", {"expression": [[[], "x", 1]]}),  # relator index not a number
            ("syntactic", {}),
            ("abelian", {}),
            ("coset_enumeration", {"cap": 10}),
        ],
    )
    def test_malformed_certificates_are_rejected(self, tier, evidence):
        # the abelian tier certifies only non-members; the cases of the
        # other tiers claim members
        verdict = "non_member" if tier == "abelian" else "member"
        cert = MembershipCertificate(verdict, tier, evidence)
        assert not verify_certificate(cert, Presentation(2, [(1, 2)]), (1, 2))

    def test_abelian_non_member_on_rank_zero_is_rejected(self):
        # Z^0 is its own relator lattice, so nothing lies outside it
        cert = MembershipCertificate("non_member", "abelian", {"target_vector": []})
        assert not verify_certificate(cert, Presentation(0), ())

    @pytest.mark.parametrize("target", [(3,), (-3,), (1, 3), (0,)])
    def test_a_target_letter_outside_the_rank_is_rejected(self, target):
        # the coset and abelian checkers once indexed a column or a vector
        # entry by a letter past the rank and raised IndexError, and every
        # checker raised ValueError on the letter 0
        trivial, free_on_x2 = [(1,), (2,)], [(1,)]
        for cert, relators in (
            (coset_membership(Presentation(2, trivial), (1,)), trivial),
            (abelian_nonmember(Presentation(2, free_on_x2), (2,)), free_on_x2),
            (syntactic_member(Presentation(2, trivial), (1,)), trivial),
        ):
            assert cert is not None
            assert verify_certificate(cert, Presentation(2, relators), target) is False


_letters = st.sampled_from([1, -1, 2, -2, 3, -3])
_relators = st.lists(_letters, min_size=1, max_size=5).map(cyclic_reduce).filter(bool)


class TestPresentation:
    @pytest.mark.parametrize(
        "relators",
        [
            [(1, 2) * 3],
            [(1, 2), (2, 1), (1, 2) * 3, (-2, -1) * 2, (1, 1, 1)],
            [(3, 1, -2, 1, -2, -3), (-2, 1) * 2, (1, -2, 1), (2, 2, -1, 2, 2, -1)],
        ],
    )
    def test_forms_match_every_rotation_deduplicated(self, relators):
        pres = Presentation(3, relators)
        assert pres.forms == relator_forms(relators)
        assert pres.form_index == {f: k for k, (f, _, _, _) in enumerate(pres.forms)}

    def test_two_form_search_takes_the_first_factorisation(self):
        # (1, 3) is x1 * x3 and also (x1 x2) * (x2^-1 x3)
        relators = [(1,), (3,), (1, 2), (-2, 3)]
        cert = syntactic_member(Presentation(3, relators), (1, 3))
        assert [j for _, j, _ in cert.evidence["expression"]] == [0, 1]
        assert cert == syntactic_member_stateless(relators, (1, 3))

    @given(st.lists(_relators, min_size=1, max_size=3), st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_tiers_match_the_stateless_oracle(self, relators, data):
        # a product of two relator forms, with letters between them or not,
        # gives the two-form search targets with several factorisations;
        # c * f1 * c^-1 * f2 gives the peel targets it must conjugate by c
        forms = [f for f, _, _, _ in relator_forms(relators)]
        f1, f2 = data.draw(st.sampled_from(forms)), data.draw(st.sampled_from(forms))
        c = tuple(data.draw(st.lists(_letters, max_size=2)))
        targets = [
            free_reduce(f1 + tuple(data.draw(st.lists(_letters, max_size=2))) + f2),
            free_reduce(c + f1 + word_inverse(c) + f2),
        ]
        pres = Presentation(3)
        for rel in relators:
            pres.add(rel)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(words_mod, "COSET_CAP", 500)
            for target in targets:
                cert = decide_membership(pres, target)
                assert cert == decide_membership_stateless(relators, target, 3, coset_cap=500)
                assert verify_certificate(cert, Presentation(3, relators), target)

    # random targets rarely make the peel's first hit cancel at one junction
    # only, so each branch of the junction test has a target of its own
    @pytest.mark.parametrize(
        "relators, target",
        [
            ([(1,), (-2, -2)], (2, -1, 2)),  # left: w[i] == f[0]
            ([(1, -2, 1)], (1, 2, -1, -2)),  # left: w[i - 1] == f[-1]
            ([(-3, 1, 2), (-2, -3)], (-2, 3, 2, -1, 3)),  # right: w[n - i - 1] == f[-1]
            ([(-2, -2, 1, 1), (2, -3)], (1, 3, -2, 1, 1, -2, -3, -2, -2, 1)),  # right: w[n - i] == f[0]
        ],
    )
    def test_each_peel_junction_keeps_the_first_hit(self, relators, target):
        cert = syntactic_member(Presentation(3, relators), target)
        assert cert is not None
        assert cert == syntactic_member_stateless(relators, target)

    def test_a_relator_letter_past_the_rank_is_rejected(self):
        with pytest.raises(ValueError, match="letter 3 "):
            Presentation(2, [(3,)])

    def test_one_coset_table_per_relator_count_and_cap(self, monkeypatch):
        calls = []

        def counting(relators, rank, cap):
            calls.append((len(relators), cap))
            return todd_coxeter(relators, rank, cap)

        monkeypatch.setattr("covspec.words.todd_coxeter", counting)
        monkeypatch.setattr(words_mod, "COSET_CAP", 50)
        pres = Presentation(2, [(1,)])
        # F/<<x>> is infinite, so both stop at the cap; the table is shared
        assert coset_membership(pres, (1, 1)).verdict == "member"
        assert coset_membership(pres, (2,)) is None
        assert calls == [(1, 50)]
        pres.add((2,))
        cert = coset_membership(pres, (2,))
        assert cert.verdict == "member" and cert.evidence["complete"]
        monkeypatch.setattr(words_mod, "COSET_CAP", 60)
        assert coset_membership(pres, (2,)).evidence["complete"]
        assert calls == [(1, 50), (2, 50), (2, 60)]
        # two replays at one (relator count, cap) share one table too
        checker = Presentation(2, [(1,), (2,)])
        assert verify_certificate(cert, checker, (2,))
        assert verify_certificate(cert, checker, (1, 2))
        assert calls[3:] == [(2, 50)]


_OPTIMIZED_CHECKS = """
import sys
from fractions import Fraction
from covspec import ColoredGraph, Edge, MetricGraph, covering_spectrum
from covspec.words import _syntactic_cert

assert sys.flags.optimize, "not running under -O"
try:
    _syntactic_cert([(1,)], (2,), [[[], 0, 1]])
except AssertionError:
    pass
else:
    sys.exit("a bogus syntactic witness was certified")
graph = ColoredGraph(["v"], [Edge(0, 0, 0, "A"), Edge(1, 0, 0, "B")], ["A", "B"])
X = MetricGraph(graph, {"A": Fraction(2), "B": Fraction(3)})
_, report = covering_spectrum(X)
if not report.verify_all_certificates(X):
    sys.exit("certificate replay failed")
# B's jump query at 3 relabelled 2: its abelian certificate holds against
# the empty context too, so only the length check rejects it
report.queries[-1].length = Fraction(2)
if report.verify_all_certificates(X):
    sys.exit("a query whose length is not its loop's replayed")
"""


def test_soundness_checks_survive_optimize():
    # python -O strips assert statements; the checks must still raise
    import covspec

    src = str(Path(covspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
