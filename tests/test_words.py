from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covspec import (
    MembershipCertificate,
    abelian_nonmember,
    canonical_cyclic_word,
    contraction_nonmember,
    coset_membership,
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
from covspec.metric import dart_edge
from covspec.words import CosetTable, Presentation

from oracles import decide_membership_stateless, relator_forms, syntactic_member_stateless

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
        cw = canonical_cyclic_word(w)
        assert canonical_cyclic_word(word_inverse(w)) == cw
        assert canonical_cyclic_word((3, 1, 2, -1)) == cw


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
    def test_fano_distinguishing_class(self, fano_run):
        X1 = fano_run(LA, LB)[0]
        loops, words, tl, tw = fano_relators_and_target(
            X1, 2 * LA + LB, "A[110]*A[111]*B[101]"
        )
        cert = contraction_nonmember(loops, tl)
        assert cert is not None and cert.verdict == "non_member"
        assert cert.evidence["image_word"]
        assert verify_certificate(
            cert, Presentation(X1.rank, words), tw, loops=loops, target_loop=tl
        )

    def test_replay_rejects_tampered_certificates(self, fano_run):
        X1 = fano_run(LA, LB)[0]
        loops, words, tl, tw = fano_relators_and_target(
            X1, 2 * LA + LB, "A[110]*A[111]*B[101]"
        )
        cert = contraction_nonmember(loops, tl)
        edges, image = cert.evidence["contracted_edges"], cert.evidence["image_word"]
        # a relator edge off the target: dropping it leaves the image as it is
        target_edges = {dart_edge(d) for d in tl.darts}
        dropped = next(e for e in edges if e not in target_edges)
        for forged in (
            {"contracted_edges": edges, "image_word": image[:-1]},
            {"contracted_edges": [e for e in edges if e != dropped], "image_word": image},
            # the target contracted too: its image is empty, as claimed
            {"contracted_edges": sorted(set(edges) | target_edges), "image_word": []},
        ):
            bad = MembershipCertificate("non_member", "contraction", forged)
            assert not verify_certificate(
                bad, Presentation(X1.rank, words), tw, loops=loops, target_loop=tl
            )

    def test_replay_accepts_a_superset_of_the_relator_edges(self, fano_run):
        # contracting one more edge, off the target, still kills every
        # relator and leaves the same image
        X1 = fano_run(LA, LB)[0]
        loops, words, tl, tw = fano_relators_and_target(
            X1, 2 * LA + LB, "A[110]*A[111]*B[101]"
        )
        evidence = contraction_nonmember(loops, tl).evidence
        used = {dart_edge(d) for d in tl.darts} | set(evidence["contracted_edges"])
        extra = next(e for e in range(X1.graph.edge_count) if e not in used)
        wider = MembershipCertificate("non_member", "contraction", {
            "contracted_edges": sorted(evidence["contracted_edges"] + [extra]),
            "image_word": evidence["image_word"],
        })
        assert verify_certificate(
            wider, Presentation(X1.rank, words), tw, loops=loops, target_loop=tl
        )

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

    def test_partial_trace_member(self):
        # F/<<x>> is infinite (free on y), but x itself traces to coset 0
        cert = coset_membership(Presentation(2, [(1,)]), (1,), cap=20)
        assert cert is not None and cert.verdict == "member"
        assert not cert.evidence["complete"]
        assert verify_certificate(cert, Presentation(2, [(1,)]), (1,))

    def test_inconclusive_on_infinite_quotient(self):
        assert coset_membership(Presentation(2, [(1,)]), (2,), cap=50) is None

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            todd_coxeter([(1,)], 1, cap=0)

    def test_fano_composite_loop_is_member(self, fano_run):
        X2 = fano_run(LA, LB)[3]
        loops, words, tl, tw = fano_relators_and_target(
            X2, 2 * LA + LB, "A[011]*B[111]*A[111]"
        )
        cert = coset_membership(Presentation(X2.rank, words), tw)
        assert cert is not None and cert.verdict == "member"
        assert verify_certificate(cert, Presentation(X2.rank, words), tw)


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
        cert = decide_membership(
            Presentation(X1.rank, words), tw, loops=loops, target_loop=tl
        )
        assert cert.verdict == "non_member"
        assert verify_certificate(
            cert, Presentation(X1.rank, words), tw, loops=loops, target_loop=tl
        )

    def test_fano_x2_composite_member(self, fano_run):
        X2 = fano_run(LA, LB)[3]
        loops, words, tl, tw = fano_relators_and_target(
            X2, 2 * LA + LB, "A[011]*B[111]*A[111]"
        )
        cert = decide_membership(
            Presentation(X2.rank, words), tw, loops=loops, target_loop=tl
        )
        assert cert.verdict == "member"
        assert verify_certificate(
            cert, Presentation(X2.rank, words), tw, loops=loops, target_loop=tl
        )

    def test_undecided_reported_honestly(self):
        # is [y,z] in <<x>>? it is not, but no tier can see that
        target = (2, 3, -2, -3)
        cert = decide_membership(Presentation(3, [(1,)]), target, coset_cap=100)
        assert cert.verdict == "undecided"
        assert cert.evidence["budgets"]["coset_cap"] == 100
        assert verify_certificate(cert, Presentation(3, [(1,)]), target)


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

    def test_member_verdicts_monotone_under_more_relators(self):
        rng = random.Random(5)
        for _ in range(30):
            rels = random_presentation(rng, max_relators=2)
            extra = random_presentation(rng, max_relators=1)
            if not rels:
                continue
            target = cyclic_reduce(
                tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 5)))
            )
            before = decide_membership(Presentation(2, rels), target, coset_cap=2000)
            after = decide_membership(Presentation(2, rels + extra), target, coset_cap=2000)
            if before.verdict == "member":
                assert after.verdict != "non_member"

    def test_every_certificate_reverifies(self):
        rng = random.Random(99)
        for _ in range(40):
            rels = random_presentation(rng)
            target = cyclic_reduce(
                tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6)))
            )
            cert = decide_membership(Presentation(2, rels), target, coset_cap=2000)
            assert verify_certificate(cert, Presentation(2, rels), target)


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
        # gives the two-form search targets with several factorisations
        forms = [f for f, _, _, _ in relator_forms(relators)]
        f1, f2 = data.draw(st.sampled_from(forms)), data.draw(st.sampled_from(forms))
        target = free_reduce(f1 + tuple(data.draw(st.lists(_letters, max_size=2))) + f2)
        pres = Presentation(3)
        for rel in relators:
            pres.add(rel)
        cert = decide_membership(pres, target, coset_cap=500)
        assert cert == decide_membership_stateless(relators, target, 3, coset_cap=500)
        assert verify_certificate(cert, Presentation(3, relators), target)

    def test_one_coset_table_per_relator_count_and_cap(self, monkeypatch):
        calls = []

        def counting(relators, rank, cap):
            calls.append((len(relators), cap))
            return todd_coxeter(relators, rank, cap)

        monkeypatch.setattr("covspec.words.todd_coxeter", counting)
        pres = Presentation(2, [(1,)])
        # F/<<x>> is infinite, so both stop at the cap; the table is shared
        assert coset_membership(pres, (1, 1), cap=50).verdict == "member"
        assert coset_membership(pres, (2,), cap=50) is None
        assert calls == [(1, 50)]
        pres.add((2,))
        cert = coset_membership(pres, (2,), cap=50)
        assert cert.verdict == "member" and cert.evidence["complete"]
        assert coset_membership(pres, (2,), cap=60).evidence["complete"]
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
