from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from covspec import (
    Budgets,
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

LA, LB = Fraction(2), Fraction(5, 2)


def fano_relators_and_target(X, cutoff, target_name):
    """Class loops strictly below the cutoff, plus one named target loop."""
    classes = enumerate_classes(X, cutoff, strict=True)
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
        cert = abelian_nonmember([(1,)], (2,), rank=2)
        assert cert is not None and cert.verdict == "non_member"
        assert cert.evidence["target_vector"] == [0, 1]
        assert verify_certificate(cert, [(1,)], (2,), 2)

    def test_cannot_separate_powers(self):
        assert abelian_nonmember([(1,)], (1,) * 5, rank=2) is None

    def test_lattice_combination(self):
        # (0,2) = (1,1) + (-1,1): inconclusive
        assert abelian_nonmember([(1, 2), (-1, 2)], (2, 2), rank=2) is None


class TestContractionTier:
    def test_fano_distinguishing_class(self, fano_run):
        X1 = fano_run(LA, LB)[0]
        loops, words, tl, tw = fano_relators_and_target(
            X1, 2 * LA + LB, "A[110]*A[111]*B[101]"
        )
        cert = contraction_nonmember(X1, loops, tl)
        assert cert is not None and cert.verdict == "non_member"
        assert cert.evidence["image_word"]
        assert verify_certificate(
            cert, words, tw, X1.rank, graph=X1, relator_loops=loops, target_loop=tl
        )

    def test_contracting_the_target_itself(self, fano_run):
        X1 = fano_run(LA, LB)[0]
        loop = parse_loop(X1, "A[011]")
        assert contraction_nonmember(X1, [loop], loop) is None

    def test_contract_nothing(self, fano_run):
        X1 = fano_run(LA, LB)[0]
        loop = parse_loop(X1, "B[111]")
        cert = contraction_nonmember(X1, [], loop)
        assert cert is not None and cert.verdict == "non_member"


class TestCosetTier:
    def test_trivial_quotient(self):
        cert = coset_membership([(1,), (2,)], (1, 2), rank=2)
        assert cert.verdict == "member"
        assert cert.evidence["complete"] and cert.evidence["table_size"] == 1
        assert verify_certificate(cert, [(1,), (2,)], (1, 2), 2)

    def test_klein_four(self):
        rels = [(1, 1), (2, 2), (1, 2, 1, 2)]
        cert = coset_membership(rels, (1,), rank=2)
        assert cert.verdict == "non_member"
        assert cert.evidence["table_size"] == 4
        assert verify_certificate(cert, rels, (1,), 2)
        assert coset_membership(rels, (1, 1), rank=2).verdict == "member"
        assert coset_membership(rels, (1, 2), rank=2).verdict == "non_member"

    def test_partial_trace_member(self):
        # F/<<x>> is infinite (free on y), but x itself traces to coset 0
        cert = coset_membership([(1,)], (1,), rank=2, cap=20)
        assert cert is not None and cert.verdict == "member"
        assert not cert.evidence["complete"]
        assert verify_certificate(cert, [(1,)], (1,), 2)

    def test_inconclusive_on_infinite_quotient(self):
        assert coset_membership([(1,)], (2,), rank=2, cap=50) is None

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            todd_coxeter([(1,)], 1, cap=0)

    def test_fano_composite_loop_is_member(self, fano_run):
        X2 = fano_run(LA, LB)[3]
        loops, words, tl, tw = fano_relators_and_target(
            X2, 2 * LA + LB, "A[011]*B[111]*A[111]"
        )
        cert = coset_membership(words, tw, X2.rank)
        assert cert is not None and cert.verdict == "member"
        assert verify_certificate(cert, words, tw, X2.rank)


class TestSyntacticTier:
    def test_inverse_of_relator(self):
        cert = syntactic_member([(1, 2)], (-2, -1))
        assert cert is not None and cert.verdict == "member"
        assert verify_certificate(cert, [(1, 2)], (-2, -1), 2)

    def test_power_of_relator(self):
        cert = syntactic_member([(1, 2)], (1, 2) * 3)
        assert cert is not None
        assert verify_certificate(cert, [(1, 2)], (1, 2) * 3, 2)

    def test_rotation_of_relator(self):
        cert = syntactic_member([(1, 2, -1)], (2, -1, 1))
        # (2,-1,1) freely reduces to (2,): compare via the conjugate (2,)
        assert cert is not None
        assert verify_certificate(cert, [(1, 2, -1)], (2, -1, 1), 2)

    def test_square_of_loop_class(self, fano_run):
        X1 = fano_run(LA, LB)[0]
        w = loop_to_free_word(X1, parse_loop(X1, "A[011]"))
        cert = syntactic_member([w], w * 2)
        assert cert is not None
        assert verify_certificate(cert, [w], w * 2, X1.rank)

    def test_product_of_two_relators(self):
        rels = [(1, 2), (3, -1)]
        target = free_reduce((1, 2) + (3, -1))
        cert = syntactic_member(rels, target)
        assert cert is not None
        assert verify_certificate(cert, rels, target, 3)

    def test_conjugated_relator(self):
        rels = [(1, 2)]
        target = free_reduce((3, -2) + (1, 2) + (2, -3))
        cert = syntactic_member(rels, target)
        assert cert is not None
        assert verify_certificate(cert, rels, target, 3)

    def test_trivial_target(self):
        cert = syntactic_member([], (1, -1))
        assert cert is not None and cert.evidence["expression"] == []

    def test_gives_up_quietly(self):
        assert syntactic_member([(1, 1, 2)], (2, 2, 2)) is None


class TestDecideMembership:
    def test_relator_itself_uses_syntactic_tier(self):
        cert = decide_membership([(1, 2, -1, -2)], (1, 2, -1, -2), rank=2)
        assert cert.verdict == "member" and cert.tier == "syntactic"

    def test_fano_x1_distinguishing_nonmember(self, fano_run):
        X1 = fano_run(LA, LB)[0]
        loops, words, tl, tw = fano_relators_and_target(
            X1, 2 * LA + LB, "A[110]*A[111]*B[101]"
        )
        cert = decide_membership(
            words, tw, X1.rank, graph=X1, relator_loops=loops, target_loop=tl
        )
        assert cert.verdict == "non_member"
        assert verify_certificate(
            cert, words, tw, X1.rank, graph=X1, relator_loops=loops, target_loop=tl
        )

    def test_fano_x2_composite_member(self, fano_run):
        X2 = fano_run(LA, LB)[3]
        loops, words, tl, tw = fano_relators_and_target(
            X2, 2 * LA + LB, "A[011]*B[111]*A[111]"
        )
        cert = decide_membership(
            words, tw, X2.rank, graph=X2, relator_loops=loops, target_loop=tl
        )
        assert cert.verdict == "member"
        assert verify_certificate(
            cert, words, tw, X2.rank, graph=X2, relator_loops=loops, target_loop=tl
        )

    def test_undecided_reported_honestly(self):
        # is [y,z] in <<x>>? it is not, but no tier can see that
        target = (2, 3, -2, -3)
        cert = decide_membership([(1,)], target, rank=3, budgets=Budgets(coset_cap=100))
        assert cert.verdict == "undecided"
        assert cert.evidence["budgets"]["coset_cap"] == 100
        assert verify_certificate(cert, [(1,)], target, 3)


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
            cert = decide_membership(rels, target, rank=2)
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
            before = decide_membership(rels, target, rank=2, budgets=Budgets(coset_cap=2000))
            after = decide_membership(
                rels + extra, target, rank=2, budgets=Budgets(coset_cap=2000)
            )
            if before.verdict == "member":
                assert after.verdict != "non_member"

    def test_every_certificate_reverifies(self):
        rng = random.Random(99)
        for _ in range(40):
            rels = random_presentation(rng)
            target = cyclic_reduce(
                tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6)))
            )
            cert = decide_membership(rels, target, rank=2, budgets=Budgets(coset_cap=2000))
            assert verify_certificate(cert, rels, target, 2)


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
