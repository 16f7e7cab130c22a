"""Tests for normal forms Σ aᵢ·mᵢ and splitting (paper Section 3.3.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import terms as T
from repro.core.normalform import NormalForm, canonicalize_test
from repro.core.ordering import OrderingContext
from repro.theories.incnat import Gt, IncNatTheory, Incr
from repro.utils.errors import KmtError
from tests.conftest import bitvec_preds, restricted_actions


@pytest.fixture
def ctx():
    return OrderingContext(IncNatTheory())


def gt(var, bound):
    return T.pprim(Gt(var, bound))


def inc(var):
    return T.tprim(Incr(var))


class TestConstruction:
    def test_zero_is_vacuous(self):
        assert NormalForm.zero().is_vacuous()
        assert len(NormalForm.zero()) == 0

    def test_one(self):
        nf = NormalForm.one()
        assert not nf.is_vacuous()
        assert nf.pairs == frozenset({(T.pone(), T.tone())})

    def test_of_test_and_of_action(self):
        nf = NormalForm.of_test(gt("x", 1))
        assert nf.pairs == frozenset({(gt("x", 1), T.tone())})
        nf2 = NormalForm.of_action(inc("x"))
        assert nf2.pairs == frozenset({(T.pone(), inc("x"))})

    def test_zero_tests_are_dropped(self):
        nf = NormalForm({(T.pzero(), inc("x")), (gt("x", 0), inc("x"))})
        assert len(nf) == 1

    def test_non_restricted_action_rejected(self):
        bad_action = T.tseq(T.ttest(gt("x", 1)), inc("x"))
        with pytest.raises(KmtError):
            NormalForm({(T.pone(), bad_action)})

    def test_type_errors(self):
        with pytest.raises(TypeError):
            NormalForm({("not a pred", inc("x"))})
        with pytest.raises(TypeError):
            NormalForm({(T.pone(), "not a term")})

    def test_duplicate_pairs_collapse(self):
        nf = NormalForm([(gt("x", 0), inc("x")), (gt("x", 0), inc("x"))])
        assert len(nf) == 1


class TestAlgebra:
    def test_union_joins_sums(self):
        left = NormalForm.of_test(gt("x", 0))
        right = NormalForm.of_action(inc("x"))
        joined = left.union(right)
        assert len(joined) == 2
        assert left.pairs <= joined.pairs

    def test_prefix_test_conjoins(self):
        nf = NormalForm({(gt("x", 0), inc("x"))})
        prefixed = nf.prefix_test(gt("y", 1))
        ((test, action),) = prefixed.pairs
        # Guards are kept in a canonical (sorted) conjunction order.
        assert test == T.pand(gt("x", 0), gt("y", 1))
        assert action == inc("x")

    def test_prefix_with_zero_empties(self):
        nf = NormalForm({(gt("x", 0), inc("x"))})
        assert nf.prefix_test(T.pzero()).is_vacuous()

    def test_seq_action_appends(self):
        nf = NormalForm({(gt("x", 0), inc("x"))})
        extended = nf.seq_action(inc("y"))
        ((_, action),) = extended.pairs
        assert action == T.tseq(inc("x"), inc("y"))

    def test_seq_action_requires_restricted(self):
        nf = NormalForm.one()
        with pytest.raises(KmtError):
            nf.seq_action(T.ttest(gt("x", 1)))

    def test_to_term_roundtrip_structure(self):
        nf = NormalForm({(gt("x", 0), inc("x")), (T.pone(), T.tone())})
        term = nf.to_term()
        assert isinstance(term, T.Term)
        # Converting the vacuous normal form gives the term 0.
        assert NormalForm.zero().to_term() is T.tzero()

    def test_tests_include_one(self):
        nf = NormalForm({(gt("x", 0), inc("x"))})
        assert T.pone() in nf.tests()
        assert gt("x", 0) in nf.tests()

    def test_equality_and_hash(self):
        a = NormalForm({(gt("x", 0), inc("x"))})
        b = NormalForm([(gt("x", 0), inc("x"))])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


_GUARDS = st.lists(bitvec_preds(max_leaves=3), min_size=1, max_size=4).map(T.pand_all)
_PAIRS = st.lists(st.tuples(_GUARDS, restricted_actions(max_leaves=3)), max_size=5)


def _assert_invariant(nf):
    for test, _ in nf.pairs:
        assert not isinstance(test, T.PZero)
        assert canonicalize_test(test) == test


class TestCanonicalConstructors:
    """``union`` and ``seq_action`` skip re-canonicalizing guards; the result
    must equal building the same pairs through the validating constructor."""

    @settings(max_examples=80, deadline=None)
    @given(_PAIRS, _PAIRS)
    def test_union_matches_validating_constructor(self, left, right):
        x, y = NormalForm(left), NormalForm(right)
        joined = x.union(y)
        assert joined == NormalForm(list(x.pairs) + list(y.pairs))
        assert joined == NormalForm(left + right)
        _assert_invariant(joined)

    @settings(max_examples=80, deadline=None)
    @given(_PAIRS, restricted_actions(max_leaves=3))
    def test_seq_action_matches_validating_constructor(self, pairs, action):
        nf = NormalForm(pairs)
        extended = nf.seq_action(action)
        assert extended == NormalForm([(test, T.tseq(m, action)) for test, m in nf.pairs])
        _assert_invariant(extended)

    @settings(max_examples=60, deadline=None)
    @given(_PAIRS, _GUARDS)
    def test_prefix_test_still_canonicalizes(self, pairs, guard):
        prefixed = NormalForm(pairs).prefix_test(guard)
        _assert_invariant(prefixed)


class TestSplitting:
    def test_split_extracts_maximal_test(self, ctx):
        """Lemma 3.2 on x = (x>3);inc + (y>1);inc': splitting around x>3."""
        a = gt("x", 3)
        nf = NormalForm({(a, inc("x")), (gt("y", 1), inc("y"))})
        assert a in ctx.mt(nf.tests())
        with_a, without_a = nf.split(a, ctx)
        assert with_a.pairs == frozenset({(T.pone(), inc("x"))})
        assert without_a.pairs == frozenset({(gt("y", 1), inc("y"))})

    def test_split_removes_factor_from_conjunction(self, ctx):
        a = gt("x", 3)
        b = gt("y", 1)
        nf = NormalForm({(T.pand(a, b), inc("x"))})
        with_a, without_a = nf.split(a, ctx)
        assert with_a.pairs == frozenset({(b, inc("x"))})
        assert without_a.is_vacuous()

    def test_split_pieces_are_strictly_smaller(self, ctx):
        """Both split halves are strictly below the original (Lemma 3.2)."""
        a = gt("x", 3)
        nf = NormalForm({(a, inc("x")), (gt("y", 1), inc("y")), (T.pand(a, gt("y", 0)), T.tone())})
        with_a, without_a = nf.split(a, ctx)
        key = ctx.key(nf.tests())
        assert ctx.key(with_a.tests()) < key
        assert ctx.key(without_a.tests()) < key

    def test_split_reconstruction_is_equivalent_semantically(self, ctx, kmt_incnat):
        """x == a·y + z after splitting (checked with the decision procedure)."""
        a = gt("x", 2)
        nf = NormalForm({(T.pand(a, gt("y", 0)), inc("x")), (gt("y", 1), inc("y"))})
        with_a, without_a = nf.split(a, ctx)
        reconstructed = T.tplus(
            T.tseq(T.ttest(a), with_a.to_term()), without_a.to_term()
        )
        assert kmt_incnat.equivalent(nf.to_term(), reconstructed)

    def test_ordering_key_matches_context(self, ctx):
        nf = NormalForm({(gt("x", 2), inc("x"))})
        assert nf.ordering_key(ctx) == ctx.key(nf.tests())
        assert nf.maximal_tests(ctx) == ctx.mt(nf.tests())
