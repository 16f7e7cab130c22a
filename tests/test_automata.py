"""Tests for Brzozowski derivatives and Hopcroft–Karp equivalence (Section 4.1)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import terms as T
from repro.utils.errors import CounterexampleBoundExceeded
from repro.core import automata
from repro.core.automata import (
    alphabet,
    canonical,
    clear_alphabet_caches,
    counterexample_word,
    derivative,
    derivative_states,
    language_equivalent,
    language_is_empty,
    nullable,
)
from repro.core.regexes import accepts_word, language_up_to
from repro.theories.bitvec import BoolAssign
from tests.conftest import restricted_actions

A = T.tprim(BoolAssign("a", True))
B = T.tprim(BoolAssign("b", True))
PI_A = BoolAssign("a", True)
PI_B = BoolAssign("b", True)


class TestNullable:
    def test_constants(self):
        assert nullable(T.tone())
        assert not nullable(T.tzero())

    def test_primitive_not_nullable(self):
        assert not nullable(A)

    def test_star_always_nullable(self):
        assert nullable(T.tstar(A))

    def test_seq_and_plus(self):
        assert nullable(T.tseq(T.tstar(A), T.tstar(B)))
        assert not nullable(T.tseq(A, T.tstar(B)))
        assert nullable(T.tplus(A, T.tone()))
        assert not nullable(T.tplus(A, B))


class TestDerivative:
    def test_primitive(self):
        assert derivative(A, PI_A) is T.tone()
        assert derivative(A, PI_B) is T.tzero()

    def test_sequence(self):
        d = derivative(T.tseq(A, B), PI_A)
        assert d == B
        assert derivative(T.tseq(A, B), PI_B) is T.tzero()

    def test_nullable_sequence_skips_ahead(self):
        d = derivative(T.tseq(T.tstar(A), B), PI_B)
        assert nullable(d)

    def test_star(self):
        star = T.tstar(A)
        assert derivative(star, PI_A) == star

    def test_alphabet(self):
        assert alphabet(T.tseq(A, T.tstar(B))) == {PI_A, PI_B}


class TestCanonical:
    def test_flattens_and_sorts_sums(self):
        left = T.tplus(A, T.tplus(B, A))
        right = T.tplus(T.tplus(B, A), B)
        assert canonical(left) == canonical(right)

    def test_right_associates_sequences(self):
        left = T.tseq(T.tseq(A, B), A)
        right = T.tseq(A, T.tseq(B, A))
        assert canonical(left) == canonical(right)

    def test_drops_units(self):
        with T.smart_constructors_disabled():
            messy = T.tseq(T.tone(), T.tseq(A, T.tone()))
        assert canonical(messy) == A

    def test_zero_annihilates(self):
        with T.smart_constructors_disabled():
            messy = T.tseq(A, T.tzero())
        assert canonical(messy) is T.tzero()

    def test_derivatives_stay_finite_on_large_sums(self):
        """Without ACI-canonicalisation the derivative states of this sum grow forever."""
        chains = [T.tseq_all([A] * k) for k in range(1, 8)]
        chains.append(T.tseq(T.tstar(A), T.tseq_all([A] * 5)))
        big = T.tplus_all(chains)
        states = derivative_states(big, max_states=500)
        assert len(states) < 50


def _reference_canonical(m):
    """The ACI-canonical form computed from scratch, with no memo table."""
    if isinstance(m, (T.TTest, T.TPrim)):
        return m
    if isinstance(m, T.TStar):
        return T.tstar(_reference_canonical(m.arg))
    if isinstance(m, T.TSeq):
        factors = []
        stack = [m]
        while stack:
            node = stack.pop()
            if isinstance(node, T.TSeq):
                stack.extend((node.right, node.left))
            else:
                factors.append(_reference_canonical(node))
        if any(f == T.tzero() for f in factors):
            return T.tzero()
        result = T.tone()
        for factor in reversed([f for f in factors if f != T.tone()]):
            result = T.tseq(factor, result)
        return result
    summands = set()
    stack = [m]
    while stack:
        node = stack.pop()
        if isinstance(node, T.TPlus):
            stack.extend((node.left, node.right))
        else:
            summands.add(_reference_canonical(node))
    summands.discard(T.tzero())
    if not summands:
        return T.tzero()
    ordered = sorted(summands, key=lambda t: t.sort_key())
    result = ordered[0]
    for summand in ordered[1:]:
        result = T.tplus(result, summand)
    return result


def _action_shapes(max_leaves=8):
    """Restricted-action *recipes*, built later under a chosen smart-constructor
    setting (see :func:`_build_action`)."""
    leaves = st.sampled_from([("one",), ("zero",), ("prim", PI_A), ("prim", PI_B)])

    def extend(children):
        return st.one_of(
            children.map(lambda arg: ("star", arg)),
            st.tuples(st.sampled_from(("plus", "seq")), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def _build_action(shape):
    kind = shape[0]
    if kind == "one":
        return T.tone()
    if kind == "zero":
        return T.tzero()
    if kind == "prim":
        return T.tprim(shape[1])
    if kind == "star":
        return T.tstar(_build_action(shape[1]))
    join = T.tplus if kind == "plus" else T.tseq
    return join(_build_action(shape[1]), _build_action(shape[2]))


class TestCanonicalMemo:
    """``canonical`` memoizes on its argument; the memo must be invisible."""

    @settings(max_examples=80, deadline=None)
    @given(restricted_actions(max_leaves=8))
    def test_memoized_matches_fresh_canonicalization(self, m):
        expected = _reference_canonical(m)
        clear_alphabet_caches()
        assert canonical(m) == expected
        assert canonical(m) == expected  # now a memo hit
        clear_alphabet_caches()
        assert canonical(m) == expected

    @settings(max_examples=40, deadline=None)
    @given(restricted_actions(max_leaves=6))
    def test_derivatives_match_fresh_canonicalization(self, m):
        clear_alphabet_caches()
        for state in derivative_states(m, max_states=200):
            for pi in (PI_A, PI_B):
                raw = automata._derivative_raw(state, pi)
                assert automata.canonical(raw) == _reference_canonical(raw)

    @settings(max_examples=40, deadline=None)
    @given(restricted_actions(max_leaves=6))
    def test_memo_bypassed_without_smart_constructors(self, m):
        canonical(m)  # populate the memo under the smart constructors
        with T.smart_constructors_disabled():
            assert canonical(m) == _reference_canonical(m)

    @settings(max_examples=80, deadline=None)
    @given(_action_shapes())
    @example(("plus", ("one",), ("seq", ("one",), ("plus", ("one",), ("prim", PI_A)))))
    def test_unsimplified_terms_match_fresh_canonicalization(self, shape):
        # Terms built without the smart constructors keep units and nested
        # sums under sequences, where canonical() is not idempotent: only the
        # argument, never the result, may key the memo.
        with T.smart_constructors_disabled():
            m = _build_action(shape)
        clear_alphabet_caches()
        expected = _reference_canonical(m)
        assert canonical(m) == expected
        assert canonical(expected) == _reference_canonical(expected)

    def test_clear_alphabet_caches_drops_the_memo(self):
        canonical(T.tplus(B, A))
        assert automata._CANONICAL_CACHE
        clear_alphabet_caches()
        assert not automata._CANONICAL_CACHE


class TestLanguageQueries:
    def test_language_is_empty(self):
        assert language_is_empty(T.tzero())
        assert not language_is_empty(T.tone())
        assert not language_is_empty(T.tstar(A))
        assert language_is_empty(T.tseq(A, T.tzero()))

    def test_equivalence_basics(self):
        assert language_equivalent(T.tstar(T.tstar(A)), T.tstar(A))
        assert language_equivalent(T.tplus(A, B), T.tplus(B, A))
        assert not language_equivalent(A, B)
        assert not language_equivalent(T.tstar(A), A)

    def test_denesting_law(self):
        """(a + b)* == a*;(b;a*)*  (the Denesting consequence of Fig. 5)."""
        lhs = T.tstar(T.tplus(A, B))
        rhs = T.tseq(T.tstar(A), T.tstar(T.tseq(B, T.tstar(A))))
        assert language_equivalent(lhs, rhs)

    def test_sliding_law(self):
        """a;(b;a)* == (a;b)*;a."""
        lhs = T.tseq(A, T.tstar(T.tseq(B, A)))
        rhs = T.tseq(T.tstar(T.tseq(A, B)), A)
        assert language_equivalent(lhs, rhs)

    def test_counterexample_word(self):
        word = counterexample_word(T.tstar(A), T.tseq(A, T.tstar(A)))
        assert word == ()  # epsilon distinguishes a* from a;a*
        assert counterexample_word(T.tstar(A), T.tstar(A)) is None

    def test_counterexample_word_bound_hit_raises(self):
        """Regression: a truncated search must not report "equivalent".

        ``a;a;a`` vs ``a;a;a;a`` differ only at words of length 3/4; with
        ``max_length=2`` the search cannot reach the difference, and the old
        code returned ``None`` — indistinguishable from a proved equivalence.
        """
        m = T.tseq(A, T.tseq(A, A))
        n = T.tseq(A, T.tseq(A, T.tseq(A, A)))
        with pytest.raises(CounterexampleBoundExceeded) as excinfo:
            counterexample_word(m, n, max_length=2)
        assert excinfo.value.max_length == 2
        # With room to run, the same pair yields the genuine shortest witness.
        assert counterexample_word(m, n, max_length=8) == (PI_A, PI_A, PI_A)
        # An equivalence decided within the bound still returns None (the
        # product space is exhausted before any truncation happens).
        assert counterexample_word(T.tstar(A), T.tstar(A), max_length=1) is None

    def test_accepts_word(self):
        term = T.tseq(A, T.tstar(B))
        assert accepts_word(term, (PI_A,))
        assert accepts_word(term, (PI_A, PI_B, PI_B))
        assert not accepts_word(term, (PI_B,))
        assert not accepts_word(term, ())


class TestAgainstEnumeration:
    """Differential testing of the automaton against brute-force enumeration."""

    MAX_LEN = 6

    @settings(max_examples=60, deadline=None)
    @given(restricted_actions(max_leaves=5), restricted_actions(max_leaves=5))
    def test_equivalence_matches_bounded_language_comparison(self, m, n):
        equal = language_equivalent(m, n)
        bounded_equal = language_up_to(m, self.MAX_LEN) == language_up_to(n, self.MAX_LEN)
        if equal:
            assert bounded_equal
        if not bounded_equal:
            assert not equal

    @settings(max_examples=60, deadline=None)
    @given(restricted_actions(max_leaves=5))
    def test_emptiness_matches_enumeration(self, m):
        assert language_is_empty(m) == (not language_up_to(m, self.MAX_LEN))
        # Emptiness of restricted actions is stable under canonicalisation.
        assert language_is_empty(m) == language_is_empty(canonical(m))

    @settings(max_examples=40, deadline=None)
    @given(restricted_actions(max_leaves=5))
    def test_words_accepted_iff_enumerated(self, m):
        for word in language_up_to(m, 3):
            assert accepts_word(m, word)

    @settings(max_examples=40, deadline=None)
    @given(restricted_actions(max_leaves=4))
    def test_canonical_preserves_language(self, m):
        assert language_equivalent(m, canonical(m))
