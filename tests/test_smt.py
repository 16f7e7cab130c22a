"""Tests for the satisfiability substrate (DPLL(T) engine and the nat solver)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core import terms as T
from repro.smt.dpll import dpll_model, dpll_satisfiable, enumerate_models, naive_satisfiable
from repro.smt.literals import atoms_of, conjunction_of, evaluate, substitute, substitute_all
from repro.smt.natsolver import Bounds, model_bounds, satisfiable_bounds
from repro.theories.bitvec import BitVecTheory, BoolEq
from repro.theories.incnat import Gt, IncNatTheory
from tests.conftest import bitvec_preds, incnat_preds


class TestLiterals:
    def test_atoms_sorted_and_unique(self):
        pred = T.pand(T.pprim(BoolEq("b")), T.por(T.pprim(BoolEq("a")), T.pprim(BoolEq("b"))))
        assert atoms_of(pred) == [BoolEq("a"), BoolEq("b")]

    def test_substitute_simplifies(self):
        a = T.pprim(BoolEq("a"))
        pred = T.pand(a, T.pnot(a))
        # The smart constructors already collapse a;~a, so build indirectly.
        pred = T.pand(a, T.por(T.pnot(a), T.pprim(BoolEq("b"))))
        result = substitute(pred, BoolEq("a"), True)
        assert result == T.pprim(BoolEq("b"))
        assert substitute(pred, BoolEq("a"), False) is T.pzero()

    def test_evaluate(self):
        a = T.pprim(BoolEq("a"))
        b = T.pprim(BoolEq("b"))
        pred = T.por(T.pnot(a), b)
        assert evaluate(pred, {BoolEq("a"): False, BoolEq("b"): False})
        assert not evaluate(pred, {BoolEq("a"): True, BoolEq("b"): False})

    def test_conjunction_of(self):
        literals = [(BoolEq("a"), True), (BoolEq("b"), False)]
        pred = conjunction_of(literals)
        assert evaluate(pred, {BoolEq("a"): True, BoolEq("b"): False})
        assert not evaluate(pred, {BoolEq("a"): True, BoolEq("b"): True})


_BOOL_ATOMS = [BoolEq(v) for v in ("a", "b", "c", "d")]


def _pred_shapes(max_leaves=12):
    """Predicate *recipes*, so a predicate can be built under either
    smart-constructor setting (strategies that build eagerly use the setting
    active at draw time)."""
    leaves = st.one_of(
        st.just(("zero",)),
        st.just(("one",)),
        st.sampled_from(_BOOL_ATOMS).map(lambda alpha: ("prim", alpha)),
    )

    def extend(children):
        return st.one_of(
            children.map(lambda arg: ("not", arg)),
            st.tuples(st.sampled_from(("and", "or")), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


def _build(shape):
    kind = shape[0]
    if kind == "zero":
        return T.pzero()
    if kind == "one":
        return T.pone()
    if kind == "prim":
        return T.pprim(shape[1])
    if kind == "not":
        return T.pnot(_build(shape[1]))
    join = T.pand if kind == "and" else T.por
    return join(_build(shape[1]), _build(shape[2]))


_LITERAL_LISTS = st.lists(
    st.tuples(st.sampled_from(_BOOL_ATOMS), st.booleans()), unique_by=lambda lit: lit[0]
)


def _fold_substitute(pred, literals):
    for alpha, value in literals:
        pred = substitute(pred, alpha, value)
    return pred


class TestSubstituteAll:
    @given(_pred_shapes(), _LITERAL_LISTS)
    def test_matches_folded_substitute(self, shape, literals):
        pred = _build(shape)
        expected = _fold_substitute(pred, literals)
        assert substitute_all(pred, dict(literals)) == expected
        # Folding order is irrelevant, so one simultaneous walk is sound.
        assert _fold_substitute(pred, list(reversed(literals))) == expected

    @given(_pred_shapes(), _LITERAL_LISTS)
    def test_matches_folded_substitute_without_smart_constructors(self, shape, literals):
        with T.smart_constructors_disabled():
            pred = _build(shape)
            expected = _fold_substitute(pred, literals)
            assert substitute_all(pred, dict(literals)) == expected


class TestNatSolver:
    def test_bounds_object(self):
        bounds = Bounds()
        bounds.add_greater_than(3)
        assert bounds.consistent() and bounds.witness() == 4
        bounds.add_not_greater_than(10)
        assert bounds.consistent()
        bounds.add_not_greater_than(3)
        assert not bounds.consistent()

    def test_satisfiable_simple_chain(self):
        assert satisfiable_bounds([("x", 3, True), ("x", 10, False)])
        assert not satisfiable_bounds([("x", 5, True), ("x", 3, False)])
        assert not satisfiable_bounds([("x", 5, True), ("x", 5, False)])

    def test_variables_independent(self):
        assert satisfiable_bounds([("x", 5, True), ("y", 5, False)])

    def test_naturals_lower_bound_is_zero(self):
        # ~(x > 0) alone is satisfiable (x = 0).
        assert satisfiable_bounds([("x", 0, False)])

    def test_model_bounds(self):
        model = model_bounds([("x", 3, True), ("y", 2, False)])
        assert model["x"] == 4
        assert model["y"] == 0
        assert model_bounds([("x", 3, True), ("x", 1, False)]) is None


class TestDpll:
    def test_constants(self):
        theory = BitVecTheory()
        assert dpll_satisfiable(T.pone(), theory)
        assert not dpll_satisfiable(T.pzero(), theory)

    def test_contradiction_detected_via_theory(self):
        """x>5 and ~(x>3) is Boolean-consistent but theory-inconsistent."""
        theory = IncNatTheory()
        pred = T.pand(T.pprim(Gt("x", 5)), T.pnot(T.pprim(Gt("x", 3))))
        assert not dpll_satisfiable(pred, theory)
        assert naive_satisfiable(pred, theory) is False

    def test_satisfiable_bounds_chain(self):
        theory = IncNatTheory()
        pred = T.pand(T.pprim(Gt("x", 3)), T.pnot(T.pprim(Gt("x", 10))))
        assert dpll_satisfiable(pred, theory)

    def test_dpll_model_is_a_model(self):
        theory = IncNatTheory()
        pred = T.por(
            T.pand(T.pprim(Gt("x", 3)), T.pnot(T.pprim(Gt("x", 2)))),  # theory-unsat
            T.pand(T.pprim(Gt("y", 1)), T.pnot(T.pprim(Gt("y", 4)))),  # satisfiable
        )
        model = dpll_model(pred, theory)
        assert model is not None
        assignment = dict(model)
        # The decided literals force the predicate to be true: completing the
        # assignment arbitrarily (here: all False) must still satisfy it, and
        # the decided literals themselves are theory-consistent.
        assert theory.satisfiable_conjunction(model)
        for alpha in atoms_of(pred):
            assignment.setdefault(alpha, False)
        assert evaluate(pred, assignment)

    def test_dpll_model_none_when_unsat(self):
        theory = IncNatTheory()
        pred = T.pand(T.pprim(Gt("x", 5)), T.pnot(T.pprim(Gt("x", 5))))
        assert dpll_model(pred, theory) is None

    def test_enumerate_models_bitvec(self):
        theory = BitVecTheory()
        a = T.pprim(BoolEq("a"))
        b = T.pprim(BoolEq("b"))
        models = list(enumerate_models(T.por(a, b), theory))
        assert len(models) == 3  # TT, TF, FT

    @given(bitvec_preds(max_leaves=5))
    def test_dpll_agrees_with_naive_bitvec(self, pred):
        theory = BitVecTheory()
        assert dpll_satisfiable(pred, theory) == naive_satisfiable(pred, theory)

    @given(incnat_preds(max_leaves=4))
    def test_dpll_agrees_with_naive_incnat(self, pred):
        theory = IncNatTheory()
        assert dpll_satisfiable(pred, theory) == naive_satisfiable(pred, theory)

    @given(incnat_preds(max_leaves=4), st.integers(0, 5), st.integers(0, 5))
    def test_concrete_witness_implies_sat(self, pred, x_value, y_value):
        """If some concrete state satisfies the predicate, the solver says SAT."""
        theory = IncNatTheory()
        assignment = {}
        for alpha in atoms_of(pred):
            value = {"x": x_value, "y": y_value}.get(alpha.var, 0)
            assignment[alpha] = value > alpha.bound
        if evaluate(pred, assignment):
            assert dpll_satisfiable(pred, theory)


class TestEnumerateSignatures:
    """AllSAT-style guard-signature enumeration (blocking clauses + units)."""

    @staticmethod
    def _signatures(guards, theory):
        from repro.smt.dpll import enumerate_signatures

        return list(enumerate_signatures(guards, theory))

    def test_no_guards_yields_single_empty_signature(self):
        found = self._signatures([], BitVecTheory())
        assert found == [((), [])]

    def test_independent_atoms_enumerate_all_combinations(self):
        a, b = T.pprim(BoolEq("a")), T.pprim(BoolEq("b"))
        found = self._signatures([a, b], BitVecTheory())
        assert {signature for signature, _ in found} == {
            (True, True), (True, False), (False, True), (False, False)
        }

    def test_theory_inconsistent_signatures_are_skipped(self):
        # x > 5 without x > 3 is impossible for IncNat.
        g5, g3 = T.pprim(Gt("x", 5)), T.pprim(Gt("x", 3))
        found = self._signatures([g5, g3], IncNatTheory())
        assert {signature for signature, _ in found} == {
            (True, True), (False, True), (False, False)
        }

    def test_logically_linked_guards_share_atoms(self):
        # One guard and its negation can never agree.
        a = T.pprim(BoolEq("a"))
        found = self._signatures([a, T.pnot(a)], BitVecTheory())
        assert {signature for signature, _ in found} == {(True, False), (False, True)}

    def test_shared_conjunction_collapses_cells(self):
        # n+1 atoms but only 2 realizable signatures: the big conjunction
        # either holds or it does not.
        atoms = [T.pprim(BoolEq(name)) for name in ("a", "b", "c", "d")]
        guard = T.pand_all(atoms)
        found = self._signatures([guard], BitVecTheory())
        assert {signature for signature, _ in found} == {(True,), (False,)}

    def test_witnesses_are_consistent_and_determine_guards(self):
        theory = IncNatTheory()
        g1 = T.pand(T.pprim(Gt("x", 1)), T.pprim(Gt("y", 2)))
        g2 = T.por(T.pprim(Gt("x", 4)), T.pprim(Gt("y", 0)))
        for signature, witness in self._signatures([g1, g2], theory):
            assert theory.satisfiable_conjunction(witness) or not witness
            for guard, expected in zip((g1, g2), signature):
                reduced = guard
                for alpha, polarity in witness:
                    reduced = substitute(reduced, alpha, polarity)
                assert isinstance(reduced, (T.POne, T.PZero))
                assert isinstance(reduced, T.POne) == expected

    def test_signatures_are_unique(self):
        guards = [T.pprim(Gt("x", n)) for n in range(4)]
        found = self._signatures(guards, IncNatTheory())
        signatures = [signature for signature, _ in found]
        assert len(signatures) == len(set(signatures))
        # IncNat bounds are linearly ordered: only the 5 monotone valuations.
        assert len(signatures) == 5

    def test_constant_guards_are_respected(self):
        a = T.pprim(BoolEq("a"))
        found = self._signatures([T.pone(), a, T.pzero()], BitVecTheory())
        assert {signature for signature, _ in found} == {
            (True, True, False), (True, False, False)
        }

    def test_terminates_without_smart_constructors(self):
        # Substitution can no longer constant-fold, so the search must fold
        # logically itself (it used to spin yielding duplicate signatures).
        with T.smart_constructors_disabled():
            a, b = T.pprim(BoolEq("a")), T.pprim(BoolEq("b"))
            found = self._signatures([T.pand(a, b), a], BitVecTheory())
        assert sorted(signature for signature, _ in found) == [
            (False, False), (False, True), (True, True)
        ]

    def test_stats_counters_populated(self):
        from repro.smt.dpll import SignatureSearchStats, enumerate_signatures

        stats = SignatureSearchStats()
        guards = [T.pprim(Gt("x", 1)), T.pprim(Gt("x", 3))]
        list(enumerate_signatures(guards, IncNatTheory(), stats=stats))
        assert stats.decisions >= 1
        assert stats.theory_pruned >= 1  # x>3 without x>1 is pruned
        assert "decisions" in stats.as_dict()
