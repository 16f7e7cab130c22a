"""Helpers for manipulating predicates as Boolean formulas over theory literals."""

from __future__ import annotations

from repro.core import terms as T


def atoms_of(pred):
    """The distinct primitive tests occurring in a predicate, in sorted order."""
    atoms = T.primitive_tests_of_pred(pred)
    wrapped = [T.pprim(a) for a in atoms]
    wrapped.sort(key=lambda p: p.sort_key())
    return [p.alpha for p in wrapped]


def substitute(pred, alpha, value):
    """Replace primitive test ``alpha`` with the constant ``value`` (a bool).

    The substitution is performed with the smart constructors, so the result
    is simplified on the fly (e.g. substituting the only atom of ``a ; ~a``
    collapses the predicate to ``0``).
    """
    if isinstance(pred, (T.PZero, T.POne)):
        return pred
    if isinstance(pred, T.PPrim):
        if pred.alpha == alpha:
            return T.pone() if value else T.pzero()
        return pred
    if isinstance(pred, T.PNot):
        return T.pnot(substitute(pred.arg, alpha, value))
    if isinstance(pred, T.PAnd):
        return T.pand(substitute(pred.left, alpha, value), substitute(pred.right, alpha, value))
    if isinstance(pred, T.POr):
        return T.por(substitute(pred.left, alpha, value), substitute(pred.right, alpha, value))
    raise TypeError(f"not a Pred: {pred!r}")


def substitute_all(pred, assignment):
    """Replace every primitive test in ``assignment`` (``{alpha: bool}``) at once.

    Equal to folding :func:`substitute` over the assignment's items, but the
    predicate is walked once instead of once per literal, and a subterm shared
    within the predicate is rebuilt once.  The smart constructors simplify on
    the way up exactly as they do for single substitutions.
    """
    if not assignment:
        return pred
    done = {}

    def walk(node):
        result = done.get(node)
        if result is not None:
            return result
        if isinstance(node, (T.PZero, T.POne)):
            return node
        if isinstance(node, T.PPrim):
            value = assignment.get(node.alpha)
            if value is None:
                return node
            return T.pone() if value else T.pzero()
        if isinstance(node, T.PNot):
            result = T.pnot(walk(node.arg))
        elif isinstance(node, T.PAnd):
            result = T.pand(walk(node.left), walk(node.right))
        elif isinstance(node, T.POr):
            result = T.por(walk(node.left), walk(node.right))
        else:
            raise TypeError(f"not a Pred: {node!r}")
        done[node] = result
        return result

    return walk(pred)


def evaluate(pred, assignment):
    """Evaluate a predicate under a total assignment ``{alpha: bool}``."""
    if isinstance(pred, T.PZero):
        return False
    if isinstance(pred, T.POne):
        return True
    if isinstance(pred, T.PPrim):
        return bool(assignment[pred.alpha])
    if isinstance(pred, T.PNot):
        return not evaluate(pred.arg, assignment)
    if isinstance(pred, T.PAnd):
        return evaluate(pred.left, assignment) and evaluate(pred.right, assignment)
    if isinstance(pred, T.POr):
        return evaluate(pred.left, assignment) or evaluate(pred.right, assignment)
    raise TypeError(f"not a Pred: {pred!r}")


def conjunction_of(literals):
    """Build the predicate conjunction of ``(alpha, polarity)`` literals."""
    out = T.pone()
    for alpha, polarity in literals:
        lit = T.pprim(alpha) if polarity else T.pnot(T.pprim(alpha))
        out = T.pand(out, lit)
    return out
