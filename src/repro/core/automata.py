"""Word automata over restricted actions (paper Section 4.1).

The decision procedure compares the restricted actions of two normal forms as
regular languages.  Following the paper's implementation we use *implicit*
automata whose states are restricted-action terms, with the transition
relation generated on the fly by the Brzozowski derivative, and decide
equivalence with the Hopcroft–Karp union-find algorithm.  Hash-consed smart
constructors keep the set of distinct derivative states small (derivatives of
a regular expression are finite up to the ACI axioms the smart constructors
apply).
"""

from __future__ import annotations

from collections import deque

from repro.core import terms as T
from repro.utils.errors import CounterexampleBoundExceeded, KmtError


# ---------------------------------------------------------------------------
# Brzozowski derivatives
# ---------------------------------------------------------------------------


def nullable(m):
    """True iff the language of ``m`` contains the empty word."""
    if isinstance(m, T.TTest):
        if isinstance(m.pred, T.POne):
            return True
        if isinstance(m.pred, T.PZero):
            return False
        raise KmtError(f"not a restricted action: {m!r}")
    if isinstance(m, T.TPrim):
        return False
    if isinstance(m, T.TPlus):
        return nullable(m.left) or nullable(m.right)
    if isinstance(m, T.TSeq):
        return nullable(m.left) and nullable(m.right)
    if isinstance(m, T.TStar):
        return True
    raise TypeError(f"not a Term: {m!r}")


def canonical(m):
    """Rewrite a restricted action into an ACI-canonical form.

    Brzozowski's theorem guarantees finitely many derivatives only *modulo*
    associativity, commutativity and idempotence of ``+`` (and the unit/zero
    laws).  The binary smart constructors in :mod:`repro.core.terms` only
    catch syntactically adjacent duplicates, so without this pass the
    derivative states of a large sum keep growing forever.  We flatten sums
    into sorted, deduplicated lists and right-associate sequences; together
    with hash consing this keeps the implicit automaton finite.

    Results are memoized on the (hash-consed) argument in a capped table, like
    the alphabet memos below: every derivative re-canonicalizes the unchanged
    subterms of its state, which after the first time are lookups.
    :func:`clear_alphabet_caches` drops the memo.  With the smart constructors
    switched off the rewrites differ, so that mode bypasses the memo.
    """
    if isinstance(m, (T.TTest, T.TPrim)):
        return m
    if not T.CONFIG.smart_constructors:
        return _canonical(m)
    cached = _CANONICAL_CACHE.get(m)
    if cached is None:
        cached = _memo_capped(_CANONICAL_CACHE, m, _canonical(m))
    return cached


def _canonical(m):
    if isinstance(m, T.TStar):
        return T.tstar(canonical(m.arg))
    if isinstance(m, T.TSeq):
        factors = []
        _flatten_seq(m, factors)
        canon_factors = []
        for factor in factors:
            cf = canonical(factor)
            if isinstance(cf, T.TTest) and isinstance(cf.pred, T.PZero):
                return T.tzero()
            if isinstance(cf, T.TTest) and isinstance(cf.pred, T.POne):
                continue
            canon_factors.append(cf)
        result = T.tone()
        for factor in reversed(canon_factors):
            result = T.tseq(factor, result)
        return result
    if isinstance(m, T.TPlus):
        summands = set()
        _flatten_plus(m, summands)
        canon_summands = set()
        for summand in summands:
            cs = canonical(summand)
            if isinstance(cs, T.TTest) and isinstance(cs.pred, T.PZero):
                continue
            canon_summands.add(cs)
        if not canon_summands:
            return T.tzero()
        ordered = sorted(canon_summands, key=lambda t: t.sort_key())
        result = ordered[0]
        for summand in ordered[1:]:
            result = T.tplus(result, summand)
        return result
    raise TypeError(f"not a Term: {m!r}")


def _flatten_plus(m, out):
    if isinstance(m, T.TPlus):
        _flatten_plus(m.left, out)
        _flatten_plus(m.right, out)
    else:
        out.add(m)


def _flatten_seq(m, out):
    if isinstance(m, T.TSeq):
        _flatten_seq(m.left, out)
        _flatten_seq(m.right, out)
    else:
        out.append(m)


#: Optional dict-like memo for :func:`derivative` with ``get(key, default)``
#: and ``put(key, value)`` methods (the engine layer installs a bounded,
#: thread-safe LRU here).  ``None`` means no caching — the seed behaviour.
_DERIVATIVE_CACHE = None

_CACHE_MISS = object()


def set_derivative_cache(cache):
    """Install (or with ``None`` remove) the shared derivative memo table.

    Derivatives are pure functions of hash-consed terms, so a process-wide
    cache is semantically transparent; it exists because the same derivative
    states are recomputed constantly across cells, queries and sessions.
    """
    global _DERIVATIVE_CACHE
    _DERIVATIVE_CACHE = cache


def get_derivative_cache():
    return _DERIVATIVE_CACHE


def derivative(m, pi):
    """The ACI-canonical Brzozowski derivative of ``m`` w.r.t. primitive action ``pi``."""
    cache = _DERIVATIVE_CACHE
    if cache is None:
        return canonical(_derivative_raw(m, pi))
    key = (m, pi)
    cached = cache.get(key, _CACHE_MISS)
    if cached is not _CACHE_MISS:
        return cached
    result = canonical(_derivative_raw(m, pi))
    cache.put(key, result)
    return result


def _derivative_raw(m, pi):
    if isinstance(m, T.TTest):
        if isinstance(m.pred, (T.POne, T.PZero)):
            return T.tzero()
        raise KmtError(f"not a restricted action: {m!r}")
    if isinstance(m, T.TPrim):
        return T.tone() if m.pi == pi else T.tzero()
    if isinstance(m, T.TPlus):
        return T.tplus(_derivative_raw(m.left, pi), _derivative_raw(m.right, pi))
    if isinstance(m, T.TSeq):
        first = T.tseq(_derivative_raw(m.left, pi), m.right)
        if nullable(m.left):
            return T.tplus(first, _derivative_raw(m.right, pi))
        return first
    if isinstance(m, T.TStar):
        return T.tseq(_derivative_raw(m.arg, pi), m)
    raise TypeError(f"not a Term: {m!r}")


# Memo tables for the primitive-action alphabets.  Keys are the hash-consed
# terms themselves (structurally equal nodes are one object, and even after a
# ``clear_intern_table`` a re-built node still compares equal to the old key,
# so entries never go stale).  Before this memo every ``language_compare`` /
# ``language_is_empty`` call re-walked both terms and re-sorted the alphabet
# by ``repr`` — pure waste on the decision procedure's hot loop, which keeps
# comparing the same restricted-action sums.  Each table is capped: a
# long-lived server streaming ever-new terms must not grow them without
# bound (the pair table is quadratic in distinct actions at worst), so on
# overflow a table is simply reset — hot entries re-memoize on next use,
# which is cheaper machinery than a full LRU for what is a pure-function
# memo.
_ALPHABET_CACHE_LIMIT = 1 << 16

_ALPHA_CACHE = {}       # restricted action -> frozenset of primitive actions
_SIGMA_CACHE = {}       # restricted action -> tuple sorted in canonical order
_SIGMA_PAIR_CACHE = {}  # (m, n) -> merged sorted tuple
_CANONICAL_CACHE = {}   # restricted action -> its ACI-canonical form


def clear_alphabet_caches():
    """Drop the alphabet and canonical-form memo tables (never required for
    correctness)."""
    _ALPHA_CACHE.clear()
    _SIGMA_CACHE.clear()
    _SIGMA_PAIR_CACHE.clear()
    _CANONICAL_CACHE.clear()


def _memo_capped(cache, key, value):
    if len(cache) >= _ALPHABET_CACHE_LIMIT:
        cache.clear()
    cache[key] = value
    return value


def _alphabet_of(m):
    cached = _ALPHA_CACHE.get(m)
    if cached is None:
        cached = _memo_capped(_ALPHA_CACHE, m, frozenset(T.primitive_actions(m)))
    return cached


def sorted_alphabet(m):
    """The alphabet of one restricted action in canonical (repr-sorted) order.

    This order is *the* canonical symbol order of the compiled-automaton IR
    (:mod:`repro.core.compile`): transition arrays are indexed by position in
    this tuple, so every consumer must agree on it.
    """
    cached = _SIGMA_CACHE.get(m)
    if cached is None:
        cached = _memo_capped(
            _SIGMA_CACHE, m, tuple(sorted(_alphabet_of(m), key=repr))
        )
    return cached


def sorted_alphabet_pair(m, n):
    """The merged canonical alphabet of two restricted actions (memoized)."""
    if m == n:
        return sorted_alphabet(m)
    key = (m, n)
    cached = _SIGMA_PAIR_CACHE.get(key)
    if cached is None:
        a, b = sorted_alphabet(m), sorted_alphabet(n)
        merged = a if a == b else tuple(sorted(set(a) | set(b), key=repr))
        cached = _memo_capped(_SIGMA_PAIR_CACHE, key, merged)
    return cached


def alphabet(*terms):
    """The combined primitive-action alphabet of the given restricted actions."""
    out = set()
    for m in terms:
        out |= _alphabet_of(m)
    return out


# ---------------------------------------------------------------------------
# language emptiness
# ---------------------------------------------------------------------------


def language_is_empty(m):
    """True iff ``R(m)`` is empty (no reachable nullable derivative)."""
    m = canonical(m)
    sigma = sorted_alphabet(m)
    seen = {m}
    queue = deque([m])
    while queue:
        state = queue.popleft()
        if nullable(state):
            return False
        for pi in sigma:
            nxt = derivative(state, pi)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


# ---------------------------------------------------------------------------
# Hopcroft–Karp equivalence
# ---------------------------------------------------------------------------


class _UnionFind:
    """Union-find over hashable items (path compression, union by size)."""

    def __init__(self):
        self.parent = {}
        self.size = {}

    def find(self, item):
        if item not in self.parent:
            self.parent[item] = item
            self.size[item] = 1
            return item
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def language_compare(m, n, max_states=None, cancel=None):
    """Decide ``R(m) == R(n)`` and produce a witness in a single pass.

    Runs Hopcroft–Karp over Brzozowski derivatives once, threading the access
    word of every state pair through the worklist.  Returns
    ``(equivalent, word)``: ``(True, None)`` when the languages agree, and
    otherwise ``(False, w)`` where ``w`` is a word of primitive actions
    accepted by exactly one side (a genuine distinguishing word, though not
    necessarily a shortest one — use :func:`counterexample_word` for that).

    ``max_states`` optionally bounds the number of explored state pairs as a
    safety valve (derivatives modulo the smart-constructor rewrites are finite,
    so the default of no bound terminates).  ``cancel`` is an optional
    cooperative-cancellation callable invoked once per explored state pair; it
    aborts the comparison by raising (see
    :class:`~repro.utils.errors.QueryCancelled`).
    """
    if not T.is_restricted(m) or not T.is_restricted(n):
        raise KmtError("language_compare expects restricted actions")
    m, n = canonical(m), canonical(n)
    sigma = sorted_alphabet_pair(m, n)
    uf = _UnionFind()
    uf.union(("L", m), ("R", n))
    queue = deque([((), m, n)])
    explored = 0
    while queue:
        word, p, q = queue.popleft()
        explored += 1
        if max_states is not None and explored > max_states:
            raise KmtError(f"language_compare exceeded {max_states} state pairs")
        if cancel is not None:
            cancel()
        if nullable(p) != nullable(q):
            return False, word
        for pi in sigma:
            dp = derivative(p, pi)
            dq = derivative(q, pi)
            if uf.union(("L", dp), ("R", dq)):
                queue.append((word + (pi,), dp, dq))
    return True, None


def language_equivalent(m, n, max_states=None):
    """Decide ``R(m) == R(n)`` (see :func:`language_compare`).

    Returns ``True``/``False``.
    """
    return language_compare(m, n, max_states=max_states)[0]


def counterexample_word(m, n, max_length=16):
    """A shortest word accepted by exactly one of ``m``/``n``, or None.

    Breadth-first product search; mainly a debugging aid for failed
    equivalences and for tests of :func:`language_equivalent` itself.
    ``None`` always means *proved equivalent*: if the search has to truncate
    at ``max_length`` before exhausting the product space, it raises
    :class:`~repro.utils.errors.CounterexampleBoundExceeded` instead of
    silently returning the equivalence answer (the old behaviour conflated
    "equivalent" with "bound hit").  For an exact, bound-free shortest
    witness use :func:`repro.core.compile.compiled_compare`.
    """
    m, n = canonical(m), canonical(n)
    sigma = sorted_alphabet_pair(m, n)
    seen = {(m, n)}
    queue = deque([((), m, n)])
    truncated = False
    while queue:
        word, p, q = queue.popleft()
        if nullable(p) != nullable(q):
            return word
        if len(word) >= max_length:
            truncated = True
            continue
        for pi in sigma:
            dp = derivative(p, pi)
            dq = derivative(q, pi)
            if (dp, dq) not in seen:
                seen.add((dp, dq))
                queue.append((word + (pi,), dp, dq))
    if truncated:
        raise CounterexampleBoundExceeded(max_length)
    return None


def derivative_states(m, max_states=10_000):
    """All derivative states reachable from ``m`` (for diagnostics/benchmarks)."""
    m = canonical(m)
    sigma = sorted_alphabet(m)
    seen = {m}
    queue = deque([m])
    while queue:
        state = queue.popleft()
        for pi in sigma:
            nxt = derivative(state, pi)
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise KmtError(f"derivative_states exceeded {max_states} states")
                seen.add(nxt)
                queue.append(nxt)
    return seen
