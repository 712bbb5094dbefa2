"""Independent brute-force oracles the tests check the library against.

Deliberately written with different machinery than the library's
fair-cycle search: path enumeration with recurrence detection for the
one-tape case, and for the two-tape case full configuration matrices with
reachability closures (``ratrel.verify.closure_accepts_pair``).
"""

from __future__ import annotations

from ratrel.buchi import BuchiAutomaton
from ratrel.verify import closure_accepts_pair
from ratrel.words import LassoWord


def naive_buchi_accepts(aut: BuchiAutomaton, w: LassoWord) -> bool:
    """Enumerate runs and look for a state-position recurrence.

    Explores every run whose state-position pairs form a simple path, plus
    one closing step; a repeat with an accepting state inside the repeated
    segment witnesses acceptance, and any accepting run contains such a
    repeat within simple-path length.
    """
    w = w.normal()
    lp, pp = len(w.prefix), len(w.period)

    def reduce_pos(n: int) -> int:
        return n if n < lp else lp + (n - lp) % pp

    def letter(pos: int) -> str:
        return w.prefix[pos] if pos < lp else w.period[pos - lp]

    start = (aut.initial, 0)
    stack: list[list[tuple[str, int]]] = [[start]]
    while stack:
        path = stack.pop()
        state, pos = path[-1]
        ch = letter(pos)
        for src, label, dst in aut.transitions:
            if src != state or label != ch:
                continue
            nxt = (dst, reduce_pos(pos + 1))
            if nxt in path:
                i = path.index(nxt)
                if any(s in aut.accepting for s, _ in path[i:]):
                    return True
                continue
            stack.append(path + [nxt])
    return False


# The two-tape oracle is the one the ``verify`` suite runs; this name stays
# because ``bench/make_reference.py`` imports it.
naive_accepts_pair = closure_accepts_pair
