"""Independent brute-force oracles the tests check the library against.

Deliberately written with different machinery than the library's
fair-cycle search: path enumeration with recurrence detection for the
one-tape case, and for the two-tape case a nested depth-first search over
the degeneralized product (``ratrel.verify.nested_dfs_accepts_pair``).  The
budgeted search has a letter-by-letter reference that reads transitions
by state name and each word one ``letter_at`` call per letter, the
schema run has one that builds a fresh transition for every letter, and
the run replay one that walks a run transition by transition.  Lasso
normal forms and first differences have letter-by-letter references too.
"""

from __future__ import annotations

import heapq
import math

from ratrel.buchi import BuchiAutomaton
from ratrel.constructions import RunSchema
from ratrel.grid import antidiagonal
from ratrel.twotape import (
    RunPrefix,
    RunReport,
    SearchOutcome,
    SearchStats,
    TwoTapeAutomaton,
    TwoTapeTransition,
    Verdict,
)
from ratrel.verify import nested_dfs_accepts_pair
from ratrel.words import LassoWord, OmegaWord, _primitive_root


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


def reference_normal_parts(prefix: str, period: str) -> tuple[str, str]:
    """``words._normal_parts`` as first written: fold the prefix's last
    letter into a rotation of the period while it equals the period's last."""
    period = _primitive_root(period)
    while prefix and prefix[-1] == period[-1]:
        period = prefix[-1] + period[:-1]
        prefix = prefix[:-1]
    return prefix, period


def reference_first_difference(a: LassoWord, b: LassoWord) -> int | None:
    """``lasso_first_difference`` as first written: one ``letter_at`` call
    per position, up to the longer prefix plus one lcm of the periods."""
    bound = max(len(a.prefix), len(b.prefix)) + math.lcm(len(a.period), len(b.period))
    return next((n for n in range(1, bound + 1) if a.letter_at(n) != b.letter_at(n)), None)


# The two-tape oracle is the nested depth-first search the ``verify`` suite
# runs; this name stays because ``bench/make_reference.py`` imports it.
naive_accepts_pair = nested_dfs_accepts_pair


def reference_bounded_search(
    aut: TwoTapeAutomaton, w1: OmegaWord, w2: OmegaWord, budget: int
) -> SearchOutcome:
    """``bounded_run_search`` as first written: the same best-first order,
    labels and statistics, one ``letter_at`` call per letter matched."""
    stats = reference_search_stats(aut, w1, w2, budget)[-1]
    return SearchOutcome(verdict=Verdict.INCONCLUSIVE, stats=stats)


def reference_search_stats(
    aut: TwoTapeAutomaton, w1: OmegaWord, w2: OmegaWord, budget: int
) -> list[SearchStats]:
    """The statistics of ``reference_bounded_search`` at every budget from 1
    on, from one search: those after each expansion, then, if the heap
    runs dry first, the final ones.  Budget b gets entry min(b, len) - 1."""
    if budget < 1:
        raise ValueError("budget must be >= 1")

    def stats() -> SearchStats:
        return SearchStats(
            expansions=expansions,
            fair_visits=fair_visits,
            deepest=deepest,
            frontier=len(heap),
            exhausted=not heap,
        )

    def match(w: OmegaWord, consumed: int, label: str) -> int | None:
        for ch in label:
            if w.letter_at(consumed + 1) != ch:
                return None
            consumed += 1
        return consumed

    best: dict[tuple[str, int, int], tuple[int, int]] = {}
    heap: list = []
    seq = 0
    start = (aut.initial, 0, 0)
    best[start] = (0, 0)
    heapq.heappush(heap, (0, 0, seq, start, (0, 0, 0)))
    fair_visits = deepest = expansions = 0
    out: list[SearchStats] = []
    while heap and expansions < budget:
        _, _, _, cfg, label = heapq.heappop(heap)
        visits, a1, a2 = label
        cur = best.get(cfg)
        if cur is not None and (cur[0], -cur[1]) > (visits, -(a1 + a2)):
            continue
        expansions += 1
        q, c1, c2 = cfg
        for t in aut.transitions_from(q):
            nc1 = match(w1, c1, t.read1)
            if nc1 is None:
                continue
            nc2 = match(w2, c2, t.read2)
            if nc2 is None:
                continue
            if t.dst in aut.accepting and nc1 > a1 and nc2 > a2:
                nlabel = (visits + 1, nc1, nc2)
            else:
                nlabel = (visits, a1, a2)
            dst = (t.dst, nc1, nc2)
            prev = best.get(dst)
            if prev is not None and (prev[0], -prev[1]) >= (nlabel[0], -(nlabel[1] + nlabel[2])):
                continue
            best[dst] = (nlabel[0], nlabel[1] + nlabel[2])
            fair_visits = max(fair_visits, nlabel[0])
            deepest = max(deepest, min(nc1, nc2))
            seq += 1
            heapq.heappush(heap, (-min(nc1, nc2), nc1 + nc2, seq, dst, nlabel))
        out.append(stats())

    if expansions < budget:
        out.append(stats())
    return out


def reference_schema_run(schema: RunSchema, blocks: int) -> RunPrefix:
    """``schema_to_run`` as first written: one new transition per letter,
    each block read from its antidiagonal letter by letter."""
    x = schema.grid
    T = TwoTapeTransition
    run = [T("q0", "A", "A", "q1")]
    if blocks == 0:
        return RunPrefix(tuple(run))
    block = antidiagonal(x, 2)
    run.extend(T("q1", ch, "", "q1") for ch in block[: schema.split(1)])
    run.append(T("q1", "", "", "q2"))
    for n in range(1, blocks + 1):
        s = schema.split(n)
        run.extend(T("q2", ch, "0", "q2") for ch in block[s:])
        run.append(T("q2", "A", "", "q3"))
        nxt = antidiagonal(x, n + 2)
        run.extend(T("q3", nxt[i], "0", "q3") for i in range(s))
        if schema.growth_at(n):
            run.append(T("q3", "", "", "q4"))
            run.append(T("q4", "", "A", "q2"))
        else:
            run.append(T("q3", nxt[s], "", "q5"))
            run.append(T("q5", "", "A", "q2"))
        block = nxt
    return RunPrefix(tuple(run))


def reference_run_prefix_valid(
    aut: TwoTapeAutomaton, run: RunPrefix, w1: OmegaWord, w2: OmegaWord
) -> RunReport:
    """``run_prefix_valid`` as first written: the chain walked transition by
    transition, the labels joined per tape and the visits counted in a list."""
    problems: list[str] = []
    if not set(aut.transitions).issuperset(run.transitions):
        problems.append("run uses transitions not present in the automaton")

    here = aut.initial
    for t in run.transitions:
        if t.src != here:
            problems.append(f"transition {t} does not start at {here!r}")
            break
        here = t.dst

    u = run.consumed1()
    v = run.consumed2()
    if u != w1.prefix_of(len(u)):
        problems.append("tape-1 labels do not match the first word")
    if v != w2.prefix_of(len(v)):
        problems.append("tape-2 labels do not match the second word")

    visits = len([t for t in run.transitions if t.dst in aut.accepting])
    return RunReport(
        accepting_visits=visits,
        consumed=(len(u), len(v)),
        problems=tuple(problems),
    )
