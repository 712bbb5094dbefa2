"""Two-tape Buchi automata: representation, run semantics, decisions.

Transitions consume a finite word on each tape (either may be empty), and
acceptance asks for a run that visits an accepting state infinitely often
while consuming both infinite words entirely.  A run that eventually stops
consuming one of the tapes is not a computation over the word pair and
never accepts, which is also why cycles made purely of (empty, empty)
labels do not count as accepting behaviour.

For ultimately periodic inputs membership is decided exactly on the finite
graph of (state, tape-1 position, tape-2 position) configurations, where a
position is absolute inside the lasso prefix and a phase inside the
period.  One compile pass per automaton gives its rows, accepting
components, self-loop summaries and reverse edges.  A liveness analysis,
memoised with them per letter sets of the pair, comes first: the search
enters only live states, which reach a component able to carry an
accepting tail over the words' letters.  The graph is explored on the
fly, never stored, and the tapes are read only where the search goes: a
label's next position on a tape is found on its first read from a
position, run ends by bisection in the positions of the letters outside
a set of loop letters, configurations are packed into ints, and one
Couvreur-style SCC search with three edge marks (accepting state entered,
tape-1 letter consumed, tape-2 letter consumed), trying transitions
towards final states first, stops at the first component that carries all
three.  That is its only way to accept.

Runs on one state's self-loops become macro edges, in the manner of
Boigelot's meta-transitions (1998), which FAST (Bardin, Finkel, Leroux
and Petrucci, 2003) applies to counter loops; on single-letter loops
they are sound because the loops on the two tapes commute, as in
Godefroid's partial-order methods (1996).  A corner-only state loops on
letters L1 of tape 1 and L2 of tape 2, one of them possibly empty, and
no other transition of it can fire before each tape with loop letters
reaches a letter outside them.  Its loops sweep a rectangle of
configurations, a segment where one side is empty, and the search
crosses it in one edge to the corner, the first positions whose letters
are outside L1 and L2, so a pair of long blocks costs one edge instead
of the product of their lengths, and one long block one edge.  A final state (accepting, with a
self-loop for every letter of both periods) takes the same edge where
its corner lies at infinity: once the rest of each lasso prefix reads on
its loops, one edge carrying all three marks reads that rest, and at the
start of both periods the same edge is a self-loop once round each,
which the search closes at once.  A lockstep state loops on (a, b), one
letter on each tape, for every a in L1 and b in L2, and each of its
other transitions is inert inside that run: the first letter it can
read on tape 1 is outside L1, or the first on tape 2 is outside L2,
found through the transitions that read nothing on that tape.  The
search crosses the diagonal run in one edge to where the first of the
two tapes leaves its letters, so two blocks compared letter against
letter cost one edge instead of one per letter.

The certificate is the search stack plus a cycle rebuilt inside the
component from the visited configurations, with every macro edge
expanded into the automaton's own loop transitions.  It is built on the
first read of the outcome's ``certificate``, as on-the-fly emptiness
checks find the accepting component first and extract the run only on
demand (Couvreur 1999; Gaiser and Schwoon 2009): a caller that reads
only the verdict never pays for it.

A budgeted best-first search gathers evidence on block-word inputs,
over the same compiled rows indexed by the next letter on each tape and
one text per word.  It never decides: it is inconclusive on every input,
lassos included, which go to the exact decision above.
"""

from __future__ import annotations

import enum
import heapq
import json
import re
from bisect import bisect_left
from collections import deque
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from math import inf
from typing import NamedTuple

from ._scc import tarjan_scc
from .words import Alphabet, AlphabetMismatch, BlockWord, LassoWord, OmegaWord, unique_keys


class InvalidAutomaton(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class TwoTapeTransition(NamedTuple):
    src: str
    read1: str
    read2: str
    dst: str


@dataclass(frozen=True)
class TwoTapeAutomaton:
    states: tuple[str, ...]
    sigma1: Alphabet
    sigma2: Alphabet
    transitions: tuple[TwoTapeTransition, ...]
    initial: str
    accepting: frozenset[str]

    def __post_init__(self):
        object.__setattr__(
            self, "transitions", tuple(sorted(TwoTapeTransition(*t) for t in self.transitions))
        )
        object.__setattr__(self, "accepting", frozenset(self.accepting))

    def transitions_from(self, state: str) -> tuple[TwoTapeTransition, ...]:
        return self._by_src.get(state, ())

    @cached_property
    def _by_src(self) -> dict[str, tuple[TwoTapeTransition, ...]]:
        grouped: dict[str, list[TwoTapeTransition]] = {}
        for t in self.transitions:
            grouped.setdefault(t.src, []).append(t)
        return {s: tuple(ts) for s, ts in grouped.items()}

    @cached_property
    def _compiled(self) -> _Compiled:
        return _compile_automaton(self)


def validate(aut: TwoTapeAutomaton) -> None:
    """Check the structural invariants; raise InvalidAutomaton listing violations."""
    problems: list[str] = []
    states = set(aut.states)
    if len(states) != len(aut.states):
        problems.append("duplicate state names")
    if aut.initial not in states:
        problems.append(f"initial state {aut.initial!r} not among states")
    for q in aut.accepting - states:
        problems.append(f"accepting state {q!r} not among states")
    for t in aut.transitions:
        if t.src not in states:
            problems.append(f"transition source {t.src!r} not among states")
        if t.dst not in states:
            problems.append(f"transition target {t.dst!r} not among states")
        try:
            aut.sigma1.check_word(t.read1, "tape-1 label")
        except AlphabetMismatch as exc:
            problems.append(str(exc))
        try:
            aut.sigma2.check_word(t.read2, "tape-2 label")
        except AlphabetMismatch as exc:
            problems.append(str(exc))
    if problems:
        raise InvalidAutomaton(problems)


def _closure(seeds, edges: dict) -> dict:
    """Everything reachable from seeds, seeds included, along edges, with
    its breadth-first distance from the seeds."""
    seen = dict.fromkeys(seeds, 0)
    todo = list(seen)
    for here in todo:  # grows while it is walked: breadth-first order
        depth = seen[here] + 1
        for nxt in edges.get(here, ()):
            if nxt not in seen:
                seen[nxt] = depth
                todo.append(nxt)
    return seen


def union(a: TwoTapeAutomaton, b: TwoTapeAutomaton) -> TwoTapeAutomaton:
    """Automaton for the union of the two relations.

    Disjointly renames both machines and adds a fresh initial state that
    copies every transition leaving either original initial state, so no
    (empty, empty) bridge is introduced.
    """
    if a.sigma1 != b.sigma1 or a.sigma2 != b.sigma2:
        raise AlphabetMismatch("union requires matching tape alphabets")
    ra = {s: f"L.{s}" for s in a.states}
    rb = {s: f"R.{s}" for s in b.states}
    init = "u0"
    transitions = [
        TwoTapeTransition(ra[t.src], t.read1, t.read2, ra[t.dst]) for t in a.transitions
    ] + [TwoTapeTransition(rb[t.src], t.read1, t.read2, rb[t.dst]) for t in b.transitions]
    for t in a.transitions_from(a.initial):
        transitions.append(TwoTapeTransition(init, t.read1, t.read2, ra[t.dst]))
    for t in b.transitions_from(b.initial):
        transitions.append(TwoTapeTransition(init, t.read1, t.read2, rb[t.dst]))
    return TwoTapeAutomaton(
        states=(init,) + tuple(ra[s] for s in a.states) + tuple(rb[s] for s in b.states),
        sigma1=a.sigma1,
        sigma2=a.sigma2,
        transitions=tuple(transitions),
        initial=init,
        accepting=frozenset({ra[s] for s in a.accepting} | {rb[s] for s in b.accepting}),
    )


def epsilon_normalize(aut: TwoTapeAutomaton) -> TwoTapeAutomaton:
    """Equivalent automaton without (empty, empty) transitions.

    Silent segments are folded into their predecessors; a silent path that
    passes through an accepting state is remembered by routing the folded
    transition into an accepting copy of its target, so accepting visits
    that happened mid-segment still recur in the folded run.  Every
    automaton folds: a state whose silent closure holds no consuming
    transition (an accepting silent cycle with no way out, say) becomes a
    dead end, which accepts nothing, as the silent cycle never did.
    """
    eps_edges: dict[str, list[str]] = {}
    for t in aut.transitions:
        if t.read1 == "" and t.read2 == "":
            eps_edges.setdefault(t.src, []).append(t.dst)
    if not eps_edges:
        return aut

    suffix = "+"
    names = set(aut.states)
    while any(s + suffix in names for s in aut.states):
        suffix += "+"

    consuming: dict[str, list[TwoTapeTransition]] = {}
    for t in aut.transitions:
        if t.read1 or t.read2:
            consuming.setdefault(t.src, []).append(t)

    # silent steps over (state, accepting-passed); states strictly after q get folded away
    flag_edges = {
        (x, flagged): [(y, flagged or y in aut.accepting) for y in ys]
        for x, ys in eps_edges.items()
        for flagged in (False, True)
    }
    folded = {
        q: [
            (t.read1, t.read2, t.dst, flagged)
            for r, flagged in sorted(_closure([(q, False)], flag_edges))
            for t in consuming.get(r, ())
        ]
        for q in aut.states
    }

    # a folded row that passed an accepting state enters the accepting copy of its target
    plus = dict.fromkeys(dst for rows in folded.values() for _, _, dst, flagged in rows if flagged)
    transitions = {
        TwoTapeTransition(src, read1, read2, dst + suffix if flagged else dst)
        for src, base in [(q, q) for q in aut.states] + [(b + suffix, b) for b in plus]
        for read1, read2, dst, flagged in folded[base]
    }
    plus_names = {base + suffix for base in plus}

    edges: dict[str, list[str]] = {}
    for t in transitions:
        edges.setdefault(t.src, []).append(t.dst)
    keep = _closure({aut.initial}, edges)
    kept_trans = tuple(t for t in transitions if t.src in keep and t.dst in keep)
    kept_states = tuple(s for s in aut.states if s in keep) + tuple(
        sorted(plus_names & keep.keys())
    )
    accepting = frozenset(
        {s for s in aut.accepting if s in keep} | (plus_names & keep.keys())
    )
    return TwoTapeAutomaton(
        states=kept_states,
        sigma1=aut.sigma1,
        sigma2=aut.sigma2,
        transitions=kept_trans,
        initial=aut.initial,
        accepting=accepting,
    )


@dataclass(frozen=True)
class RunPrefix:
    """Finite chain of transitions, starting at the automaton's initial state."""

    transitions: tuple[TwoTapeTransition, ...]

    def consumed1(self) -> str:
        return "".join([t.read1 for t in self.transitions])

    def consumed2(self) -> str:
        return "".join([t.read2 for t in self.transitions])

    def __len__(self) -> int:
        return len(self.transitions)


@dataclass(frozen=True)
class RunReport:
    accepting_visits: int
    consumed: tuple[int, int]
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def run_prefix_valid(
    aut: TwoTapeAutomaton, run: RunPrefix, w1: OmegaWord, w2: OmegaWord
) -> RunReport:
    """Replay a run prefix against a word pair.

    Checks that the transitions exist and chain from the initial state and
    that the concatenated labels are prefixes of the two words.  Accepting
    visits count the states entered after each transition.
    """
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


class Verdict(enum.Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Certificate:
    stem: RunPrefix
    cycle: RunPrefix


@dataclass(frozen=True)
class SearchStats:
    expansions: int
    fair_visits: int
    deepest: int
    frontier: int
    exhausted: bool


class _BuiltOnRead:
    """A dataclass field, None by default, that may also be given a
    ``functools.partial`` that builds its value: the first read calls it
    and stores the value in its place, dropping the partial and all it
    holds.  Every read goes through here, the generated ``==``, ``hash``
    and ``repr`` included, so they see the built value."""

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the field's default
        value = obj.__dict__[self.name]
        if value.__class__ is partial:
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class SearchOutcome:
    """A verdict, with the certificate of an accepted lasso pair or the
    statistics of a budgeted search.  ``accepts_lasso_pair`` builds the
    certificate on its first read (``_BuiltOnRead``); until then the
    outcome holds the finished search it is built from."""

    verdict: Verdict
    certificate: Certificate | None = _BuiltOnRead()
    stats: SearchStats | None = None

    def __getstate__(self) -> dict:
        self.certificate  # pickled and copied outcomes carry the built certificate
        return self.__dict__


# Edge marks of the fair-cycle search.
ACC, T1, T2 = 1, 2, 4
_ALL = ACC | T1 | T2


class _Compiled(NamedTuple):
    """The integer form of an automaton, built once by ``_compile_automaton``."""

    initial: int
    labels1: list[str]
    labels2: list[str]
    rows: list[list[tuple]]
    tails: list[tuple[set, set, set]]
    loops: dict[int, tuple]
    back: dict[int, list[int]]
    lockstep: dict[int, tuple]
    memo: dict


def _compile_automaton(aut: TwoTapeAutomaton) -> _Compiled:
    """Integer form, from one walk over each state's rows once the
    components are known: the initial state id; the distinct labels of each
    tape; per state id its rows (label-1 index, label-2 index, target id,
    marks, transition); per component with a cycle through an accepting
    state, its state ids and the letters its internal edges read on each
    tape (``tails``); the loop summary; the reverse edges, target id -> the
    source ids of its rows; the lockstep summary; and a memo of
    ``_liveness``'s per-pair results.

    The loop summary holds the states with one-letter self-loops (a, "")
    for a in L1 and ("", b) for b in L2, L1 or L2 non-empty: id -> (tape-1
    loops, tape-2 loops, ACC if accepting else 0, corner-only), each loop
    map sending a letter of L1 or L2 to the automaton's own self-loop that
    reads it.  One rule makes a state corner-only: for each tape i whose
    Li is non-empty, every transition leaving it other than those loops
    has a non-empty tape-i label that starts outside Li.  From (q, p1, p2)
    the loops sweep the rectangle up to the first positions r1, r2 whose
    letters are outside L1 and L2, a segment where some Li is empty and so
    ri = pi, and nothing else fires before its corner (r1, r2).

    The lockstep summary holds the states with a self-loop (a, b) for
    every a in L1 and b in L2, L1 and L2 non-empty, whose other
    transitions are all inert inside the loops' run: id -> (L1, L2, the
    pair loops by (a, b), ACC if accepting else 0).  A transition is inert
    when its first tape-1 read misses L1 or its first tape-2 read misses
    L2 (``guard``), the first read of a tape being the transition's own
    first letter there, or, where its label on that tape is empty, the
    first letter there of any row from a state that its target reaches
    along rows silent on that tape (a ``_closure``).  Those rows are
    gathered per tape only once a guard needs them.
    """
    names = dict.fromkeys(
        (*aut.states, aut.initial, *(x for t in aut.transitions for x in (t.src, t.dst)))
    )
    ids = {s: i for i, s in enumerate(names)}
    labels1 = sorted({t.read1 for t in aut.transitions})
    labels2 = sorted({t.read2 for t in aut.transitions})
    rows: list[list] = [[] for _ in ids]
    for t in aut.transitions:
        marks = (ACC if t.dst in aut.accepting else 0) | (T1 if t.read1 else 0)
        marks |= T2 if t.read2 else 0
        row = (labels1.index(t.read1), labels2.index(t.read2), ids[t.dst], marks, t)
        rows[ids[t.src]].append(row)
    comp = tarjan_scc(len(ids), [[row[2] for row in rs] for rs in rows])
    accepting = {comp[ids[q]] for q in aut.accepting if q in ids}
    # per component with a cycle through an accepting state: its states, each
    # the source of an edge inside it, and the letters those edges read
    tails: dict[int, tuple[set, set, set]] = {}
    loops: dict[int, tuple] = {}
    back: dict[int, list[int]] = {}
    lockstep: dict[int, tuple] = {}
    silent: dict[int, dict] = {}  # per tape: source id -> targets of its rows silent there

    def guard(t: TwoTapeTransition, tape: int) -> Collection[str]:
        if t[tape]:
            return t[tape][0]
        if tape not in silent:
            silent[tape] = {q: [row[2] for row in rs if not row[4][tape]] for q, rs in enumerate(rows)}
        return {row[4][tape][0] for r in _closure([ids[t.dst]], silent[tape]) for row in rows[r]
                if row[4][tape]}

    for q, rs in enumerate(rows):
        c = comp[q]
        loops1, loops2, pairs, exits, acc = {}, {}, {}, [], 0
        for _, _, dst, m, t in rs:
            back.setdefault(dst, []).append(q)
            if c in accepting and comp[dst] == c:
                tail = tails.setdefault(c, (set(), set(), set()))
                tail[0].add(q)
                tail[1].update(t.read1)
                tail[2].update(t.read2)
            if dst != q:
                exits.append(t)
                continue
            acc = m & ACC
            if len(t.read1) + len(t.read2) == 1:
                (loops1 if t.read1 else loops2)[t.read1 + t.read2] = t
            else:
                exits.append(t)
                if len(t.read1) == len(t.read2) == 1:
                    pairs[t.read1, t.read2] = t
        if loops1 or loops2:
            loops[q] = loops1, loops2, acc, all(
                t[i] and t[i][0] not in li for t in exits for i, li in ((1, loops1), (2, loops2)) if li
            )
        if pairs:
            l1, l2 = {a for a, _ in pairs}, {b for _, b in pairs}
            if len(pairs) == len(l1) * len(l2) and all(
                l1.isdisjoint(guard(t, 1)) or l2.isdisjoint(guard(t, 2))
                for *_, t in rs if t not in pairs.values()
            ):
                lockstep[q] = frozenset(l1), frozenset(l2), pairs, acc
    return _Compiled(ids[aut.initial], labels1, labels2, rows, list(tails.values()), loops, back,
                     lockstep, {})


def _liveness(compiled: _Compiled, w1: LassoWord, w2: LassoWord) -> tuple | None:
    """None if the pair is rejected at once, else the final states for the
    periods, the rows in search order and a byte mask of the live states.

    A state is live when it reaches, along fitting edges (labels over the
    words' letters), a covering component: one of ``tails`` whose edges
    read every letter of both periods.  An accepting run's tail stays in a
    covering component and all its edges fit, so all its states are live:
    the pair is rejected at once unless the initial state is, and the
    search skips every row into a state that is not.  Final states
    (accepting, with a self-loop for every letter of both periods) are
    live.  Rows are sorted, stably, nearest a final state along any edge
    first, by a closure over the compiled reverse edges.  Memoised per four
    letter sets (words, periods), with one copy of each set under
    ``"letters"``, of each equal result under (final states, mask) and of
    each row order under its set of final states.
    """
    initial, labels1, labels2, rows, tails, loops, back, _, memo = compiled
    need1, need2 = frozenset(w1.period), frozenset(w2.period)
    key = (need1.union(w1.prefix), need2.union(w2.prefix), need1, need2)
    if key in memo:
        return memo[key]
    sets = memo.setdefault("letters", {})
    key = word1, word2, need1, need2 = tuple(map(sets.setdefault, key, key))
    memo[key] = None  # until the initial state is found live
    covering = [q for states, read1, read2 in tails if need1 <= read1 and need2 <= read2
                for q in states]
    if not covering:
        return None
    fits1 = [set(label) <= word1 for label in labels1]
    fits2 = [set(label) <= word2 for label in labels2]
    fitting: dict[int, list[int]] = {}
    for src, rs in enumerate(rows):
        for a, b, d, _, _ in rs:
            if fits1[a] and fits2[b]:
                fitting.setdefault(d, []).append(src)
    live = _closure(covering, fitting)
    if initial not in live:
        return None
    final = frozenset(q for q, (l1, l2, acc, _) in loops.items()
                      if acc and need1 <= l1.keys() and need2 <= l2.keys())
    if final and final not in memo:
        distance = _closure(final, back)
        memo[final] = [sorted(rs, key=lambda row: distance.get(row[2], len(rows))) for rs in rows]
    live = bytes(q in live for q in range(len(rows)))
    memo[key] = memo.setdefault((final, live), (final, memo[final] if final else rows, live))
    return memo[key]


def accepts_lasso_pair(
    aut: TwoTapeAutomaton, w1: LassoWord, w2: LassoWord
) -> SearchOutcome:
    """Decide membership of an ultimately periodic pair; sound and complete.

    A pair is accepted iff the reachable configuration graph has a
    strongly connected component whose internal edges carry all three
    marks: ``ACC`` (the edge enters an accepting state), ``T1`` (it
    consumes a tape-1 letter) and ``T2`` (it consumes a tape-2 letter).
    Inside one component those edges always compose into a single fair
    cycle, and conversely any accepting run yields such a component.

    The liveness analysis ``_liveness``, cached with the compiled
    automaton, comes first: it rejects at once unless the initial state is
    live, and the search enters live states only.  A skipped configuration
    reaches no open component, so the rest are visited in the same order.

    The graph is never built, and the tapes are read only where the
    search goes.  Each distinct label has a table per tape of the position
    after reading it from each position, and an entry is filled on its
    first read (``_read``, wrapping in the period); configurations are
    packed into ints, and beside those tables the call holds one record
    per state it visits, nothing per (state, position).  One iterative
    Couvreur-style DFS explores the product on the fly, trying first the
    transitions nearest a final state, and keeps, for every root of a
    partial component, the marks of the edges merged into it; it stops as
    soon as a root holds all three.  It is complete whatever the order.

    Two kinds of macro edge stand for runs on one state's self-loops, and
    a certificate that uses one expands it into those loops.  Corner
    jumps run on the single-letter loops of the loop summary of
    ``_compile_automaton``, expanded tape 1 first, then tape 2; lockstep
    jumps run on the pair loops of its lockstep summary, expanded pair by
    pair.

    A corner-only state (the loop summary again) takes corner jumps
    instead of its loops.  From (q, p1, p2) the one successor is the macro
    edge to (q, r1, r2), where ri is the first position from pi on, wrapping
    in the period, whose letter is outside q's tape-i loop letters (pi
    itself where q has none, so that a one-sided jump moves one tape); it
    carries ``T1`` if r1 != p1, ``T2`` if r2 != p2 and ``ACC`` if q is
    accepting.  At the corner itself only q's other transitions fire, and no
    other configuration of the rectangle can fire them, so the jump keeps
    reachability among the remaining configurations and every fair cycle.
    Where some ri does not exist, tape i reads on the loops forever and no
    run leaves q; one that stays is fair only if both tapes do and q
    accepts, which makes q final (``_liveness``: accepting, with a
    self-loop for every letter of both periods).  There the corner lies at
    infinity, and a final state takes that jump, corner-only or not: from
    (q, p1, p2) where the rest of each lasso prefix reads on q's loops,
    its first successor is the macro edge to (q, max(p1, lp1), max(p2,
    lp2)), lpi the length of prefix i, marked with all three marks.
    Inside both periods that edge is a self-loop, once round each period,
    which the search closes as soon as it tries it; from a prefix position
    it reads the rest of each prefix and lies on no cycle, since no
    configuration goes back into a prefix.  So a discovered final
    configuration accepts at once, whatever q's other transitions.  Any
    other configuration without r1 or r2 is a dead end.

    A lockstep state (the lockstep summary: a pair loop (a, b) for every a
    in L1 and b in L2, and every other transition inert) takes lockstep
    jumps instead of its pair loops.  From (q, p1, p2) let di be the number
    of letters tape i reads from pi on before its first letter outside Li,
    wrapping in the period (``_run_length``), and k = min(d1, d2).  Where
    k > 0 the one successor is the macro edge to (q, p1 + k, p2 + k), each
    position advanced in its lasso: past the end of the text it goes on in
    the period, modulo its length (``_advance``).  The edge carries ``T1``,
    ``T2`` and ``ACC`` if q is accepting, the marks of the k loops it
    stands for.  While both next letters are in L1 and L2, every other
    transition of q is inert: its first tape-1 read misses L1 or its first
    tape-2 read misses L2, so a run that takes it can never read that tape
    again, and neither can any configuration it reaches, which thus lies on
    no fair cycle.  q's single-letter loops, if it has any, are such
    transitions too, so they read no letter of L1 or L2, and q's corner
    jump never starts inside the run.  So inside the diagonal
    run each configuration has one useful successor, the next one along
    it, and the jump keeps reachability among the remaining
    configurations and every fair cycle.
    Where k = 0 some tape's next letter is outside its Li, no pair loop
    matches, and q's rows apply as they are.  Where neither tape ever
    leaves its letters (d1 = d2 = inf) q steps along its loops: the
    diagonal would cycle only after lcm(periods) letters.

    A state's jumps and its rows into live states are one record built
    once per call, on its first configuration.  The jumps come lockstep
    first, then corner or turn, each holding the run ends of both tapes,
    ACC, and whether it is lockstep and whether the state is corner-only;
    a corner-only state keeps only the rows that can match at its corner.
    Every configuration tests the jumps, finding d1 and d2 each by
    bisection, wrapping in the period (``_run_length``), in the sorted
    positions of the tape's letters outside the loop letters.  That list
    is built on first need, once per call, tape and letter set, and shared
    by every state with those loop letters, by one ``re.finditer`` pass.
    So a jump costs two bisections per tape at most, whatever the letters
    it crosses, and each list passes each letter once.  The position from which a tape
    reads on the loops forever, if it does, comes with the list, so a run
    that never ends costs no bisection, and a final state that is not
    corner-only tests at each configuration whether it turns without one.
    A lockstep jump that jumps is tried before q's rows are read, so a
    configuration it jumps from reads no label.

    Accepted verdicts carry a replayable stem-plus-cycle certificate,
    built on the first read of ``certificate`` and stored: until then the
    outcome holds the finished search (its successor and step functions,
    the DFS numbers, the frames and the root of the accepting component),
    and the read drops it.  Nothing else holds that state, so an outcome
    whose certificate is never read frees it with the outcome.  The
    stem follows the DFS stack to the root of the accepting component, and
    the cycle is stitched from breadth-first paths inside it, over visited
    configurations only, that pick up each mark in turn and return to the
    root.  Each edge comes with the letters a macro edge reads, so only
    the edges of the stem and the cycle are expanded, each once.  After a
    final configuration the stem ends with the jump that reads the rest of
    each prefix, and the cycle is the self-loop at the corner at infinity:
    once round the tape-1 period, then the tape-2 period.
    """
    aut.sigma1.check_word(w1.letters(), "tape-1 word")
    aut.sigma2.check_word(w2.letters(), "tape-2 word")
    w1, w2 = w1.normal(), w2.normal()
    compiled = aut._compiled
    analysis = _liveness(compiled, w1, w2)
    if analysis is None:
        return SearchOutcome(verdict=Verdict.REJECTED)
    initial, labels1, labels2, _, _, loops, _, lockstep, _ = compiled
    final, rows, live = analysis
    text1, text2 = w1.prefix + w1.period, w2.prefix + w2.period
    n1, n2 = len(text1), len(text2)
    lp1, lp2 = len(w1.prefix), len(w2.prefix)
    # per label, the position after reading it from each position, -2 until
    # first read and negative where it does not match (``_read``)
    tabs1 = [[-2] * n1 for _ in labels1]
    tabs2 = [[-2] * n2 for _ in labels2]
    stops: dict[tuple, tuple] = {}  # per tape and loop letters: see run_end

    def run_end(letters: Collection[str], tape: int) -> tuple[Sequence[int], int | None]:
        """The positions of one tape's text whose letters are outside a
        state's loop letters, in order, and the position from which the
        tape reads on them forever, None where its period leaves them.
        Built once per call, tape and letter set, by one ``re.finditer``
        pass; without loop letters every position is listed, as a range."""
        letters = frozenset(letters)
        key = tape, letters
        if key not in stops:
            text, lp = (text1, lp1) if tape == 1 else (text2, lp2)
            outside = f"[^{re.escape(''.join(sorted(letters)))}]"
            at = [m.start() for m in re.finditer(outside, text)] if letters else range(len(text))
            stops[key] = at, (None if at and at[-1] >= lp else at[-1] + 1 if at else 0)
        return stops[key]

    def macro(q: int, p1: int, p2: int, jump: tuple) -> tuple[int, float, float]:
        """The successor code of one of q's jumps from (q, p1, p2), and
        the letters it reads on each tape; (0, 0, 0) where it does not
        jump.  A lockstep jump reads k = min(d1, d2) letters on both
        tapes; a corner jump d1 on tape 1 and d2 on tape 2.  Where both
        tapes read on a final state's loops forever the corner lies at
        infinity: the jump is the turn, marked with all three marks, which
        reads the rest of each prefix, or once round both periods from
        inside both.  A final state that is not corner-only takes only its
        turn, so it tests first, without a bisection, whether tape 1 reads
        on its loops forever.  Otherwise no jump where a tape reads on the
        loops forever, nor where neither tape moves."""
        stops1, start1, stops2, start2, acc, lock, only = jump
        if not (lock or only) and p1 < start1:
            return 0, 0, 0
        d1 = _run_length(stops1, n1, lp1, p1, start1)
        if d1 == inf and not lock:  # a final state's turn, once tape 2 too reads on its loops
            if q not in final or p2 < start2:
                return 0, 0, 0
            code = ((q * n1 + max(p1, lp1)) * n2 + max(p2, lp2)) << 3 | _ALL
            if p1 < lp1 or p2 < lp2:
                return code, max(lp1 - p1, 0), max(lp2 - p2, 0)
            return code, n1 - lp1, n2 - lp2
        d2 = _run_length(stops2, n2, lp2, p2, start2)
        if lock:
            d1 = d2 = min(d1, d2)
        if d2 == inf or not (d1 or d2):
            return 0, 0, 0
        target = (q * n1 + _advance(p1, d1, n1, lp1)) * n2 + _advance(p2, d2, n2, lp2)
        return target << 3 | (T1 if d1 else 0) | (T2 if d2 else 0) | acc, d1, d2

    # Configuration (q, p1, p2) is the int (q * n1 + p1) * n2 + p2.  Per
    # state id, one record built on its first configuration (``record``):
    # its jumps, lockstep first, then corner or turn, each as the
    # ``run_end`` of tape 1 and of tape 2, ACC or 0, lockstep or not, and
    # corner-only or not; and its rows into live states, each as (tape-1
    # table, tape-1 label, tape-2 table, tape-2 label, target id * n1,
    # marks, transition).  A configuration's successors are its state's
    # jumps that jump, tried first, then the rows whose labels match on
    # both tapes; where a lockstep jump jumps, it is the only successor.
    states: dict[int, tuple] = {}

    def record(q: int) -> tuple:
        jumps, corner = (), q in loops and loops[q][3]
        if q in lockstep:
            l1, l2, _, acc = lockstep[q]
            jumps = (*run_end(l1, 1), *run_end(l2, 2), acc, True, False),
        if q in final or corner:
            l1, l2, acc, _ = loops[q]
            jumps += (*run_end(l1, 1), *run_end(l2, 2), acc, False, corner),
        rs = [(tabs1[a], labels1[a], tabs2[b], labels2[b], d * n1, m, t)
              for a, b, d, m, t in rows[q] if live[d]]
        if corner:
            # A corner-only state's loops give way to one macro edge to the
            # corner of their rectangle.  Its other rows, kept as each first
            # letter is outside that tape's loop letters, match only at the
            # corner.
            l1, l2 = loops[q][:2]
            rs = [row for row in rs if row[6].read1[:1] not in l1 and row[6].read2[:1] not in l2]
        return jumps, rs

    def successors(c: int) -> list[int]:
        """Successor codes ``config << 3 | marks`` of configuration c."""
        rest, p2 = divmod(c, n2)
        q, p1 = divmod(rest, n1)
        rec = states.get(q)
        if rec is None:
            rec = states[q] = record(q)
        jumps, rs = rec
        out = []
        for jump in jumps:
            code = macro(q, p1, p2, jump)[0]
            if code:
                if jump[5]:
                    return [code]
                out.append(code)
        for tab1, label1, tab2, label2, d, m, _ in rs:
            y1 = tab1[p1]
            if y1 == -2:
                y1 = tab1[p1] = _read(text1, lp1, label1, p1)
            if y1 >= 0:
                y2 = tab2[p2]
                if y2 == -2:
                    y2 = tab2[p2] = _read(text2, lp2, label2, p2)
                if y2 >= 0:
                    out.append(((d + y1) * n2 + y2) << 3 | m)
        return out

    def edges(c: int) -> list[tuple[int, tuple]]:
        """``successors(c)`` of a visited configuration c, each with what
        it stands for: its row's transition, or the letters a macro edge
        reads on each tape and whether it is a lockstep jump."""
        rest, p2 = divmod(c, n2)
        q, p1 = divmod(rest, n1)
        jumps, rs = states[q]
        out = []
        for jump in jumps:
            code, d1, d2 = macro(q, p1, p2, jump)
            if code:
                if jump[5]:
                    return [(code, (d1, d2, True))]
                out.append((code, (d1, d2, False)))
        return out + [(((d + tab1[p1]) * n2 + tab2[p2]) << 3 | m, t)
                      for tab1, _, tab2, _, d, m, t in rs if tab1[p1] >= 0 and tab2[p2] >= 0]

    def expand(c: int, how: tuple) -> list[TwoTapeTransition]:
        """The transitions behind an edge of ``edges(c)``: one, or a macro
        edge's loops, tape 1 first, then tape 2, or side by side for a
        lockstep jump."""
        if how.__class__ is TwoTapeTransition:
            return [how]
        d1, d2, lock = how
        rest, p2 = divmod(c, n2)
        q, p1 = divmod(rest, n1)
        read1, read2 = _letters(text1, lp1, p1, d1), _letters(text2, lp2, p2, d2)
        if lock:  # k of the pair loops, side by side
            return [lockstep[q][2][ab] for ab in zip(read1, read2)]
        loops1, loops2 = loops[q][:2]
        return [loops1[a] for a in read1] + [loops2[b] for b in read2]

    start = initial * n1 * n2
    number = {start: 1}  # DFS number per visited configuration; 0 once its component closed
    lookup = number.get
    # per open partial component: root number, marks inside, marks of the edge into the root
    roots, inside, entry = [1], [0], [0]
    active = [start]  # visited configurations whose component is still open, in visit order
    # DFS frames: configuration, its successor iterator, the code it was entered by
    todo = [(start, iter(successors(start)), 0)]
    count = 1
    while todo:
        c, succ, _ = todo[-1]
        for code in succ:
            d = code >> 3
            h = lookup(d)
            if h is None:
                count += 1
                number[d] = count
                roots.append(count)
                inside.append(0)
                entry.append(code & _ALL)
                active.append(d)
                todo.append((d, iter(successors(d)), code))
                break
            if h:  # d is in an open component: every root above it merges
                marks = code & _ALL
                while h < roots[-1]:
                    roots.pop()
                    marks |= inside.pop() | entry.pop()
                marks |= inside[-1]
                inside[-1] = marks
                if marks == _ALL:  # the certificate is built on its first read
                    build = partial(_certificate, edges, expand, number, todo, roots[-1])
                    return SearchOutcome(verdict=Verdict.ACCEPTED, certificate=build)
        else:
            todo.pop()
            if number[c] == roots[-1]:
                roots.pop()
                inside.pop()
                entry.pop()
                while True:
                    x = active.pop()
                    number[x] = 0
                    if x == c:
                        break
    return SearchOutcome(verdict=Verdict.REJECTED)


def _run_length(stops: Sequence[int], n: int, lp: int, p: int, start: int | None) -> float:
    """How many letters are read from position p of a normal form with n
    positions and a prefix of lp letters on, wrapping in its period, before
    the first position listed in stops (the sorted positions of the letters
    outside some loop's letters); inf where none comes, that is from
    position start on, where start is not None.  At most two bisections."""
    if start is not None and p >= start:
        return inf
    i = bisect_left(stops, p)
    if i == len(stops):  # none before the end: wrap to the period's first
        return stops[bisect_left(stops, lp)] - p + n - lp
    return stops[i] - p


def _read(text: str, lp: int, label: str, p: int) -> int:
    """The position after label, read from position p of a normal form's
    text on, wrapping in its period text[lp:]; -1 where it does not match."""
    for ch in label:
        if text[p] != ch:
            return -1
        p += 1
        if p == len(text):
            p = lp
    return p


def _advance(p: int, k: int, n: int, lp: int) -> int:
    """The position k letters on from position p of a normal form with n
    positions and a prefix of lp letters."""
    p += k
    return p if p < n else lp + (p - lp) % (n - lp)


def _letters(text: str, lp: int, p: int, k: int) -> str:
    """The k letters read from position p on, wrapping in the period text[lp:]."""
    out = text[p:p + k]
    period, rest = text[lp:], k - len(out)
    return out + period * (rest // len(period)) + period[:rest % len(period)]


def _certificate(edges, expand, number, frames, root) -> Certificate:
    """Stem along the DFS frames, each entered from the last by its code,
    to the root numbered ``root``, and a cycle through that root inside its
    component (the open configurations numbered from ``root`` on) carrying
    all three marks.  Only visited configurations are expanded, and only
    the edges of the stem and the cycle are expanded into transitions."""

    def bfs(src: int, need: int, target: int = -1) -> tuple[list, int, int]:
        """Shortest path inside the component from src through the first
        edge carrying a mark of need or entering target: its transitions,
        its end and the union of its marks."""
        parent: dict[int, tuple[int, int, tuple]] = {}
        queue = deque([src])
        while queue:
            a = queue.popleft()
            for code, how in edges(a):
                d = code >> 3
                if number.get(d, 0) < root:
                    continue
                if code & need or d == target:
                    path = [(a, how)]
                    marks = code & _ALL
                    while a != src:
                        a, code, how = parent[a]
                        path.append((a, how))
                        marks |= code & _ALL
                    return [t for edge in reversed(path) for t in expand(*edge)], d, marks
                if d != src and d not in parent:
                    parent[d] = (a, code, how)
                    queue.append(d)
        raise RuntimeError("component lacks a mark its root accumulated")

    def step(c: int, code: int) -> list[TwoTapeTransition]:
        return expand(c, next(how for out, how in edges(c) if out == code))

    k = next(i for i, (c, _, _) in enumerate(frames) if number[c] == root)
    stem = [t for i in range(k) for t in step(frames[i][0], frames[i + 1][2])]
    anchor = here = frames[k][0]
    cycle: list[TwoTapeTransition] = []
    need = _ALL
    while need:
        path_steps, here, marks = bfs(here, need)
        cycle += path_steps
        need &= ~marks
    if here != anchor:
        cycle += bfs(here, 0, anchor)[0]
    return Certificate(stem=RunPrefix(tuple(stem)), cycle=RunPrefix(tuple(cycle)))


def bounded_run_search(
    aut: TwoTapeAutomaton, w1: OmegaWord, w2: OmegaWord, budget: int
) -> SearchOutcome:
    """Budgeted evidence search over (state, position, position) configurations.

    Deterministic best-first exploration that maximises balanced progress
    (the smaller of the two consumption counts); runs that stop consuming
    one tape freeze their rank and starve, so the whole budget flows into
    behaviours that keep consuming both words.  Accepting-visit counts
    propagate along explored edges as labels: a visit is counted when both
    tapes advanced since the previously counted visit, which is the fair
    evidence the statistics report.  Always returns Inconclusive with the
    statistics, lassos included: lasso pairs are decided by
    ``accepts_lasso_pair``.

    The statistics measure progress only, and on the built-in ``T`` and
    ``R`` they are the same for every (coded grid, alpha) pair: each
    tape-1 transition that reads 0 has a twin that reads 1, with the same
    source, tape-2 label and target, and coded grids differ only in the
    0/1 letters between As at fixed places, so every grid gives the same
    search graph.  Membership of such pairs is decided by
    ``grid_pair_in_r1`` or ``in_P``, not by this search.

    Each expansion keeps its least child off the heap, in a held slot, and
    pushes the others; the next entry is the least of the held one and the
    heap's, taken by one ``heappushpop``, so a child that beats every
    queued entry never enters the heap.  Entries carry a unique sequence
    number, so expansions come in the plain heap's order.  The frontier
    counts the heap plus a held entry, and the search is exhausted only
    when both are empty.  The compiled rows, in the order of
    ``transitions_from`` (which breaks ties), come from a per-call index
    by state and next letter on each tape; only labels longer than one
    letter are compared, by ``str.startswith`` on one text per word,
    reread by ``_text_reader`` whenever a position nears its end by a
    label length.  Words with a letter outside the tape alphabets raise
    ``AlphabetMismatch``, as in ``accepts_lasso_pair``.
    """
    aut.sigma1.check_word(w1.letters(), "tape-1 word")
    aut.sigma2.check_word(w2.letters(), "tape-2 word")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    c = aut._compiled
    initial, labels1, labels2, rows = c.initial, c.labels1, c.labels2, c.rows
    reach1, reach2 = (max(map(len, labels), default=0) + 1 for labels in (labels1, labels2))
    read1, read2 = map(_text_reader, (w1, w2))
    text1, text2 = read1(reach1), read2(reach2)
    # (state, letter, letter) -> rows as (label 1 if longer than one letter
    # else "", its length, the same for label 2, target, accepting)
    index: dict[tuple[int, str, str], list[tuple]] = {}
    # per configuration (state, consumed, consumed): (fair visits, -anchor
    # sum) of its best label, more visits first, then an earlier counted visit
    best = {(initial, 0, 0): (0, 0)}
    # entries (-balanced progress, total progress, unique seq, configuration,
    # label); held is the last expansion's least child, kept off the heap
    heap: list[tuple] = []
    held: tuple | None = (0, 0, 0, initial, 0, 0, 0, 0, 0)
    seq = fair_visits = deepest = expansions = 0
    while (heap or held) and expansions < budget:
        entry = heapq.heappop(heap) if held is None else heapq.heappushpop(heap, held)
        held = None
        _, _, _, q, c1, c2, visits, a1, a2 = entry
        if best[q, c1, c2] > (visits, -a1 - a2):
            continue  # a better label for this configuration was processed
        expansions += 1
        if c1 + reach1 > len(text1):
            text1 = read1(c1 + reach1)
        if c2 + reach2 > len(text2):
            text2 = read2(c2 + reach2)
        key = (q, text1[c1], text2[c2])
        matches = index.get(key)
        if matches is None:
            matches = index[key] = [
                (l1 if len(l1) > 1 else "", len(l1), l2 if len(l2) > 1 else "", len(l2), d, m & ACC)
                for a, b, d, m, _ in rows[q]
                for l1, l2 in [(labels1[a], labels2[b])]
                if l1[:1] in ("", key[1]) and l2[:1] in ("", key[2])
            ]
        for long1, n1, long2, n2, d, accepting in matches:
            if long1 and not text1.startswith(long1, c1) or long2 and not text2.startswith(long2, c2):
                continue
            nc1, nc2 = c1 + n1, c2 + n2
            if accepting and nc1 > a1 and nc2 > a2:
                nv, na1, na2 = visits + 1, nc1, nc2
            else:
                nv, na1, na2 = visits, a1, a2
            cfg, mark = (d, nc1, nc2), (nv, -na1 - na2)
            if best.get(cfg, (-1, 0)) >= mark:
                continue
            best[cfg] = mark
            low = nc1 if nc1 < nc2 else nc2
            if low > deepest:
                deepest = low
            if nv > fair_visits:
                fair_visits = nv
            seq += 1
            child = (-low, nc1 + nc2, seq, d, nc1, nc2, nv, na1, na2)
            if held is None:
                held = child
            elif child < held:
                heapq.heappush(heap, held)
                held = child
            else:
                heapq.heappush(heap, child)

    return SearchOutcome(
        verdict=Verdict.INCONCLUSIVE,
        stats=SearchStats(
            expansions=expansions,
            fair_visits=fair_visits,
            deepest=deepest,
            frontier=len(heap) + (held is not None),
            exhausted=not heap and held is None,
        ),
    )


def _text_reader(w: OmegaWord):
    """A function n -> a text of at least n letters of w: a block word's
    cached text, unsliced, as its cache already doubles, or a lasso's
    prefix of length 2n, so that rereads stay few."""
    if isinstance(w, BlockWord):
        return w._text
    return lambda n: w.prefix_of(2 * n)


def to_json(aut: TwoTapeAutomaton) -> str:
    doc = {
        "states": list(aut.states),
        "sigma1": str(aut.sigma1),
        "sigma2": str(aut.sigma2),
        "transitions": [[t.src, t.read1, t.read2, t.dst] for t in aut.transitions],
        "initial": aut.initial,
        "accepting": sorted(aut.accepting),
    }
    return json.dumps(doc, indent=2)


_DOC_FIELDS = (
    ("states", list),
    ("sigma1", str),
    ("sigma2", str),
    ("transitions", list),
    ("initial", str),
    ("accepting", list),
)


def from_json(text: str) -> TwoTapeAutomaton:
    """Parse and validate an automaton document; raise InvalidAutomaton
    naming every unknown field and every field of the wrong shape."""
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except RecursionError:
        raise InvalidAutomaton(["automaton document is nested too deeply"]) from None
    if not isinstance(doc, dict):
        raise InvalidAutomaton(["automaton document must be a JSON object"])
    known = dict(_DOC_FIELDS)
    problems = [f"unknown field {key!r}" for key in doc if key not in known]
    for key, kind in _DOC_FIELDS:
        if key not in doc:
            problems.append(f"missing field {key!r}")
        elif not isinstance(doc[key], kind):
            problems.append(f"field {key!r} must be a {'list' if kind is list else 'string'}")
    if problems:
        raise InvalidAutomaton(problems)
    for key in ("states", "accepting"):
        if not all(isinstance(s, str) for s in doc[key]):
            problems.append(f"field {key!r} must list state names as strings")
    for i, t in enumerate(doc["transitions"]):
        if not (isinstance(t, list) and len(t) == 4 and all(isinstance(x, str) for x in t)):
            problems.append(f"transitions[{i}] must be [source, read1, read2, target] strings")
    if problems:
        raise InvalidAutomaton(problems)
    aut = TwoTapeAutomaton(
        states=tuple(doc["states"]),
        sigma1=Alphabet.of(doc["sigma1"]),
        sigma2=Alphabet.of(doc["sigma2"]),
        transitions=tuple(TwoTapeTransition(*t) for t in doc["transitions"]),
        initial=doc["initial"],
        accepting=frozenset(doc["accepting"]),
    )
    validate(aut)
    return aut


def _dot(name: str, states, accepting, initial: str, edges) -> str:
    """A DOT digraph: accepting states drawn as double circles, a point
    marking the initial state, and one labelled edge per (src, dst, label)."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for s in states:
        shape = "doublecircle" if s in accepting else "circle"
        lines.append(f'  "{s}" [shape={shape}];')
    lines += ["  __start [shape=point];", f'  __start -> "{initial}";']
    lines += [f'  "{src}" -> "{dst}" [label="{label}"];' for src, dst, label in edges]
    return "\n".join(lines + ["}"]) + "\n"


def to_dot(aut: TwoTapeAutomaton) -> str:
    edges = [(t.src, t.dst, f"{t.read1 or 'ε'} / {t.read2 or 'ε'}") for t in aut.transitions]
    return _dot("twotape", aut.states, aut.accepting, aut.initial, edges)
