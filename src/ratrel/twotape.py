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
period.  Two analyses of the automaton, cached with its compiled form,
come first: a letter-coverage test rejects when no reachable component
can carry an accepting tail over the words' letters, and a configuration
in a final state (accepting, with single-letter self-loops for every
letter of both periods and of the rest of each lasso prefix) accepts.
Otherwise the graph is explored on the fly, never stored: each tape is
compiled into next-position tables per transition label, configurations
are packed into ints, and one Couvreur-style SCC search with three edge
marks (accepting state entered, tape-1 letter consumed, tape-2 letter
consumed), trying transitions towards final states first, stops at the
first component that carries all three or at a final configuration.  The
certificate is the search stack plus a cycle on the final state's
self-loops, or a cycle rebuilt inside the component from the visited
configurations.  For block-pattern inputs a budgeted best-first search
reports evidence instead of a verdict, over the same compiled rows indexed
by the next letter on each tape and one text slice per word.
"""

from __future__ import annotations

import enum
import heapq
import json
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from ._scc import tarjan_scc
from .words import Alphabet, AlphabetMismatch, LassoWord, OmegaWord


class InvalidAutomaton(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class DegenerateAutomaton(ValueError):
    """An accepting cycle of (empty, empty) transitions with no consuming way out."""


class TwoTapeTransition(NamedTuple):
    src: str
    read1: str
    read2: str
    dst: str


def _as_transition(t) -> TwoTapeTransition:
    return t if isinstance(t, TwoTapeTransition) else TwoTapeTransition(*t)


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
            self, "transitions", tuple(sorted(_as_transition(t) for t in self.transitions))
        )
        object.__setattr__(self, "accepting", frozenset(self.accepting))

    def transitions_from(self, state: str) -> tuple[TwoTapeTransition, ...]:
        return self._by_src().get(state, ())

    def _by_src(self) -> dict[str, tuple[TwoTapeTransition, ...]]:
        cached = getattr(self, "_by_src_cache", None)
        if cached is None:
            grouped: dict[str, list[TwoTapeTransition]] = {}
            for t in self.transitions:
                grouped.setdefault(t.src, []).append(t)
            cached = {s: tuple(ts) for s, ts in grouped.items()}
            object.__setattr__(self, "_by_src_cache", cached)
        return cached

    def _compiled(self) -> tuple:
        cached = getattr(self, "_compiled_cache", None)
        if cached is None:
            cached = _compile_automaton(self)
            object.__setattr__(self, "_compiled_cache", cached)
        return cached


@dataclass(frozen=True)
class Diagnostics:
    state_count: int
    unreachable: frozenset[str]
    cannot_reach_accepting: frozenset[str]


def validate(aut: TwoTapeAutomaton) -> Diagnostics:
    """Check the structural invariants; raise InvalidAutomaton listing violations.

    On success, reports unreachable states and states from which the
    accepting set is unreachable (informational, not errors).
    """
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

    back: dict[str, list[str]] = {}
    for t in aut.transitions:
        back.setdefault(t.dst, []).append(t.src)
    reachable = _closure({aut.initial}, _targets(aut.transitions))
    co_accepting = _closure(set(aut.accepting), back)
    return Diagnostics(
        state_count=len(aut.states),
        unreachable=frozenset(states - reachable.keys()),
        cannot_reach_accepting=frozenset(states - co_accepting.keys()),
    )


def _targets(transitions) -> dict[str, list[str]]:
    fwd: dict[str, list[str]] = {}
    for t in transitions:
        fwd.setdefault(t.src, []).append(t.dst)
    return fwd


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
    that happened mid-segment still recur in the folded run.
    """
    eps_edges: dict[str, list[str]] = {}
    for t in aut.transitions:
        if t.read1 == "" and t.read2 == "":
            eps_edges.setdefault(t.src, []).append(t.dst)
    if not eps_edges:
        return aut

    _reject_degenerate(aut, eps_edges)

    suffix = "+"
    names = set(aut.states)
    while any(s + suffix in names for s in aut.states):
        suffix += "+"

    consuming: dict[str, list[TwoTapeTransition]] = {}
    for t in aut.transitions:
        if t.read1 or t.read2:
            consuming.setdefault(t.src, []).append(t)

    folded: dict[str, list[tuple[str, str, str, bool]]] = {}
    for q in aut.states:
        rows: list[tuple[str, str, str, bool]] = []
        seen = {(q, False)}
        todo = deque([(q, False)])
        while todo:
            x, flagged = todo.popleft()
            for y in eps_edges.get(x, ()):  # states strictly after q get folded away
                item = (y, flagged or y in aut.accepting)
                if item not in seen:
                    seen.add(item)
                    todo.append(item)
        for r, flagged in sorted(seen):
            for t in consuming.get(r, ()):  # ignore silent rows; they were expanded above
                rows.append((t.read1, t.read2, t.dst, flagged))
        folded[q] = rows

    transitions: set[TwoTapeTransition] = set()
    marked: set[str] = set()
    worklist: deque[str] = deque()

    def add_rows(src_name: str, base: str) -> None:
        for read1, read2, dst, flagged in folded[base]:
            if flagged:
                target = dst + suffix
                if dst not in marked:
                    marked.add(dst)
                    worklist.append(dst)
            else:
                target = dst
            transitions.add(TwoTapeTransition(src_name, read1, read2, target))

    for q in aut.states:
        add_rows(q, q)
    while worklist:
        base = worklist.popleft()
        add_rows(base + suffix, base)
    plus_names = {base + suffix for base in marked}

    keep = _closure({aut.initial}, _targets(transitions))
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


def _reject_degenerate(aut: TwoTapeAutomaton, eps_edges: dict[str, list[str]]) -> None:
    """Raise if a reachable accepting silent cycle has no consuming continuation."""
    states = list(aut.states)
    idx = {s: i for i, s in enumerate(states)}
    adj = [[idx[d] for d in eps_edges.get(s, ())] for s in states]
    comp = tarjan_scc(len(states), adj)
    members: dict[int, list[int]] = {}
    for i, c in enumerate(comp):
        members.setdefault(c, []).append(i)

    reachable = _closure({aut.initial}, _targets(aut.transitions))

    has_consuming = {t.src for t in aut.transitions if t.read1 or t.read2}
    for nodes in members.values():
        cyc = [states[i] for i in nodes]
        if len(nodes) == 1 and idx[cyc[0]] not in adj[nodes[0]]:
            continue  # trivial component, no silent self-loop
        if not any(s in aut.accepting for s in cyc):
            continue
        if not any(s in reachable for s in cyc):
            continue
        if not _closure(set(cyc), eps_edges).keys() & has_consuming:
            raise DegenerateAutomaton(
                f"accepting silent cycle through {sorted(set(cyc))} cannot consume input"
            )


@dataclass(frozen=True)
class RunPrefix:
    """Finite chain of transitions, starting at the automaton's initial state."""

    transitions: tuple[TwoTapeTransition, ...]

    def consumed1(self) -> str:
        return "".join(t.read1 for t in self.transitions)

    def consumed2(self) -> str:
        return "".join(t.read2 for t in self.transitions)

    def __len__(self) -> int:
        return len(self.transitions)


@dataclass(frozen=True)
class RunReport:
    transitions_ok: bool
    chaining_ok: bool
    tape1_ok: bool
    tape2_ok: bool
    accepting_visits: int
    consumed: tuple[int, int]
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.transitions_ok and self.chaining_ok and self.tape1_ok and self.tape2_ok


def run_prefix_valid(
    aut: TwoTapeAutomaton, run: RunPrefix, w1: OmegaWord, w2: OmegaWord
) -> RunReport:
    """Replay a run prefix against a word pair.

    Checks that the transitions exist and chain from the initial state and
    that the concatenated labels are prefixes of the two words.  Accepting
    visits count the states entered after each transition.
    """
    problems: list[str] = []
    known = set(aut.transitions)
    transitions_ok = all(t in known for t in run.transitions)
    if not transitions_ok:
        problems.append("run uses transitions not present in the automaton")

    chaining_ok = True
    here = aut.initial
    for t in run.transitions:
        if t.src != here:
            chaining_ok = False
            problems.append(f"transition {t} does not start at {here!r}")
            break
        here = t.dst

    u = run.consumed1()
    v = run.consumed2()
    tape1_ok = u == w1.prefix_of(len(u))
    if not tape1_ok:
        problems.append("tape-1 labels do not match the first word")
    tape2_ok = v == w2.prefix_of(len(v))
    if not tape2_ok:
        problems.append("tape-2 labels do not match the second word")

    visits = sum(1 for t in run.transitions if t.dst in aut.accepting)
    return RunReport(
        transitions_ok=transitions_ok,
        chaining_ok=chaining_ok,
        tape1_ok=tape1_ok,
        tape2_ok=tape2_ok,
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


@dataclass(frozen=True)
class SearchOutcome:
    verdict: Verdict
    certificate: Certificate | None = None
    stats: SearchStats | None = None


# Edge marks of the fair-cycle search.
ACC, T1, T2 = 1, 2, 4
_ALL = ACC | T1 | T2


def _compile_automaton(aut: TwoTapeAutomaton) -> tuple:
    """Integer form: the initial state id; the distinct labels of each tape;
    per state id its rows (label-1 index, label-2 index, target id, marks,
    transition); per component with a cycle through an accepting state, its
    state ids and the letters its internal edges read on each tape; per
    looping state id the letters its single-letter self-loops read on each
    tape; and a memo for ``_search_order``.

    A looping state is accepting and has self-loops (a, "") and ("", b) for
    at least one letter of each tape.  Looping states are numbered last.
    """
    loops: dict[str, tuple[set, set]] = {}
    for t in aut.transitions:
        if t.src == t.dst and len(t.read1) + len(t.read2) == 1 and t.src in aut.accepting:
            loops.setdefault(t.src, (set(), set()))[0 if t.read1 else 1].add(t.read1 + t.read2)
    loops = {q: sets for q, sets in loops.items() if all(sets)}
    names = dict.fromkeys(
        (*aut.states, aut.initial, *(x for t in aut.transitions for x in (t.src, t.dst)))
    )
    ids = {s: i for i, s in enumerate(sorted(names, key=loops.__contains__) if loops else names)}
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
    for src, rs in enumerate(rows):
        c = comp[src]
        if c in accepting:
            for _, _, dst, _, t in rs:
                if comp[dst] == c:
                    tail = tails.setdefault(c, (set(), set(), set()))
                    tail[0].add(src)
                    tail[1].update(t.read1)
                    tail[2].update(t.read2)
    loops = {ids[q]: sets for q, sets in loops.items()}
    return ids[aut.initial], labels1, labels2, rows, list(tails.values()), loops, {}


def _may_accept(compiled: tuple, w1: LassoWord, w2: LassoWord) -> bool:
    """Letter-coverage test, false only for pairs the automaton rejects.

    The tail of an accepting run stays inside one component, enters an
    accepting state and reads every letter of both periods, along edges
    whose labels use only letters of the words.  So some component that
    covers the periods' letters must be reachable along such edges.
    """
    initial, labels1, labels2, rows, tails = compiled[:5]
    need1, need2 = set(w1.period), set(w2.period)
    covering = [comp for comp, read1, read2 in tails if need1 <= read1 and need2 <= read2]
    if not covering:
        return False
    word1, word2 = set(w1.prefix) | need1, set(w2.prefix) | need2
    fits1 = [set(label) <= word1 for label in labels1]
    fits2 = [set(label) <= word2 for label in labels2]
    edges = {q: [d for a, b, d, _, _ in rs if fits1[a] and fits2[b]] for q, rs in enumerate(rows)}
    reach = _closure({initial}, edges)
    return any(not comp.isdisjoint(reach) for comp in covering)


def _search_order(compiled: tuple, w1: LassoWord, w2: LassoWord) -> tuple:
    """The final states for the words' periods, looping states whose loops
    read every letter of both periods, with those letters; and the rows,
    each state's sorted so that those whose target is nearer a final state
    come first.  Memoised per set of final states."""
    _, _, _, rows, _, loops, memo = compiled
    need1, need2 = set(w1.period), set(w2.period)
    final = {q: sets for q, sets in loops.items() if need1 <= sets[0] and need2 <= sets[1]}
    if not final:
        return final, rows
    key = frozenset(final)
    if key not in memo:  # stable sorts: nearest a final state first
        back: dict[int, list[int]] = {}
        for src, rs in enumerate(rows):
            for row in rs:
                back.setdefault(row[2], []).append(src)
        distance = _closure(final, back)
        memo[key] = [sorted(rs, key=lambda row: distance.get(row[2], len(rows))) for rs in rows]
    return final, memo[key]


def _compile_tape(w: LassoWord, labels: list[str]) -> tuple[int, list[list[int]]]:
    """Positions of the normal form w (absolute in the prefix, phase in the
    period) and, per label, the table of next positions, -1 where the label
    does not match."""
    text = w.prefix + w.period
    n = len(text)
    step = list(range(1, n)) + [len(w.prefix)]
    tables = []
    for label in labels:
        table = list(range(n))
        for ch in label:
            table = [step[p] if p >= 0 and text[p] == ch else -1 for p in table]
        tables.append(table)
    return n, tables


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

    Two shortcuts come first, both sound, both from analyses cached once
    per automaton: the letter-coverage test ``_may_accept`` rejects
    without touching the product, and a configuration in a state final
    for the periods' letters (``_search_order``: accepting, with a
    single-letter self-loop for every letter of both periods) accepts as
    soon as the rest of each lasso prefix reads on those loops too.

    The graph is never built.  Each tape is compiled into next-position
    tables, one per distinct label, and configurations are packed into
    ints.  One iterative Couvreur-style DFS explores the product on the
    fly, trying first the transitions nearest a final state, and keeps,
    for every root of a partial component, the marks of the edges merged
    into it; it stops as soon as a root holds all three or a final
    configuration is reached.  It is the complete fallback, whatever the
    order.

    Accepted verdicts carry a replayable stem-plus-cycle certificate whose
    stem follows the DFS stack.  After a final configuration the stem
    reads the rest of each lasso prefix on the self-loops, and the cycle
    is one turn of the tape-1 period, then of the tape-2 period, on them.
    Otherwise the cycle is stitched from breadth-first paths inside the
    component, over visited configurations only, that pick up each mark
    in turn and return to the root.
    """
    aut.sigma1.check_word(w1.prefix + w1.period, "tape-1 word")
    aut.sigma2.check_word(w2.prefix + w2.period, "tape-2 word")
    w1, w2 = w1.normal(), w2.normal()
    compiled = aut._compiled()
    if not _may_accept(compiled, w1, w2):
        return SearchOutcome(verdict=Verdict.REJECTED)
    initial, labels1, labels2 = compiled[:3]
    final, rows = _search_order(compiled, w1, w2)
    n1, tabs1 = _compile_tape(w1, labels1)
    n2, tabs2 = _compile_tape(w2, labels2)
    for tab in tabs2:  # shift past the three mark bits of a successor code
        tab[:] = [y << 3 if y >= 0 else -1 for y in tab]
    # Configuration (q, p1, p2) is the int (q * n1 + p1) * n2 + p2.  Its
    # successors come from the rows of its head q * n1 + p1, built on
    # first use: the tape-2 table, the code of the target at tape-2
    # position 0, and the transition.
    heads: list = [None] * (len(rows) * n1)

    def successors(c: int) -> list[int]:
        """Successor codes ``config << 3 | marks`` of configuration c."""
        head, p2 = divmod(c, n2)
        rs = heads[head]
        if rs is None:
            q, p1 = divmod(head, n1)
            rs = heads[head] = [
                (tabs2[b], ((d * n1 + tabs1[a][p1]) * n2) << 3 | m, t)
                for a, b, d, m, t in rows[q]
                if tabs1[a][p1] >= 0
            ]
        out = []
        for tab2, base, _ in rs:
            y = tab2[p2]
            if y >= 0:
                out.append(base + y)
        return out

    # A configuration in a final state accepts once the rest of each lasso
    # prefix reads on that state's loops: gate[head] is the least tape-2
    # position from which it does (n2: never).
    gate = [n2] * len(heads)
    for q, (l1, l2) in final.items():
        p1 = _loop_start(w1, l1)
        gate[q * n1 + p1 : (q + 1) * n1] = [_loop_start(w2, l2)] * (n1 - p1)
    limit = min(final, default=len(rows)) * n1 * n2  # no final state below

    def reached_final(path: list[int]) -> SearchOutcome:
        stem = _stem(successors, heads, n2, path)
        head, p2 = divmod(path[-1], n2)
        q = stem[-1].dst if stem else aut.initial
        cert = _loop_certificate(q, stem, w1, head % n1, w2, p2)
        return SearchOutcome(verdict=Verdict.ACCEPTED, certificate=cert)

    start = initial * n1 * n2
    if gate[initial * n1] == 0:
        return reached_final([start])
    number = {start: 1}  # DFS number per visited configuration; 0 once its component closed
    lookup = number.get
    # per open partial component: root number, marks inside, marks of the edge into the root
    roots, inside, entry = [1], [0], [0]
    live = [start]  # visited configurations whose component is still open, in visit order
    todo = [(start, iter(successors(start)))]
    count = 1
    while todo:
        c, succ = todo[-1]
        for code in succ:
            d = code >> 3
            h = lookup(d)
            if h is None:
                if d >= limit and d % n2 >= gate[d // n2]:
                    return reached_final([f[0] for f in todo] + [d])
                count += 1
                number[d] = count
                roots.append(count)
                inside.append(0)
                entry.append(code & _ALL)
                live.append(d)
                todo.append((d, iter(successors(d))))
                break
            if h:  # d is in an open component: every root above it merges
                marks = code & _ALL
                while h < roots[-1]:
                    roots.pop()
                    marks |= inside.pop() | entry.pop()
                marks |= inside[-1]
                inside[-1] = marks
                if marks == _ALL:
                    path = [f[0] for f in todo]
                    cert = _certificate(successors, heads, n2, number, path, roots[-1])
                    return SearchOutcome(verdict=Verdict.ACCEPTED, certificate=cert)
        else:
            todo.pop()
            if number[c] == roots[-1]:
                roots.pop()
                inside.pop()
                entry.pop()
                while True:
                    x = live.pop()
                    number[x] = 0
                    if x == c:
                        break
    return SearchOutcome(verdict=Verdict.REJECTED)


def _loop_start(w: LassoWord, letters: set) -> int:
    """The first position from which the rest of w's prefix reads on letters."""
    i = len(w.prefix)
    while i and w.prefix[i - 1] in letters:
        i -= 1
    return i


def _transition(heads, n2, c: int, code: int) -> TwoTapeTransition:
    """The transition behind successor code ``code`` of configuration c."""
    head, p2 = divmod(c, n2)
    return next(t for tab2, base, t in heads[head] if tab2[p2] >= 0 and base + tab2[p2] == code)


def _stem(successors, heads, n2, path: list[int]) -> list[TwoTapeTransition]:
    """Transitions along a path of configurations, each a successor of the last."""
    return [
        _transition(heads, n2, a, next(x for x in successors(a) if x >> 3 == b))
        for a, b in zip(path, path[1:])
    ]


def _loop_certificate(q: str, stem: list, w1: LassoWord, p1: int, w2: LassoWord, p2: int):
    """Certificate for a stem that ends in final state q at positions
    p1, p2 of the normal forms: the stem goes on through the rest of each
    lasso prefix, and the cycle is one turn of each period from there, all
    on the self-loops of q."""

    def split(w: LassoWord, p: int) -> tuple[str, str]:
        lp, text = len(w.prefix), w.prefix + w.period
        turn = max(p, lp)
        return text[p:lp], text[turn:] + text[lp:turn]

    def on1(letters: str) -> list:
        return [TwoTapeTransition(q, ch, "", q) for ch in letters]

    def on2(letters: str) -> list:
        return [TwoTapeTransition(q, "", ch, q) for ch in letters]

    (rest1, turn1), (rest2, turn2) = split(w1, p1), split(w2, p2)
    stem = stem + on1(rest1) + on2(rest2)
    return Certificate(stem=RunPrefix(tuple(stem)), cycle=RunPrefix(tuple(on1(turn1) + on2(turn2))))


def _certificate(successors, heads, n2, number, path, root) -> Certificate:
    """Stem along the DFS path to the root numbered ``root``, and a cycle
    through that root inside its component (the open configurations
    numbered from ``root`` on) carrying all three marks.  Only visited
    configurations are expanded."""

    def bfs(src: int, need: int, target: int = -1) -> tuple[list, int, int]:
        """Shortest path inside the component from src through the first
        edge carrying a mark of need or entering target: its transitions,
        its end and the union of its marks."""
        parent: dict[int, tuple[int, int]] = {}
        queue = deque([src])
        while queue:
            a = queue.popleft()
            for code in successors(a):
                d = code >> 3
                if number.get(d, 0) < root:
                    continue
                if code & need or d == target:
                    steps = [_transition(heads, n2, a, code)]
                    marks = code & _ALL
                    while a != src:
                        a, code = parent[a]
                        steps.append(_transition(heads, n2, a, code))
                        marks |= code & _ALL
                    steps.reverse()
                    return steps, d, marks
                if d != src and d not in parent:
                    parent[d] = (a, code)
                    queue.append(d)
        raise RuntimeError("component lacks a mark its root accumulated")

    k = next(i for i, c in enumerate(path) if number[c] == root)
    stem = _stem(successors, heads, n2, path[: k + 1])
    anchor = here = path[k]
    cycle: list[TwoTapeTransition] = []
    need = _ALL
    while need:
        steps, here, marks = bfs(here, need)
        cycle += steps
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
    evidence the statistics report.  Never returns Rejected; returns
    Accepted only when both inputs are lassos and the exact decision finds
    a certificate.

    The statistics measure progress only.  On (coded grid, alpha) pairs
    they do not separate grids in P from grids outside P: both can give
    identical counts at the same budget.  Membership of such pairs is
    decided by ``grid_pair_in_r1`` or ``in_P``, not by this search.

    One expansion is one heap step.  The compiled rows, in the order of
    ``transitions_from`` (which breaks ties), come from a per-call index
    by state and next letter on each tape; only labels longer than one
    letter are compared, by ``str.startswith`` on one ``prefix_of`` text
    per word, doubled whenever a position nears the end by a label length.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if isinstance(w1, LassoWord) and isinstance(w2, LassoWord):
        outcome = accepts_lasso_pair(aut, w1, w2)
        if outcome.verdict is Verdict.ACCEPTED:
            return outcome

    initial, labels1, labels2, rows = aut._compiled()[:4]
    reach1, reach2 = (max(map(len, labels), default=0) + 1 for labels in (labels1, labels2))
    text1, text2 = w1.prefix_of(reach1), w2.prefix_of(reach2)
    # (state, letter, letter) -> rows as (label 1 if longer than one letter
    # else "", its length, the same for label 2, target, accepting)
    index: dict[tuple[int, str, str], list[tuple]] = {}
    # per configuration (state, consumed, consumed): (fair visits, -anchor
    # sum) of its best label, more visits first, then an earlier counted visit
    best = {(initial, 0, 0): (0, 0)}
    # (-balanced progress, total progress, unique seq, configuration, label)
    heap = [(0, 0, 0, initial, 0, 0, 0, 0, 0)]
    seq = fair_visits = deepest = expansions = 0
    while heap and expansions < budget:
        _, _, _, q, c1, c2, visits, a1, a2 = heapq.heappop(heap)
        if best[q, c1, c2] > (visits, -a1 - a2):
            continue  # a better label for this configuration was processed
        expansions += 1
        if c1 + reach1 > len(text1):
            text1 = w1.prefix_of(2 * (c1 + reach1))
        if c2 + reach2 > len(text2):
            text2 = w2.prefix_of(2 * (c2 + reach2))
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
            heapq.heappush(heap, (-low, nc1 + nc2, seq, d, nc1, nc2, nv, na1, na2))

    return SearchOutcome(
        verdict=Verdict.INCONCLUSIVE,
        stats=SearchStats(
            expansions=expansions,
            fair_visits=fair_visits,
            deepest=deepest,
            frontier=len(heap),
            exhausted=not heap,
        ),
    )


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
    naming every field of the wrong shape."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise InvalidAutomaton(["automaton document is nested too deeply"]) from None
    if not isinstance(doc, dict):
        raise InvalidAutomaton(["automaton document must be a JSON object"])
    problems = []
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


def to_dot(aut: TwoTapeAutomaton) -> str:
    def lab(s: str) -> str:
        return s if s else "ε"

    lines = ["digraph twotape {", "  rankdir=LR;"]
    for s in aut.states:
        shape = "doublecircle" if s in aut.accepting else "circle"
        lines.append(f'  "{s}" [shape={shape}];')
    lines.append("  __start [shape=point];")
    lines.append(f'  __start -> "{aut.initial}";')
    for t in aut.transitions:
        lines.append(f'  "{t.src}" -> "{t.dst}" [label="{lab(t.read1)} / {lab(t.read2)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
