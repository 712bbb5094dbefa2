"""Embedded property suite behind the CLI ``verify`` verb.

Each check re-derives expected behaviour from an independent angle
(a nested depth-first search instead of component analysis, direct
letter scans instead of the decision procedures) and runs on seeded
random instances, so a single command can exercise the grid, two-tape
and construction layers without the development test harness.  The
seeded generators (``random_lasso``, ``random_grid``,
``random_two_tape``) and the lasso oracle (``nested_dfs_accepts_pair``)
are public: the test suite draws its instances and checks the decision
with these same functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .buchi import buchi_accepts_lasso, ones_automaton
from .constructions import (
    alpha,
    automaton_T,
    build_decompositions,
    build_run_schema,
    c_condition_holds,
    grid_pair,
    grid_pair_in_r1,
    in_alpha_section,
    r2_automaton,
    r_automaton,
    schema_to_run,
)
from .grid import GridWord, decode_h_prefix, encode_h, grid_distance_exponent, in_P
from .twotape import (
    RunPrefix,
    TwoTapeAutomaton,
    TwoTapeTransition,
    Verdict,
    accepts_lasso_pair,
    epsilon_normalize,
    run_prefix_valid,
    union,
)
from .words import BINARY, LassoWord, lasso_equal


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def random_lasso(rng: random.Random, letters: str = "01", max_prefix: int = 3, max_period: int = 3) -> LassoWord:
    prefix = "".join(rng.choice(letters) for _ in range(rng.randint(0, max_prefix)))
    period = "".join(rng.choice(letters) for _ in range(rng.randint(1, max_period)))
    return LassoWord(prefix, period)


def random_grid(rng: random.Random, ensure_in_p: bool | None = None) -> GridWord:
    """Random grid; ensure_in_p=True keeps every 1 in a column prefix, and
    None first draws that choice by a fair coin."""
    if ensure_in_p is None:
        ensure_in_p = rng.random() < 0.5

    def col() -> LassoWord:
        prefix = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
        if ensure_in_p:
            return LassoWord(prefix, "0")
        period = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
        return LassoWord(prefix, period)

    overrides = {}
    for _ in range(rng.randint(0, 3)):
        overrides[rng.randint(1, 6)] = col()
    return GridWord(col(), overrides)


def random_two_tape(
    rng: random.Random,
    max_states: int = 3,
    max_transitions: int | None = None,
    labels: tuple[str, ...] = ("", "0", "1"),
) -> TwoTapeAutomaton:
    """Random automaton on states s0..s(n-1), initial s0, with up to
    max_transitions (default 2n+2) transitions drawn from labels."""
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    limit = max_transitions if max_transitions is not None else 2 * n + 2
    transitions = set()
    for _ in range(rng.randint(1, limit)):
        transitions.add(
            TwoTapeTransition(
                rng.choice(states), rng.choice(labels), rng.choice(labels), rng.choice(states)
            )
        )
    accepting = frozenset(s for s in states if rng.random() < 0.5)
    return TwoTapeAutomaton(states, BINARY, BINARY, tuple(transitions), states[0], accepting)


def nested_dfs_accepts_pair(aut: TwoTapeAutomaton, w1: LassoWord, w2: LassoWord) -> bool:
    """Nested depth-first reference for the lasso decision (Courcoubetis,
    Vardi, Wolper and Yannakakis), sharing no code with the fair-cycle search.

    Nodes are (state, tape-1 position, tape-2 position, k) over the normal
    forms, positions absolute in the prefix and a phase in the period,
    packed into ints that index two bytearrays of visited marks.  The
    counter k waits for an edge entering an accepting state (k = 0), then
    one consuming tape 1 (k = 1), then one consuming tape 2 (k = 2); an edge
    meeting the wait moves k on, and one meeting it at k = 2 closes a round
    and is accepting.  A pair is accepted iff some reachable accepting edge
    lies on a cycle.  The outer search finishes each accepting edge u -> v
    in post-order and then runs an inner search from v for u; inner
    searches share one visited set, so every node is expanded at most
    twice.  Both searches keep explicit stacks.
    """
    tapes = [(w.prefix + w.period, len(w.prefix)) for w in (w1.normal(), w2.normal())]
    size1, size2 = len(tapes[0][0]), len(tapes[1][0])
    names = list(dict.fromkeys((aut.initial, *aut.states)))  # the initial state is 0
    ids = {s: i for i, s in enumerate(names)}

    def step(tape: int, pos: int, label: str) -> int | None:
        text, lp = tapes[tape]
        for ch in label:
            if text[pos] != ch:
                return None
            pos = pos + 1 if pos + 1 < len(text) else lp
        return pos

    def decode(node: int) -> tuple[int, int, int, int]:
        """Node (q, p1, p2, k) is the int ((q * size1 + p1) * size2 + p2) * 3 + k."""
        rest, k = divmod(node, 3)
        rest, p2 = divmod(rest, size2)
        q, p1 = divmod(rest, size1)
        return q, p1, p2, k

    # per state id, its rows: both labels, the target id, and per k whether
    # the row meets the wait
    rows = [[(t.read1, t.read2, ids[t.dst], (t.dst in aut.accepting, t.read1 != "", t.read2 != ""))
             for t in aut.transitions_from(s)] for s in names]

    def follow(p1: int, p2: int, k: int, row: tuple):
        """The edge along row from node (q, p1, p2, k): (target, accepting), or None."""
        read1, read2, dst, meets = row
        n1 = step(0, p1, read1)
        n2 = None if n1 is None else step(1, p2, read2)
        if n2 is None:
            return None
        met = meets[k]
        nxt = ((dst * size1 + n1) * size2 + n2) * 3 + ((k + 1) % 3 if met else k)
        return nxt, met and k == 2

    def successors(node: int):
        q, p1, p2, k = decode(node)
        return filter(None, (follow(p1, p2, k, row) for row in rows[q]))

    # visited marks of the outer and the inner searches, indexed by node
    outer = bytearray(len(names) * size1 * size2 * 3)
    inner = bytearray(len(outer))

    def reaches(src, seed) -> bool:
        if src == seed:
            return True
        if inner[src]:
            return False
        inner[src] = 1
        todo = [src]
        while todo:
            for nxt, _ in successors(todo.pop()):
                if nxt == seed:
                    return True
                if not inner[nxt]:
                    inner[nxt] = 1
                    todo.append(nxt)
        return False

    # An outer frame is [node, q, p1, p2, k, next row index, child via
    # accepting edge]: a row index, not an iterator, so a deep stack stays small.
    outer[0] = 1
    stack = [[0, *decode(0), 0, None]]
    while stack:
        frame = stack[-1]
        node, q, p1, p2, k, i, child = frame
        if child is not None:  # that child is finished: its accepting edge is now in post-order
            frame[6] = None
            if reaches(child, node):
                return True
        qrows = rows[q]
        while i < len(qrows):
            edge = follow(p1, p2, k, qrows[i])
            i += 1
            if edge is None:
                continue
            nxt, accepting = edge
            if not outer[nxt]:
                outer[nxt] = 1
                frame[5:] = i, nxt if accepting else None
                stack.append([nxt, *decode(nxt), 0, None])
                break
            if accepting and reaches(nxt, node):
                return True
        else:
            stack.pop()
    return False


def _checks(seed: int, trials: int):
    rng = random.Random(seed)

    def check_lasso_normalization():
        for _ in range(trials):
            a = random_lasso(rng, "01A")
            b = LassoWord(a.prefix + a.period, a.period)  # same word, shifted description
            c = LassoWord(a.prefix, a.period * 2)
            assert lasso_equal(a, b) and lasso_equal(a, c)
            n = a.normal()
            assert a.prefix_of(20) == n.prefix_of(20)

    def check_ones_automaton():
        aut = ones_automaton(False)
        comp = ones_automaton(True)
        for _ in range(trials):
            w = random_lasso(rng, "01")
            expected = "1" in w.normal().period
            assert buchi_accepts_lasso(aut, w) == expected
            assert buchi_accepts_lasso(comp, w) == (not expected)

    def check_coding_round_trip():
        for _ in range(trials):
            x = random_grid(rng, ensure_in_p=False)
            text = encode_h(x).prefix_of(180)
            for (m, n), ch in decode_h_prefix(text).items():
                assert x.entry(m, n) == ch

    def check_coding_identity():
        assert encode_h(GridWord.zero()).prefix_of(2000) == alpha().prefix_of(2000)

    def check_metric_bounds():
        done = 0
        while done < trials:
            x = random_grid(rng, ensure_in_p=False)
            y = random_grid(rng, ensure_in_p=False)
            p = grid_distance_exponent(x, y)
            if p is None:
                continue
            done += 1
            agree = (p - 1) * p // 2
            separate = p * (p + 1) // 2
            assert encode_h(x).prefix_of(agree) == encode_h(y).prefix_of(agree)
            assert encode_h(x).prefix_of(separate) != encode_h(y).prefix_of(separate)

    def check_column_predicate():
        comp = ones_automaton(True)
        for _ in range(trials):
            x = random_grid(rng)
            via_automaton = all(buchi_accepts_lasso(comp, col) for col in x.columns())
            assert in_P(x) == via_automaton

    def check_pair_decision_reference():
        for _ in range(trials):
            aut = random_two_tape(rng)
            w1 = random_lasso(rng, "01", 2, 2)
            w2 = random_lasso(rng, "01", 2, 2)
            got = accepts_lasso_pair(aut, w1, w2).verdict is Verdict.ACCEPTED
            assert got == nested_dfs_accepts_pair(aut, w1, w2)

    def check_union_law():
        for _ in range(trials):
            a = random_two_tape(rng)
            b = random_two_tape(rng)
            u = union(a, b)
            assert len(u.states) == len(a.states) + len(b.states) + 1
            w1 = random_lasso(rng, "01", 2, 2)
            w2 = random_lasso(rng, "01", 2, 2)
            lhs = accepts_lasso_pair(u, w1, w2).verdict is Verdict.ACCEPTED
            rhs = (
                accepts_lasso_pair(a, w1, w2).verdict is Verdict.ACCEPTED
                or accepts_lasso_pair(b, w1, w2).verdict is Verdict.ACCEPTED
            )
            assert lhs == rhs

    def check_silent_normalization():
        plain = epsilon_normalize(automaton_T())
        assert all(t.read1 or t.read2 for t in plain.transitions)
        for _ in range(trials):
            w1 = random_lasso(rng, "01A")
            w2 = random_lasso(rng, "01A")
            assert (
                accepts_lasso_pair(plain, w1, w2).verdict
                is accepts_lasso_pair(automaton_T(), w1, w2).verdict
            )

    def check_schema_replay():
        for _ in range(max(5, trials // 4)):
            x = random_grid(rng, ensure_in_p=True)
            schema = build_run_schema(x)
            run = schema_to_run(schema, 40)
            report = run_prefix_valid(automaton_T(), run, schema.coded, alpha())
            assert report.ok
            assert report.accepting_visits == schema.growth_steps(40)
            assert grid_pair_in_r1(x)

    def check_blocked_growth():
        for _ in range(max(5, trials // 4)):
            period = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
            if "1" not in period:
                period += "1"
            x = GridWord(LassoWord("", "0"), {1: LassoWord("", period)})
            found = build_decompositions(x, depth=20, k_max=3)
            assert len(found) >= 1
            assert all(dec.growth_steps == 0 for dec in found)

    def check_complement_structure():
        for _ in range(max(5, trials // 4)):
            x = random_grid(rng)
            pair = grid_pair(x)
            assert all(not c_condition_holds(j, *pair) for j in range(1, 6))

    def check_complement_coverage():
        r2 = r2_automaton()
        for _ in range(trials):
            w1 = random_lasso(rng, "01A")
            w2 = random_lasso(rng, "01A")
            verdict = accepts_lasso_pair(r2, w1, w2).verdict is Verdict.ACCEPTED
            structural = any(c_condition_holds(j, w1, w2) for j in range(1, 6))
            assert verdict and structural

    def check_section_law():
        r = r_automaton()
        for _ in range(trials):
            sigma = random_lasso(rng, "01A")
            u = random_lasso(rng, "01A")
            assert accepts_lasso_pair(r, sigma, u).verdict is Verdict.ACCEPTED
            assert in_alpha_section(sigma)

    def check_certificates():
        for _ in range(trials):
            aut = random_two_tape(rng)
            w1 = random_lasso(rng, "01", 2, 2)
            w2 = random_lasso(rng, "01", 2, 2)
            out = accepts_lasso_pair(aut, w1, w2)
            if out.verdict is not Verdict.ACCEPTED:
                continue
            cert = out.certificate
            assert cert.cycle.consumed1() and cert.cycle.consumed2()
            replay = RunPrefix(cert.stem.transitions + cert.cycle.transitions * 3)
            assert run_prefix_valid(aut, replay, w1, w2).ok

    return [
        ("lasso-normalization", check_lasso_normalization),
        ("ones-automaton-characterization", check_ones_automaton),
        ("coding-round-trip", check_coding_round_trip),
        ("coding-identity", check_coding_identity),
        ("metric-continuity-injectivity", check_metric_bounds),
        ("column-predicate-cross-check", check_column_predicate),
        ("pair-decision-vs-nested-dfs-reference", check_pair_decision_reference),
        ("union-law", check_union_law),
        ("silent-transition-normalization", check_silent_normalization),
        ("schema-replay", check_schema_replay),
        ("blocked-growth-ledgers", check_blocked_growth),
        ("complement-disjoint-from-coded-pairs", check_complement_structure),
        ("complement-covers-lasso-pairs", check_complement_coverage),
        ("section-law", check_section_law),
        ("certificate-replay", check_certificates),
    ]


def run_all(seed: int = 0, trials: int = 25) -> list[CheckResult]:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    results = []
    for name, fn in _checks(seed, trials):
        try:
            fn()
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc) or "assertion failed"))
        except Exception as exc:  # defensive: a crash is a failure, not an abort
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(CheckResult(name, True))
    return results
