"""The built-in reference relation family and its verification machinery.

The centrepiece is a six-state two-tape automaton T whose accepting runs
track pairs of A-separated block words where the second tape carries only
zeros between separators, block splits are linked by a unit-step ledger,
and an accepting state is visited exactly when the zero-buffer is allowed
to grow.  Around it live the complement pieces C1..C5 (everything that is
not a coded grid paired with the fixed word alpha), their union R2, the
full relation R, the decomposition enumerator and the run-schema builder
that witnesses membership for coded grids whose columns die out.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import inf, lcm
from typing import Callable

from .grid import GridWord, antidiagonal, encode_h, in_P
from .twotape import (
    RunPrefix,
    TwoTapeAutomaton,
    TwoTapeTransition,
    run_prefix_valid,
    union,
)
from .words import BlockWord, GAMMA, LassoWord, OmegaWord

SIGMA = "01"
# the opening A.s.A.ss.A of every coded word, one allowed-letter string per position
OPENING = ("A", SIGMA, "A", SIGMA, SIGMA, "A")


class NotInP(ValueError):
    """The grid has a column with infinitely many 1s; no run schema exists."""


class UndecidableCondition(ValueError):
    """No search bound can be established for this word shape."""


def alpha() -> BlockWord:
    """The fixed word A.0.A.00.A.000..., i.e. the coded all-zero grid."""
    return BlockWord(block_fn=lambda n: "0" * n, h_source=GridWord.zero())


def _loops(q: str, letters1=GAMMA.letters, letters2=GAMMA.letters) -> list[TwoTapeTransition]:
    """The one-letter self-loops (a, "") and ("", b) of q, for a in letters1 and b in letters2."""
    return [TwoTapeTransition(q, a, "", q) for a in letters1] + [
        TwoTapeTransition(q, "", b, q) for b in letters2
    ]


def _gamma_automaton(states, transitions, initial, accepting) -> TwoTapeAutomaton:
    return TwoTapeAutomaton(
        states=tuple(states),
        sigma1=GAMMA,
        sigma2=GAMMA,
        transitions=tuple(transitions),
        initial=initial,
        accepting=frozenset(accepting),
    )


@lru_cache(maxsize=None)
def automaton_T() -> TwoTapeAutomaton:
    """The six-state reference automaton; accepting state q4 marks growth steps."""
    T = TwoTapeTransition
    transitions = [
        *_loops("q0", SIGMA, SIGMA),
        T("q0", "A", "A", "q0"),
        T("q0", "A", "A", "q1"),
        *_loops("q1", SIGMA, ""),
        T("q1", "", "", "q2"),
        T("q2", "A", "", "q3"),
        T("q3", "", "", "q4"),
        T("q4", "", "A", "q2"),
        T("q5", "", "A", "q2"),
    ]
    for a in SIGMA:
        transitions += [T("q2", a, "0", "q2"), T("q3", a, "0", "q3"), T("q3", a, "", "q5")]
    return _gamma_automaton(("q0", "q1", "q2", "q3", "q4", "q5"), transitions, "q0", {"q4"})


# ---------------------------------------------------------------------------
# Decompositions: the block ledger for pairs (coded grid, alpha).


def _last_one(col: LassoWord) -> float:
    """Last row of a column carrying a 1: 0 for none, inf when its period has 1s."""
    col = col.normal()
    return inf if "1" in col.period else col.prefix.rfind("1") + 1


def _cap_profile(x: GridWord) -> Callable[[int, int], int]:
    """The safe-cap function cap(k, n) of the ledgers for (coded x, alpha).

    cap(k, n) is the largest zero-buffer length usable at block n and every
    later block.  Length ell is safe iff every column j <= ell is zero from
    row k+n-j on, i.e. its death row last_one(j)+j is at most k+n-1; a
    buffer below the cap can be kept (or grown into the cap) forever, and
    conversely any infinite ledger must stay below it.  So cap(k, n) counts
    the leading columns whose running maximum death row is at most k+n-1:
    one bisect over the override columns 1..J, and past J every column is
    the default, whose death row grows by one per column, which gives
    max(J, k+n-1-last_one(default)).  A death row is at least its column
    index, so cap(k, n) <= k+n-1, the block length, without a check.
    """
    last_override = max(x.overrides, default=0)
    running = list(
        accumulate((_last_one(x.column(j)) + j for j in range(1, last_override + 1)), max)
    )
    tail = _last_one(x.default_column)

    def cap(k: int, n: int) -> int:
        row = k + n - 1
        count = bisect_right(running, row)
        return count if count < last_override else max(count, row - tail)

    return cap


@dataclass(frozen=True)
class Decomposition:
    """Prefix of a block ledger: k plus the split sizes s_n = |u_n|.

    Derived per the ledger arithmetic: |v_n| = k+n-1-s_n, |w_n| = |v_n|,
    |z_n| = s_n, and consecutive splits satisfy s_{n+1} in {s_n, s_n+1}.
    A growth step is an index with s_{n+1} = s_n, i.e. the buffer grows.
    """

    k: int
    splits: tuple[int, ...]

    def v_len(self, n: int) -> int:
        return self.k + n - 1 - self.splits[n - 1]

    @property
    def depth(self) -> int:
        return len(self.splits)

    @property
    def growth_steps(self) -> int:
        return sum(
            1 for i in range(len(self.splits) - 1) if self.splits[i + 1] == self.splits[i]
        )


@dataclass(frozen=True)
class DecompositionSearch:
    branches: tuple[Decomposition, ...]

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    @property
    def max_growth_steps(self) -> int:
        return max((b.growth_steps for b in self.branches), default=0)


def build_decompositions(x: GridWord, depth: int, k_max: int) -> DecompositionSearch:
    """All ledger prefixes of the given depth for the pair (coded x, alpha).

    Enumerates every k <= k_max and every unit-step split sequence whose
    zero-buffers stay within the permanent-safety cap; this keeps exactly
    the prefixes of infinite ledgers, so depth-local accidents (a buffer
    grown into a column that turns 1 later) do not appear as branches.
    """
    if depth < 1 or k_max < 1:
        raise ValueError("depth and k_max must be >= 1")
    cap = _cap_profile(x)
    branches: list[Decomposition] = []
    for k in range(1, k_max + 1):
        caps = [cap(k, n) for n in range(1, depth + 1)]
        stack: list[tuple[int, tuple[int, ...]]] = []
        for v1 in range(min(k, caps[0]) + 1):
            stack.append((1, (v1,)))
        while stack:
            n, vs = stack.pop()
            if n == depth:
                splits = tuple(k + i - 1 - vs[i - 1] for i in range(1, depth + 1))
                branches.append(Decomposition(k, splits))
                continue
            v = vs[-1]
            stack.append((n + 1, vs + (v,)))
            if v + 1 <= caps[n]:
                stack.append((n + 1, vs + (v + 1,)))
    branches.sort(key=lambda d: (d.k, d.splits))
    return DecompositionSearch(tuple(branches))


def decomposition_valid(x: GridWord, dec: Decomposition) -> bool:
    """Replay a ledger prefix against the grid from first principles."""
    k = dec.k
    if k < 1:
        return False
    prev = None
    for n in range(1, dec.depth + 1):
        s = dec.splits[n - 1]
        if not 0 <= s <= k + n - 1:
            return False
        if prev is not None and s not in (prev, prev + 1):
            return False
        block = antidiagonal(x, k + n)
        if any(ch != "0" for ch in block[s:]):
            return False
        prev = s
    return True


# ---------------------------------------------------------------------------
# Run schemas: constructive witnesses for grids whose columns die out.


@dataclass(eq=False)
class RunSchema:
    """Greedy ledger for (coded grid, alpha) with growth at the earliest safe block.

    The ledger starts at k = 1, so block n has length n.  The buffer grows
    to length ell once every column <= ell is permanently zero at the rows
    the buffer will cover; because each column has a last 1, every length
    becomes safe eventually, so growth happens infinitely often.
    """

    grid: GridWord
    _v: list[int] = field(default_factory=list, init=False, repr=False)
    _cap: Callable[[int, int], int] = field(init=False, repr=False)

    def __post_init__(self):
        self._cap = _cap_profile(self.grid)

    def v_len(self, n: int) -> int:
        while len(self._v) < n:
            m = len(self._v) + 1
            cap = self._cap(1, m)
            prev = self._v[-1] if self._v else min(1, cap)
            self._v.append(prev if m == 1 else min(prev + 1, cap))
        return self._v[n - 1]

    def split(self, n: int) -> int:
        return n - self.v_len(n)

    def growth_at(self, n: int) -> bool:
        return self.v_len(n + 1) == self.v_len(n) + 1

    def growth_steps(self, blocks: int) -> int:
        return sum(1 for n in range(1, blocks + 1) if self.growth_at(n))


def build_run_schema(x: GridWord) -> RunSchema:
    if not in_P(x):
        raise NotInP("some column carries infinitely many 1s")
    return RunSchema(x)


def schema_to_run(schema: RunSchema, blocks: int) -> RunPrefix:
    """Explicit transition sequence of the reference automaton for the schema.

    Covers the opening ledger chunk plus the first ``blocks`` block cycles;
    the accepting state is entered exactly at growth steps.  The run shares
    its transitions: each one it uses is built once per call, one per
    (state, letter), and every block reads its letters from those tables.
    """
    if blocks < 0:
        raise ValueError("block count must be >= 0")
    x = schema.grid
    T = TwoTapeTransition
    run: list[TwoTapeTransition] = [T("q0", "A", "A", "q1")]
    if blocks == 0:
        return RunPrefix(tuple(run))

    loop1 = {ch: T("q1", ch, "", "q1") for ch in SIGMA}
    step2 = {ch: T("q2", ch, "0", "q2") for ch in SIGMA}
    step3 = {ch: T("q3", ch, "0", "q3") for ch in SIGMA}
    exit3 = {ch: T("q3", ch, "", "q5") for ch in SIGMA}
    close2 = T("q2", "A", "", "q3")
    grow = (T("q3", "", "", "q4"), T("q4", "", "A", "q2"))
    keep = T("q5", "", "A", "q2")
    block = antidiagonal(x, 2)  # each antidiagonal is built once
    run.extend(map(loop1.__getitem__, block[: schema.split(1)]))
    run.append(T("q1", "", "", "q2"))
    for n in range(1, blocks + 1):
        s = schema.split(n)
        v = block[s:]
        if "1" in v:
            raise RuntimeError("schema produced a non-zero buffer")
        run.extend(map(step2.__getitem__, v))
        run.append(close2)
        nxt = antidiagonal(x, n + 2)
        run.extend(map(step3.__getitem__, nxt[:s]))
        if schema.growth_at(n):
            run += grow
        else:
            run += (exit3[nxt[s]], keep)
        block = nxt
    return RunPrefix(tuple(run))


def grid_pair_in_r1(x: GridWord, check_blocks: int = 50) -> bool:
    """Whether (coded x, alpha) belongs to the ledger relation R1.

    Decided through the column predicate; positive answers additionally
    build a run schema and replay a truncation through the reference
    automaton as defence in depth.
    """
    if not in_P(x):
        return False
    schema = build_run_schema(x)
    report = run_prefix_valid(
        automaton_T(), schema_to_run(schema, check_blocks), encode_h(x), alpha()
    )
    if not report.ok:
        raise RuntimeError(f"schema replay failed: {report.problems}")
    return True


# ---------------------------------------------------------------------------
# The complement pieces C1..C5 and the unions R2 and R.


@lru_cache(maxsize=None)
def c_automaton(j: int) -> TwoTapeAutomaton:
    """Automaton for the j-th complement piece, j in 1..5.

    C1: some tape has finitely many As.  C2: some tape does not start with
    the shape A.s.A.ss.A.  C3: the second tape contains a 1.  C4: after a
    common count of blocks, the next blocks differ in length.  C5: after a
    common count of blocks and one extra block on tape 1, the compared
    block lengths break the +1 ladder.

    Every accepting state loops on single letters of both tapes: on every
    letter, except that C1's drop1 and drop2 read no A on the tape they drop.
    """
    T = TwoTapeTransition
    if j == 1:
        transitions = [*_loops("pick"), *_loops("drop1", SIGMA), *_loops("drop2", letters2=SIGMA)]
        for a in GAMMA.letters:
            transitions += [T("pick", a, "", "drop1"), T("pick", "", a, "drop2")]
        states = ("pick", "drop1", "drop2")
        return _gamma_automaton(states, transitions, "pick", states[1:])
    if j == 2:
        # each tape reads OPENING along a chain; any other letter goes to the sink
        transitions = _loops("sink")
        for tape, name in ((1, "t"), (2, "s")):
            chain = ("root", *(f"{name}{i}" for i in range(1, 6)), None)
            for src, dst, allowed in zip(chain, chain[1:], OPENING):
                for a in GAMMA.letters:
                    target = dst if a in allowed else "sink"
                    if target:  # a conforming opening stops at its last A
                        transitions.append(T(src, *((a, "") if tape == 1 else ("", a)), target))
        states = ("root", "t1", "t2", "t3", "t4", "t5", "s1", "s2", "s3", "s4", "s5", "sink")
        return _gamma_automaton(states, transitions, "root", {"sink"})
    if j == 3:
        transitions = [*_loops("scan"), T("scan", "", "1", "hot"), *_loops("hot")]
        return _gamma_automaton(("scan", "hot"), transitions, "scan", {"hot"})
    if j == 4:
        return _block_comparison(
            ("start", "blocks", "cmp", "more1", "more2", "tail"),
            T("blocks", "A", "A", "cmp"),
            *(T("cmp", a, "A", "more1") for a in SIGMA),
            *(T("cmp", "A", a, "more2") for a in SIGMA),
            *_loops("more1", SIGMA, ""),
            *_loops("more2", "", SIGMA),
            T("more1", "A", "", "tail"),
            T("more2", "", "A", "tail"),
        )
    if j == 5:
        return _block_comparison(
            ("start", "blocks", "skip", "cmp", "lag2", "lead1", "lead1b", "tail"),
            T("blocks", "A", "A", "skip"),
            *_loops("skip", SIGMA, ""),
            T("skip", "A", "", "cmp"),
            T("cmp", "A", "A", "tail"),
            *(T("cmp", "A", a, "lag2") for a in SIGMA),
            *(T("cmp", a, "A", "lead1") for a in SIGMA),
            *_loops("lag2", "", SIGMA),
            *(T("lead1", a, "", "lead1b") for a in SIGMA),
            *_loops("lead1b", SIGMA, ""),
            T("lag2", "", "A", "tail"),
            T("lead1b", "A", "", "tail"),
        )
    raise ValueError("complement pieces are numbered 1..5")


def _block_comparison(states, *exits: TwoTapeTransition) -> TwoTapeAutomaton:
    """C4 or C5: blocks skips common blocks, cmp reads the compared blocks side by
    side, tail accepts anything; exits are the piece's ways into and out of cmp."""
    T = TwoTapeTransition
    skeleton = [
        T("start", "A", "A", "blocks"),
        T("blocks", "A", "A", "blocks"),
        *_loops("blocks", SIGMA, SIGMA),
        *(T("cmp", a, b, "cmp") for a in SIGMA for b in SIGMA),
        *_loops("tail"),
    ]
    return _gamma_automaton(states, skeleton + list(exits), "start", {"tail"})


@lru_cache(maxsize=None)
def r2_automaton() -> TwoTapeAutomaton:
    """Union of the five complement pieces."""
    aut = c_automaton(1)
    for j in range(2, 6):
        aut = union(aut, c_automaton(j))
    return aut


@lru_cache(maxsize=None)
def r_automaton() -> TwoTapeAutomaton:
    """The full reference relation: ledger relation plus complement pieces."""
    return union(automaton_T(), r2_automaton())


# ---------------------------------------------------------------------------
# Structural complement conditions (automaton-independent evaluation).


@dataclass(frozen=True)
class BlockProfile:
    """A-separated block structure of a word.

    kind "layout": blocks of length 1,2,3,... (coded grids and alpha);
    kind "finite": finitely many separators, only complete blocks listed;
    kind "cyclic": eventually periodic block lengths, transient + cycle.
    """

    leading_a: bool
    kind: str
    lengths: tuple[int, ...] = ()
    cycle: tuple[int, ...] = ()

    def block_len(self, n: int) -> int | None:
        if n < 1:
            raise ValueError("blocks are 1-based")
        if self.kind == "layout":
            return n
        if n <= len(self.lengths):
            return self.lengths[n - 1]
        if self.kind == "cyclic":
            return self.cycle[(n - len(self.lengths) - 1) % len(self.cycle)]
        return None

    def bounded(self) -> int:
        return max(self.lengths + self.cycle, default=0)


def block_profile(w: OmegaWord) -> BlockProfile:
    """Block structure of a lasso, or of a block word tagged as a coded grid.

    Block n of a lasso runs from its n-th A to the next one, so all block
    lengths are gaps between the A positions of prefix.period.period in
    normal form.  Blocks after an A inside the prefix are the transient;
    blocks after the As of the first period copy repeat forever and form
    the cycle.  That split is exact because a normal prefix never ends in
    the period's last letter, so no prefix A recurs with the period.  A
    period without A leaves finitely many complete blocks, the prefix gaps.

    Only the grid tag fixes the 1,2,3,... layout of a block word: any
    finite look at an untagged word's block lengths says nothing about the
    rest, so untagged block words raise UndecidableCondition.
    """
    if isinstance(w, BlockWord):
        if not isinstance(w.h_source, GridWord):
            raise UndecidableCondition("untagged block word: block layout unknown")
        return BlockProfile(leading_a=True, kind="layout")
    w = w.normal()
    lp, pp = len(w.prefix), len(w.period)
    text = w.prefix + w.period * 2
    seps = [i + 1 for i, ch in enumerate(text) if ch == "A"]
    gaps = tuple(b - a - 1 for a, b in zip(seps, seps[1:]))
    leading_a = text[0] == "A"
    if "A" not in w.period:
        return BlockProfile(leading_a=leading_a, kind="finite", lengths=gaps)
    transient = bisect_right(seps, lp)
    cycle_end = bisect_right(seps, lp + pp)
    return BlockProfile(
        leading_a=leading_a,
        kind="cyclic",
        lengths=gaps[:transient],
        cycle=gaps[transient:cycle_end],
    )


def _finitely_many_a(w: OmegaWord) -> bool:
    if isinstance(w, BlockWord):
        return False
    return "A" not in w.normal().period


def _conforming_opening(w: OmegaWord) -> bool:
    return all(ch in allowed for ch, allowed in zip(w.prefix_of(len(OPENING)), OPENING))


def _contains_one(w: OmegaWord) -> bool:
    if isinstance(w, LassoWord):
        return "1" in w.letters()
    x = w.h_source
    if not isinstance(x, GridWord):
        raise UndecidableCondition("untagged block word: letter inventory unknown")
    return "1" in x.default_column.letters() or any(
        "1" in col.letters() for col in x.overrides.values()
    )


def _exists_block_mismatch(
    p1: BlockProfile, p2: BlockProfile, off1: int, off2: int, delta: int
) -> bool:
    """Whether some n >= 1 has blocks n+off1 / n+off2 defined with L1 != L2 + delta."""
    if p1.kind == "layout" and p2.kind == "layout":
        return off1 != off2 + delta
    if p1.kind == "cyclic" and p2.kind == "cyclic":
        horizon = (
            max(len(p1.lengths), len(p2.lengths))
            + lcm(len(p1.cycle), len(p2.cycle))
            + max(off1, off2)
        )
    else:
        horizon = (
            len(p1.lengths)
            + len(p2.lengths)
            + len(p1.cycle)
            + len(p2.cycle)
            + max(p1.bounded(), p2.bounded())
            + max(off1, off2)
            + 2
        )
    for n in range(1, horizon + 1):
        l1 = p1.block_len(n + off1)
        l2 = p2.block_len(n + off2)
        if l1 is None or l2 is None:
            return False
        if l1 != l2 + delta:
            return True
    return False


def c_condition_holds(j: int, w1: OmegaWord, w2: OmegaWord) -> bool:
    """Evaluate the defining condition of complement piece j directly."""
    if j == 1:
        return _finitely_many_a(w1) or _finitely_many_a(w2)
    if j == 2:
        return not _conforming_opening(w1) or not _conforming_opening(w2)
    if j == 3:
        return _contains_one(w2)
    if j in (4, 5):
        p1 = block_profile(w1)
        p2 = block_profile(w2)
        if not (p1.leading_a and p2.leading_a):
            return False
        if j == 4:
            return _exists_block_mismatch(p1, p2, 1, 1, 0)
        return _exists_block_mismatch(p1, p2, 2, 1, 1)
    raise ValueError("complement pieces are numbered 1..5")


# ---------------------------------------------------------------------------
# The distinguished section and the reduction.


def in_alpha_section(w: OmegaWord) -> bool:
    """Membership in the one nontrivial section of the reference relation.

    Lassos are never coded grids (coded block lengths grow strictly, a
    lasso's block structure is eventually periodic), so they all belong.
    Tagged block words delegate to the column predicate of their grid;
    untagged ones raise UndecidableCondition.
    """
    if isinstance(w, LassoWord):
        return True
    x = w.h_source
    if isinstance(x, GridWord):
        return in_P(x)
    raise UndecidableCondition("untagged block word: grid unknown")


def grid_pair(x: GridWord) -> tuple[BlockWord, BlockWord]:
    """The canonical reduction of a grid: its coded word paired with alpha."""
    return encode_h(x), alpha()


def section_member(sigma: LassoWord, u: LassoWord) -> bool:
    """Whether (sigma, u) lies in the reference relation, for lasso inputs.

    Always true: every section at an ultimately periodic second component
    is full, because such a word is never the fixed word alpha.
    """
    GAMMA.check_word(sigma.letters(), "first component")
    GAMMA.check_word(u.letters(), "second component")
    return True
