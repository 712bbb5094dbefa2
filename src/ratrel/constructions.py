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

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, cycle, islice
from math import inf

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
    return inf if "1" in col.period else col.prefix.rfind("1") + 1


def _cap(x: GridWord, row: int) -> int:
    """The largest zero-buffer length usable, for (coded x, alpha), at block n
    of a ledger with offset k and every later block, where row = k+n-1.

    Column j is usable while its death row last_one(j)+j is at most row,
    so the cap is one less than the first column whose death row exceeds
    row.  Default columns die one row later per column, so the first
    failing one is the first column from row-last_one(default)+1 on that
    no override names.  A death row is at least its column index, so the
    cap is at most row, the block length.
    """
    j = max(1, row - _last_one(x.default_column) + 1)
    while j in x.overrides:
        j += 1
    return min([j] + [m for m, col in x.overrides.items() if _last_one(col) + m > row]) - 1


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


def build_decompositions(x: GridWord, depth: int, k_max: int) -> tuple[Decomposition, ...]:
    """All ledger prefixes of the given depth for the pair (coded x, alpha),
    sorted by k, then by splits.

    Enumerates every k <= k_max and every unit-step split sequence whose
    zero-buffers stay within the permanent-safety cap; this keeps exactly
    the prefixes of infinite ledgers, so depth-local accidents (a buffer
    grown into a column that turns 1 later) do not appear as branches.
    The walk emits that order itself: k ascends in the outer loop, and the
    stack pops the larger buffer first, which is the smaller split.
    """
    if depth < 1 or k_max < 1:
        raise ValueError("depth and k_max must be >= 1")
    branches: list[Decomposition] = []
    for k in range(1, k_max + 1):
        caps = [_cap(x, k + n - 1) for n in range(1, depth + 1)]
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
    return tuple(branches)


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
    _v: list[int] = field(default_factory=lambda: [0], init=False, repr=False)
    coded: BlockWord = field(init=False, repr=False)

    def __post_init__(self):
        self.coded = encode_h(self.grid)

    def v_len(self, n: int) -> int:
        if n < 0:
            raise ValueError("block indices are >= 0")
        while len(self._v) <= n:  # v_m = min(v_(m-1) + 1, cap at row m) from v_0 = 0
            self._v.append(min(self._v[-1] + 1, _cap(self.grid, len(self._v))))
        return self._v[n]

    def split(self, n: int) -> int:
        return n - self.v_len(n)

    def growth_at(self, n: int) -> bool:
        return self.v_len(n + 1) == self.v_len(n) + 1

    def growth_steps(self, blocks: int) -> int:
        # v grows by 0 or 1 per block, because the cap never falls as the row grows
        return self.v_len(max(blocks, 0) + 1) - self.v_len(1)


def build_run_schema(x: GridWord) -> RunSchema:
    if not in_P(x):
        raise NotInP("some column carries infinitely many 1s")
    return RunSchema(x)


def schema_to_run(schema: RunSchema, blocks: int) -> RunPrefix:
    """Explicit transition sequence of the reference automaton for the schema.

    Covers the opening ledger chunk plus the first ``blocks`` block cycles;
    the accepting state is entered exactly at growth steps.  The run shares
    its transitions, built once per call, one per (state, letter), and reads
    its blocks from ``schema.coded``, the text a replay can read too.
    """
    if blocks < 0:
        raise ValueError("block count must be >= 0")
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
    text = schema.coded.prefix_of((blocks + 1) * (blocks + 4) // 2)  # block n at n(n+1)/2
    run.extend(map(loop1.__getitem__, text[1 : 1 + schema.split(1)]))
    run.append(T("q1", "", "", "q2"))
    for n in range(1, blocks + 1):
        s = schema.split(n)
        v = text[n * (n + 1) // 2 + s : n * (n + 3) // 2]
        if "1" in v:
            raise RuntimeError("schema produced a non-zero buffer")
        run.extend(map(step2.__getitem__, v))
        run.append(close2)
        nxt = text[(n + 1) * (n + 2) // 2 : (n + 1) * (n + 4) // 2]
        run.extend(map(step3.__getitem__, nxt[:s]))
        if schema.growth_at(n):
            run += grow
        else:
            run += (exit3[nxt[s]], keep)
    return RunPrefix(tuple(run))


def grid_pair_in_r1(x: GridWord, check_blocks: int = 50) -> bool:
    """Whether (coded x, alpha) belongs to the ledger relation R1.

    Decided through the column predicate; positive answers additionally
    build a run schema and replay a truncation through the reference
    automaton, against the schema's own coded word, as defence in depth.
    """
    if not in_P(x):
        return False
    schema = build_run_schema(x)
    report = run_prefix_valid(
        automaton_T(), schema_to_run(schema, check_blocks), schema.coded, alpha()
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
    """Union of the five complement pieces, states named ``C1.pick`` and so on."""
    return union({f"C{j}": c_automaton(j) for j in range(1, 6)})


@lru_cache(maxsize=None)
def r_automaton() -> TwoTapeAutomaton:
    """The full reference relation: ledger relation plus complement pieces."""
    return union({"T": automaton_T(), **{f"C{j}": c_automaton(j) for j in range(1, 6)}})


# ---------------------------------------------------------------------------
# Structural complement conditions (automaton-independent evaluation): C1..C3
# read letters, C4 and C5 compare block lengths, the gaps between As.


def _block_lengths(w: OmegaWord, count: int) -> list[int]:
    """The lengths of w's first ``count`` complete blocks, fewer if w has fewer.

    Block n runs from the n-th A to the next one.  In prefix.period.period
    the gaps after the prefix's As come once and those after the first
    period copy's As repeat forever, for any description of a lasso.  A
    coded grid's block n has length n.
    """
    if isinstance(w, BlockWord):
        return list(range(1, count + 1))
    gaps = [len(b) for b in (w.prefix + w.period * 2).split("A")[1:-1]]
    once, again = w.prefix.count("A"), w.period.count("A")
    return list(islice(chain(gaps[:once], cycle(gaps[once : once + again])), count))


def _finitely_many_a(w: OmegaWord) -> bool:
    return isinstance(w, LassoWord) and "A" not in w.period


def _conforming_opening(w: OmegaWord) -> bool:
    return all(ch in allowed for ch, allowed in zip(w.prefix_of(len(OPENING)), OPENING))


def _exists_block_mismatch(w1: OmegaWord, w2: OmegaWord, off1: int, off2: int, delta: int) -> bool:
    """Whether some n >= 1 has blocks n+off1 of w1 and n+off2 of w2 with L1 != L2 + delta.

    The first a1 + a2 + max(off1, off2) + 2 such pairs decide it, where a
    counts the As of a lasso's description and is 0 for a coded grid:
    - two lassos: past both transients the compared lengths repeat every
      c1 and c2 blocks (c the period's As), so by Fine and Wilf agreement
      on max(transients) + c1 + c2 - gcd(c1, c2) pairs, at most a1 + a2,
      means agreement forever;
    - a coded grid against a lasso: the grid's lengths grow strictly, so
      they differ from the lasso's, which repeat every c blocks, within one
      round past its transient;
    - two coded grids: block 1 decides;
    - a word with fewer blocks ends the comparison.
    """
    horizon = max(off1, off2) + 2 + sum(
        w.letters().count("A") for w in (w1, w2) if isinstance(w, LassoWord)
    )
    l1 = _block_lengths(w1, horizon + off1)[off1:]
    l2 = _block_lengths(w2, horizon + off2)[off2:]
    return any(a != b + delta for a, b in zip(l1, l2))


def c_condition_holds(j: int, w1: OmegaWord, w2: OmegaWord) -> bool:
    """Evaluate the defining condition of complement piece j directly; C4 and
    C5 compare block lengths up to _exists_block_mismatch's Fine and Wilf
    horizon."""
    if j == 1:
        return _finitely_many_a(w1) or _finitely_many_a(w2)
    if j == 2:
        return not _conforming_opening(w1) or not _conforming_opening(w2)
    if j == 3:
        return "1" in w2.letters()
    if j in (4, 5):
        off1, delta = (1, 0) if j == 4 else (2, 1)
        mismatch = _exists_block_mismatch(w1, w2, off1, 1, delta)
        return mismatch and all(w.letter_at(1) == "A" for w in (w1, w2))
    raise ValueError("complement pieces are numbered 1..5")


# ---------------------------------------------------------------------------
# The distinguished section and the reduction.


def in_alpha_section(w: OmegaWord) -> bool:
    """Membership in the one nontrivial section of the reference relation.

    Lassos are never coded grids (coded block lengths grow strictly, a
    lasso's block structure is eventually periodic), so they all belong.
    A coded grid belongs when its grid satisfies the column predicate.
    """
    return isinstance(w, LassoWord) or in_P(w.h_source)


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
