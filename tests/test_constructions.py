import hashlib
import itertools
import random
import sys

import pytest

from ratrel import constructions, grid as grid_module, verify
from ratrel.constructions import (
    Decomposition,
    _cap,
    NotInP,
    _block_lengths,
    alpha,
    automaton_T,
    build_decompositions,
    build_run_schema,
    c_automaton,
    c_condition_holds,
    decomposition_valid,
    grid_pair,
    grid_pair_in_r1,
    in_alpha_section,
    r2_automaton,
    r_automaton,
    schema_to_run,
    section_member,
)
from ratrel.grid import GridWord, antidiagonal, encode_h, in_P
from ratrel.twotape import (
    RunPrefix,
    TwoTapeAutomaton,
    TwoTapeTransition,
    Verdict,
    accepts_lasso_pair,
    bounded_run_search,
    run_prefix_valid,
    to_json,
    validate,
)
from ratrel.verify import random_grid, random_lasso
from ratrel.words import GAMMA, LassoWord

from oracles import reference_schema_run
from util import accepted, grid, lasso, random_gamma_lasso

T = TwoTapeTransition


# -- the fixed word ------------------------------------------------------------


def test_alpha_prefix():
    assert alpha().prefix_of(10) == "A0A00A000A"
    w = alpha()
    assert [n for n in range(1, 56) if w.letter_at(n) == "A"] == [n * (n + 1) // 2 for n in range(1, 11)]


def test_alpha_equals_coded_zero_grid():
    n = 10**5
    assert alpha().prefix_of(n) == encode_h(GridWord.zero()).prefix_of(n)


# -- the reference automaton -----------------------------------------------------


def test_reference_automaton_shape():
    aut = automaton_T()
    assert len(aut.states) == 6
    assert aut.initial == "q0"
    assert aut.accepting == frozenset({"q4"})
    assert len(aut.transitions) == 19
    assert T("q2", "A", "", "q3") in aut.transitions
    assert T("q4", "", "A", "q2") in aut.transitions
    validate(aut)


FAMILY_DIGESTS = {
    "T": "82b26e09bc5e22bc318a16227ac848d5f1cb924444fb584f40f939ba1e7f573f",
    "C1": "5c0526408220ff93565a04fa86dc619da06c2cb6b67e3a6473ec95a50d06d252",
    "C2": "8b8a61d124227a5feb5fb1bc692f36fdf95de645d0e8b636a41cc379616b8641",
    "C3": "f660f60ef4041bbf155c770052ed1e62537ef693163660d7752eadab36cb90ee",
    "C4": "ad0a308eb417d4db1f48886e1aba591baa527d2e37ec4e51f1720fedd9d91a10",
    "C5": "f7450af3700571b57e7b3a38a20fb9ff6eeb59839d62c0076d58db1e608797b0",
    "R2": "a2ec18ee9fa3c8f2e3a00d5af41240824c32083c42b911bb00d81f4140aa719f",
    "R": "114db2d7b96c64263551b61a0caed4c819adf4bcad8f1153f056a31643ff84da",
}


@pytest.mark.parametrize("name", sorted(FAMILY_DIGESTS))
def test_built_in_family_is_pinned(name):
    # the JSON export fixes states, state order, transitions and acceptance;
    # state order fixes the DFS order and so the certificates
    if name.startswith("C"):
        aut = c_automaton(int(name[1:]))
    else:
        aut = {"T": automaton_T, "R2": r2_automaton, "R": r_automaton}[name]()
    digest = hashlib.sha256(to_json(aut).encode()).hexdigest()
    assert digest == FAMILY_DIGESTS[name]


# -- decompositions ---------------------------------------------------------------


def test_decompositions_zero_grid():
    found = build_decompositions(GridWord.zero(), depth=10, k_max=3)
    assert len(found) > 0
    assert max(b.growth_steps for b in found) == 9  # one branch grows at every step
    assert all(decomposition_valid(GridWord.zero(), b) for b in found)


def test_decompositions_blocked_by_constant_one_column():
    x = grid(c1="|1")
    found = build_decompositions(x, depth=12, k_max=3)
    assert len(found) == 3  # one forced all-zero-buffer branch per k
    assert all(b.v_len(n) == 0 for b in found for n in range(1, 13))
    assert all(b.growth_steps == 0 for b in found)


def test_decompositions_blocked_by_alternating_column():
    x = grid(c1="|10")  # 1s at every odd row
    found = build_decompositions(x, depth=20, k_max=3)
    assert len(found) > 0
    assert all(b.v_len(n) == 0 for b in found for n in range(1, 21))
    assert all(b.growth_steps == 0 for b in found)


def test_decomposition_walk_laws():
    rng = random.Random(83)
    for _ in range(10):
        x = random_grid(rng)
        found = build_decompositions(x, depth=8, k_max=2)
        for dec in found:
            for n in range(1, dec.depth + 1):
                s = dec.splits[n - 1]
                assert 0 <= s <= dec.k + n - 1
                assert s + dec.v_len(n) == dec.k + n - 1  # |u_n v_n| law
            for n in range(1, dec.depth):
                assert dec.splits[n] in (dec.splits[n - 1], dec.splits[n - 1] + 1)
                assert dec.v_len(n + 1) in (dec.v_len(n), dec.v_len(n) + 1)
            assert decomposition_valid(x, dec)


def test_blocking_law():
    # a 1 at (column j, row r) caps the buffer below j at block n = r + j - k
    cases = [(2, 3), (1, 2), (3, 1)]
    for j, r in cases:
        col = "0" * (r - 1) + "1"
        x = grid(**{f"c{j}": f"{col}|0"})
        found = build_decompositions(x, depth=15, k_max=3)
        for dec in found:
            n = r + j - dec.k
            if 1 <= n <= dec.depth:
                assert dec.v_len(n) < j


def zero_from(col: LassoWord, row: int) -> bool:
    """Whether a column has no 1 at any row >= row (one period past the prefix suffices)."""
    end = max(row - 1, len(col.prefix)) + len(col.period)
    return "1" not in col.prefix_of(end)[row - 1 :]


def test_cap_is_longest_run_of_safe_columns():
    # the cap at row k+n-1 is the buffer length ell such that every column
    # j <= ell is zero from row k+n-j on, and column ell+1 is not (or ell
    # fills the block)
    def check(x, k, n):
        c = _cap(x, k + n - 1)
        assert 0 <= c <= k + n - 1
        assert all(zero_from(x.column(j), k + n - j) for j in range(1, c + 1))
        if c < k + n - 1:
            assert not zero_from(x.column(c + 1), k + n - c - 1)

    rng = random.Random(97)
    for _ in range(300):
        default = random_lasso(rng, "01", 4, 2)
        picks = rng.sample(range(1, 13), rng.randint(0, 5))
        x = GridWord(default, {j: random_lasso(rng, "01", 5, 2) for j in picks})
        for k in (1, 2, 3):
            for n in range(1, 25):
                check(x, k, n)
    # far columns: no work grows with the column index
    for far in (3_000_000, 10**12):
        for default in ("|0", "01|0", "|01"):
            for col in ("1|0", "|1", "0|0"):
                x = grid(default, **{"c2": "0001|0", f"c{far}": col})
                for k in (1, 2, 3):
                    for n in range(1, 25):
                        check(x, k, n)
    assert _cap(grid("|0", c2="0001|0", **{f"c{10**12}": "|1"}), 40) == 40


def test_decompositions_come_out_sorted():
    rng = random.Random(61)
    for _ in range(150):
        x = random_grid(rng)
        found = build_decompositions(x, depth=rng.randint(1, 10), k_max=rng.randint(1, 4))
        assert found == tuple(sorted(found, key=lambda d: (d.k, d.splits))), x


def test_decomposition_replay_rejects_corruption():
    x = GridWord.zero()
    good = build_decompositions(x, depth=5, k_max=1)[0]
    bad = Decomposition(good.k, good.splits[:-1] + (good.splits[-1] + 3,))
    assert not decomposition_valid(x, bad)


# -- run schemas -------------------------------------------------------------------


def test_schema_zero_grid_grows_everywhere():
    schema = build_run_schema(GridWord.zero())
    assert [schema.split(n) for n in range(1, 9)] == [0] * 8
    assert all(schema.growth_at(n) for n in range(1, 20))


def test_schema_delays_growth_for_prefix_one():
    schema = build_run_schema(grid(c1="1|0"))
    assert schema.v_len(1) == 0  # block 1 would cover the 1 at (1, 1)
    assert schema.v_len(2) == 1  # first growth lands on block 2, row 2
    assert schema.growth_steps(20) == 20  # every later step grows


def test_schema_respects_deep_prefix_ones():
    x = grid(c1="001|0", c2="0001|0")
    schema = build_run_schema(x)
    for n in range(1, 30):
        v = schema.v_len(n)
        block = [x.entry(j, 1 + n - j) for j in range(1, v + 1)]
        assert all(ch == "0" for ch in block)
    assert schema.v_len(30) >= 5  # growth resumes once the 1s are passed


def test_schema_rejects_negative_blocks_after_earlier_calls():
    schema = build_run_schema(GridWord.zero())
    assert schema.v_len(5) == 5
    for call in (schema.v_len, schema.split, schema.growth_at):
        with pytest.raises(ValueError):
            call(-1)


def test_schema_truncations_replay():
    rng = random.Random(89)
    # fixed: a 5-letter column prefix, period "00" and an override at column 7
    fixed = grid("10110|00", c3="1|0", c7="01101|00")
    for x in [random_grid(rng, ensure_in_p=True) for _ in range(6)] + [fixed]:
        schema = build_run_schema(x)
        for blocks in (50, 100):
            run = schema_to_run(schema, blocks)
            report = run_prefix_valid(automaton_T(), run, encode_h(x), alpha())
            assert report.ok
            assert report.accepting_visits == schema.growth_steps(blocks)


def test_schema_runs_are_unchanged_and_build_each_antidiagonal_once(monkeypatch):
    # digest of the runs as first written, which built each antidiagonal twice
    rng = random.Random(7)
    digest = hashlib.sha256()
    for _ in range(40):
        x = random_grid(rng, ensure_in_p=True)
        run = schema_to_run(build_run_schema(x), rng.randint(0, 60))
        digest.update(repr(run.transitions).encode())
    assert digest.hexdigest() == "5da81cdd093bf2f4335f952371cc07eea7ae1bcd57c6bf2b08011d9e93294b7b"

    built = count_antidiagonals(monkeypatch)
    schema = build_run_schema(grid("10110|00", c3="1|0"))
    for blocks in (0, 1, 7, 60):  # the schema's coded word keeps what earlier calls built
        schema_to_run(schema, blocks)
        assert built == (list(range(2, blocks + 3)) if blocks else [])


def count_antidiagonals(monkeypatch) -> list[int]:
    """The indices of the antidiagonals built from now on, in both modules
    that look ``antidiagonal`` up."""
    built = []

    def counted(x, q):
        built.append(q)
        return antidiagonal(x, q)

    monkeypatch.setattr(constructions, "antidiagonal", counted)
    monkeypatch.setattr(grid_module, "antidiagonal", counted)
    return built


def test_grid_pair_in_r1_builds_each_antidiagonal_once(monkeypatch):
    # the schema and the replay read one coded text: antidiagonals 2..102, once each
    x = grid("10110|00", c3="1|0", c7="01101|00")
    built = count_antidiagonals(monkeypatch)
    assert grid_pair_in_r1(x, check_blocks=100)
    assert built == list(range(2, 103))


def test_verify_schema_replay_builds_each_antidiagonal_once_per_schema(monkeypatch):
    # per grid: its schema's run, replayed against the schema's own coded
    # text, then grid_pair_in_r1, which builds a schema of its own
    check = dict(verify._checks(0, 20))["schema-replay"]
    built = count_antidiagonals(monkeypatch)
    check()
    assert built == (list(range(2, 43)) + list(range(2, 53))) * 5


def test_schema_runs_equal_the_letter_by_letter_reference():
    rng = random.Random(151)
    grids = [random_grid(rng, ensure_in_p=True) for _ in range(12)]
    grids.append(grid("10110|00", c3="1|0", c7="01101|00"))
    for x in grids:
        schema = build_run_schema(x)
        for blocks in range(61):
            assert schema_to_run(schema, blocks) == reference_schema_run(schema, blocks), (x, blocks)


def test_replay_reports_shared_and_fresh_transitions_alike():
    # one broken copy per problem; each keeps the other checks satisfied
    x = grid("10110|00", c3="1|0")
    run = schema_to_run(build_run_schema(x), 30).transitions
    assert run[:3] == (T("q0", "A", "A", "q1"), T("q1", "1", "", "q1"), T("q1", "", "", "q2"))
    cases = [
        (run, ()),
        (run[:3] + (T("q2", "", "", "q2"),) + run[3:],
         ("run uses transitions not present in the automaton",)),
        (run[:2] + run[3:], (f"transition {run[3]} does not start at 'q1'",)),
        (run[:1] + (T("q1", "0", "", "q1"),) + run[2:],
         ("tape-1 labels do not match the first word",)),
        ((T("q0", "", "0", "q0"),) + run, ("tape-2 labels do not match the second word",)),
    ]
    for ts, problems in cases:
        shared = run_prefix_valid(automaton_T(), RunPrefix(ts), encode_h(x), alpha())
        fresh = RunPrefix(tuple(T(*t) for t in ts))
        assert run_prefix_valid(automaton_T(), fresh, encode_h(x), alpha()) == shared
        assert shared.problems == problems


def test_schema_visit_count_example():
    run = schema_to_run(build_run_schema(GridWord.zero()), 5)
    report = run_prefix_valid(automaton_T(), run, encode_h(GridWord.zero()), alpha())
    assert report.ok and report.accepting_visits == 5


def test_schema_zero_blocks_covers_opening_only():
    run = schema_to_run(build_run_schema(GridWord.zero()), 0)
    assert run.transitions == (T("q0", "A", "A", "q1"),)


def test_schema_requires_column_predicate():
    with pytest.raises(NotInP):
        build_run_schema(grid(c2="|1"))


def test_grid_pair_in_r1():
    assert grid_pair_in_r1(GridWord.zero())
    assert not grid_pair_in_r1(grid(c2="|1"))
    x = grid(c2="1111|0")
    assert grid_pair_in_r1(x)
    run = schema_to_run(build_run_schema(x), 100)
    assert run_prefix_valid(automaton_T(), run, encode_h(x), alpha()).ok


def test_grid_pair_in_r1_matches_column_predicate():
    rng = random.Random(137)
    for _ in range(40):
        x = random_grid(rng)
        assert grid_pair_in_r1(x) == in_P(x)


# -- the reference automaton accepts beyond the strict ledger ----------------------


def strict_ledger_branches(y1_blocks, y2_blocks, k: int, depth: int, strict: bool):
    """Enumerate ledgers for A-block patterns; strict requires all-zero buffers."""

    def b1(i):
        return y1_blocks[(i - 1) % len(y1_blocks)]

    def b2(i):
        return y2_blocks[(i - 1) % len(y2_blocks)]

    def zero_suffix(word):
        n = 0
        while n < len(word) and word[len(word) - 1 - n] == "0":
            n += 1
        return n

    survivors = []
    stack = [(1, None, ())]  # block index, |z| of previous block, growth flags
    while stack:
        n, prev_z, flags = stack.pop()
        if n > depth:
            survivors.append(flags)
            continue
        blk1 = b1(k - 1 + n)
        blk2 = b2(k - 1 + n)
        if any(ch != "0" for ch in blk2):
            continue  # second tape blocks must be all-zero
        limit = zero_suffix(blk1) if strict else len(blk1)
        for v in range(0, min(limit, len(blk2)) + 1):
            u = len(blk1) - v
            z = len(blk2) - v
            if prev_z is not None and u not in (prev_z, prev_z + 1):
                continue
            grown = prev_z is not None and u == prev_z
            stack.append((n + 1, z, flags + (grown,)))
    return survivors


def test_reference_automaton_accepts_beyond_strict_ledger():
    # Accepted by the reference automaton, whose copy phase does not force
    # all-zero buffers on tape 1 -- but no strict ledger exists for it.
    y1 = lasso("A|111A1A")
    y2 = lasso("A|00A")
    assert accepted(automaton_T(), y1, y2)

    strict = TwoTapeAutomaton(
        automaton_T().states,
        GAMMA,
        GAMMA,
        tuple(t for t in automaton_T().transitions if t != T("q2", "1", "0", "q2")),
        "q0",
        automaton_T().accepting,
    )
    assert not accepted(strict, y1, y2)

    for k in range(1, 5):
        assert strict_ledger_branches(["111", "1"], ["00"], k, depth=8, strict=True) == []
    relaxed = strict_ledger_branches(["111", "1"], ["00"], 1, depth=8, strict=False)
    assert any(all(flags[1:]) for flags in relaxed)  # an all-growth relaxed ledger exists


def test_reference_automaton_accepts_coded_all_ones_grid():
    # Same gap at the coded level: the all-ones grid fails the column
    # predicate and admits no growing ledger, yet the automaton shows fair
    # accepting behaviour on its coded pair.
    ones = grid(default="|1")
    assert not in_P(ones)
    assert not grid_pair_in_r1(ones)
    found = build_decompositions(ones, depth=10, k_max=3)
    assert all(b.growth_steps == 0 for b in found)
    out = bounded_run_search(automaton_T(), encode_h(ones), alpha(), 20000)
    assert out.stats.fair_visits >= 5


# -- complement pieces -------------------------------------------------------------


def test_c1_examples():
    assert accepted(c_automaton(1), lasso("|0"), lasso("|0"))
    assert c_condition_holds(1, lasso("|0"), lasso("|0"))
    assert not accepted(c_automaton(1), lasso("A|0A"), lasso("A|0A"))


def test_c3_examples():
    rng = random.Random(97)
    for _ in range(10):
        w = random_gamma_lasso(rng)
        assert accepted(c_automaton(3), w, lasso("|1"))
        assert c_condition_holds(3, w, lasso("|1"))


def test_c4_example_pair():
    sigma1 = lasso("A0A|0A")
    sigma2 = lasso("A0A00|00A")
    assert accepted(c_automaton(4), sigma1, sigma2)
    assert c_condition_holds(4, sigma1, sigma2)


def test_c5_detects_broken_ladder():
    # blocks of sigma1: 1, 2, 2, 2...; blocks of sigma2: 1, 2, 3, ...
    sigma1 = lasso("A0A00|A00")
    sigma2 = lasso("A0A00A000|0A")
    got = c_condition_holds(5, sigma1, sigma2)
    assert got == accepted(c_automaton(5), sigma1, sigma2)


def test_conditions_false_on_coded_pairs():
    rng = random.Random(101)
    for _ in range(20):
        x = random_grid(rng)
        pair = grid_pair(x)
        for j in range(1, 6):
            assert not c_condition_holds(j, *pair)


# Fine-Wilf-tight pairs (piece, first differing compared block): the compared
# block lengths repeat every 2 and 3 blocks, every 5 and 7, every 7 and 11; the
# last pair needs more than the larger word's As plus 3 compared blocks
FINE_WILF_TIGHT = [
    ("A0|A0A00", "A0|A0A00A0", 4, 4),
    ("A0|A0A00A0A00A0", "A0|A0A00A0A00A0A0A00", 4, 11),
    ("A0A0|A00A000A00A000A00", "A0|A0A00A0A00A0A0A00", 5, 11),
    ("A0|A0A0A00A0A0A0A00", "A0|A0A0A00A0A0A0A00A0A0A00A0", 4, 17),
]


def test_condition_automaton_agreement_per_piece():
    rng = random.Random(103)
    pairs = [(lasso(a), lasso(b)) for a, b, _, _ in FINE_WILF_TIGHT]
    pairs += [(random_gamma_lasso(rng), random_gamma_lasso(rng)) for _ in range(60)]
    for w1, w2 in pairs:
        for j in range(1, 6):
            assert accepted(c_automaton(j), w1, w2) == c_condition_holds(j, w1, w2), (
                j,
                str(w1),
                str(w2),
            )


def test_fine_wilf_tight_pairs_differ_late():
    # the comparison horizon must reach the first difference
    for a, b, j, first in FINE_WILF_TIGHT:
        w1, w2 = lasso(a), lasso(b)
        assert c_condition_holds(j, w1, w2)
        off1, delta = (1, 0) if j == 4 else (2, 1)
        l1 = _block_lengths(w1, first + off1)[off1:]
        l2 = _block_lengths(w2, first + 1)[1:]
        assert [x != y + delta for x, y in zip(l1, l2)] == [False] * (first - 1) + [True]


def test_block_conditions_coded_grid_against_plateau():
    # the lassos' blocks climb 1, 2, ..., k and then stay at k
    for plateau in map(lasso, ("A0A00|A000", "A0A00A000A0000A00000A000000|A0000000")):
        for coded in (alpha(), encode_h(grid(c2="11|0"))):
            for j in (4, 5):
                assert c_condition_holds(j, coded, plateau)
                assert c_condition_holds(j, plateau, coded)


def long_gamma_lasso(rng: random.Random, fill: str = "01", separators: bool = True) -> LassoWord:
    """A lasso whose period has 20-40 letters, several of them As unless told otherwise."""
    n = rng.randint(20, 40)
    places = set(rng.sample(range(n), rng.randint(3, 6))) if separators else set()
    period = "".join("A" if i in places else rng.choice(fill) for i in range(n))
    return LassoWord(rng.choice(("", "A", "0A", "A0A00A", "A1A01A", "A0A11")), period)


def assert_replays(aut, out, w1, w2):
    cert = out.certificate
    for unroll in (1, 3):
        replay = RunPrefix(cert.stem.transitions + cert.cycle.transitions * unroll)
        assert run_prefix_valid(aut, replay, w1, w2).ok


def test_conditions_and_r_on_long_periods():
    # periods far beyond the naive oracle's reach, checked against the
    # exact characterisation of each piece instead
    rng = random.Random(149)
    seen = {j: set() for j in range(1, 6)}
    for i in range(24):
        w1 = long_gamma_lasso(rng)
        w2 = w1 if i % 4 == 0 else long_gamma_lasso(rng, rng.choice(("0", "01")), i % 8 != 1)
        for j in range(1, 6):
            out = accepts_lasso_pair(c_automaton(j), w1, w2)
            verdict = out.verdict is Verdict.ACCEPTED
            assert verdict == c_condition_holds(j, w1, w2), (j, str(w1), str(w2))
            seen[j].add(verdict)
            if verdict:
                assert_replays(c_automaton(j), out, w1, w2)
        out = accepts_lasso_pair(r_automaton(), w1, w2)
        assert out.verdict is Verdict.ACCEPTED
        assert_replays(r_automaton(), out, w1, w2)
    assert all(seen[j] == {True, False} for j in range(1, 6)), seen


def test_decision_deeper_than_recursion_limit():
    # the product is a single chain of 3000 configurations closing into a cycle
    rng = random.Random(151)
    period = "".join(rng.choice("01A") for _ in range(3000))
    assert len(period) > sys.getrecursionlimit()
    w = LassoWord("", period)
    loops = tuple(T("q", a, a, "q") for a in "01A")
    for accepting in (frozenset({"q"}), frozenset()):
        aut = TwoTapeAutomaton(("q",), GAMMA, GAMMA, loops, "q", accepting)
        out = accepts_lasso_pair(aut, w, w)
        assert (out.verdict is Verdict.ACCEPTED) == bool(accepting)
        if accepting:
            assert len(out.certificate.cycle) == 3000
            assert_replays(aut, out, w, w)


def test_r2_covers_lasso_pairs():
    rng = random.Random(107)
    r2 = r2_automaton()
    for _ in range(60):
        w1 = random_gamma_lasso(rng)
        w2 = random_gamma_lasso(rng)
        assert accepted(r2, w1, w2)
        assert any(c_condition_holds(j, w1, w2) for j in range(1, 6))


def test_r2_accepts_c4_pair():
    assert accepted(r2_automaton(), lasso("A0A|0A"), lasso("A0A00|00A"))


def test_r_accepts_random_pairs_and_ledger_pair():
    rng = random.Random(109)
    r = r_automaton()
    for _ in range(40):
        assert accepted(r, random_gamma_lasso(rng), random_gamma_lasso(rng))
    assert accepted(r, lasso("A|0A"), lasso("A|0A"))


def test_r_fair_evidence_on_coded_pair():
    x = grid(c1="11|0", c3="1|0")
    out = bounded_run_search(r_automaton(), encode_h(x), alpha(), 10**5)
    assert out.verdict is Verdict.INCONCLUSIVE
    assert out.stats.fair_visits >= 20


# -- the distinguished section ------------------------------------------------------


def coded_shape_possible(w: LassoWord) -> bool:
    """Gap analysis: could a lasso have the strictly growing block layout?"""
    # the lengths of a lasso's blocks repeat every c blocks past its first
    # a - c, where a counts its As and c its period's; a strictly growing
    # layout must differ from them within one round past that
    horizon = w.letters().count("A") + 2
    return w.letter_at(1) == "A" and _block_lengths(w, horizon) == list(range(1, horizon + 1))


def test_block_lengths_match_separator_gaps():
    # block n of a lasso is the gap after its n-th A; check every block
    # that ends inside a long prefix, on every small lasso over {0,1,A}
    for lp, pp in itertools.product(range(4), range(1, 4)):
        for prefix in map("".join, itertools.product("01A", repeat=lp)):
            for period in map("".join, itertools.product("01A", repeat=pp)):
                w = LassoWord(prefix, period)
                complete = [len(gap) for gap in w.prefix_of(40).split("A")[1:-1]]
                assert _block_lengths(w, len(complete)) == complete, w
                # a period without A leaves only the prefix's complete blocks
                finite = max(prefix.count("A") - 1, 0)
                assert len(_block_lengths(w, 50)) == (finite if "A" not in period else 50), w
    # block n of a coded grid has length n
    for w in (alpha(), encode_h(grid(c2="|1"))):
        assert _block_lengths(w, 9) == list(range(1, 10))
        assert [len(b) for b in w.prefix_of(55).split("A")[1:-1]] == list(range(1, 10))


def test_lassos_always_in_alpha_section():
    rng = random.Random(113)
    for _ in range(80):
        w = random_gamma_lasso(rng)
        assert in_alpha_section(w)
        assert not coded_shape_possible(w)


def test_alpha_section_on_coded_words():
    assert in_alpha_section(alpha())
    assert not in_alpha_section(encode_h(grid(c2="|1")))
    assert in_alpha_section(encode_h(grid(c2="111|0")))


def test_grid_pair_reduction():
    w1, w2 = grid_pair(GridWord.zero())
    n = 10**4
    assert w1.prefix_of(n) == alpha().prefix_of(n) == w2.prefix_of(n)
    x = grid(c2="101|0")
    assert grid_pair(x)[0].h_source is x
    rng = random.Random(127)
    for _ in range(50):
        y = random_grid(rng)
        assert in_P(y) == in_alpha_section(grid_pair(y)[0])


def test_section_member_examples():
    assert section_member(lasso("|1"), lasso("|0"))
    assert section_member(lasso("A|0A"), lasso("A|0A"))


def test_section_member_matches_decision():
    rng = random.Random(131)
    r = r_automaton()
    for _ in range(60):
        sigma = random_gamma_lasso(rng)
        u = random_gamma_lasso(rng)
        assert section_member(sigma, u) == accepted(r, sigma, u)
