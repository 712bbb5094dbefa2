import itertools
import math
import random
import sys
import threading

import pytest

from ratrel.constructions import alpha
from ratrel.grid import GridWord, encode_h
from ratrel.verify import random_lasso
from ratrel.words import (
    Alphabet,
    AlphabetMismatch,
    BINARY,
    BlockWord,
    GAMMA,
    LassoWord,
    _normal_parts,
    _primitive_root,
    lasso_equal,
    lasso_first_difference,
)

from oracles import reference_first_difference, reference_normal_parts
from util import all_binary_lassos, lasso, random_gamma_lasso

# a grid whose overrides put 1s into early and late antidiagonals
OVERRIDDEN = GridWord(LassoWord("0110", "0"), {2: LassoWord("1", "01"), 5: LassoWord("", "1")})


def test_alphabet_invariants():
    assert "A" in GAMMA and "1" in BINARY
    with pytest.raises(ValueError):
        Alphabet.of("")
    with pytest.raises(ValueError):
        Alphabet.of("00")
    with pytest.raises(AlphabetMismatch):
        BINARY.check_word("0A1")


@pytest.mark.parametrize("word, shown, letter, position", [
    ("0B1A", "'0B1A'", "B", 2),  # the first bad letter, in the whole word
    ("A" + "0" * 50, "'A00000000000000000000'...", "A", 1),
    ("0" * 30 + "AB" + "1" * 30, "...'" + "0" * 20 + "AB" + "1" * 19 + "'...", "A", 31),
    ("1" * 99 + "A", "...'" + "1" * 20 + "A'", "A", 100),
])
def test_alphabet_error_names_the_letter_and_its_position(word, shown, letter, position):
    with pytest.raises(AlphabetMismatch) as err:
        BINARY.check_word(word, "lasso")
    assert str(err.value) == (f"lasso {shown} uses letter {letter!r} not in alphabet {{01}}"
                              f" at position {position}")


def test_lasso_parse_and_str():
    w = lasso("A|0A")
    assert (w.prefix, w.period) == ("A", "0A")
    assert str(w) == "A|0A"
    assert str(lasso("|0A")) == "|0A"
    with pytest.raises(ValueError):
        LassoWord.parse("A0A")
    with pytest.raises(ValueError):
        LassoWord.parse("A|")
    with pytest.raises(AlphabetMismatch):
        LassoWord.parse("A|0X", GAMMA)


def test_letter_at_lasso():
    w = lasso("A|0A")
    assert w.letter_at(1) == "A"
    assert w.letter_at(4) == "0"
    assert [w.letter_at(n) for n in range(1, 8)] == list("A0A0A0A")
    with pytest.raises(ValueError):
        w.letter_at(0)


def test_letter_at_block_word():
    # layout A.B1.A.B2... with growing all-zero blocks puts A at 1, 3, 6, 10
    w = alpha()
    assert w.letter_at(6) == "A"
    assert [n for n in range(1, 16) if w.letter_at(n) == "A"] == [1, 3, 6, 10, 15]
    assert w.letter_at(7) == "0"


def test_prefix_of():
    w = alpha()
    assert w.prefix_of(8) == "A0A00A00"
    assert w.prefix_of(0) == ""
    assert lasso("|01").prefix_of(5) == "01010"
    assert lasso("A|0A").prefix_of(0) == ""


def test_prefix_extension_law():
    rng = random.Random(7)
    for _ in range(50):
        w = random_gamma_lasso(rng)
        for n in range(0, 12):
            assert w.prefix_of(n + 1) == w.prefix_of(n) + w.letter_at(n + 1)


def test_block_word_prefix_matches_letters():
    w = encode_h(OVERRIDDEN)
    text = w.prefix_of(30)
    assert all(text[n - 1] == w.letter_at(n) for n in range(1, 31))


def test_block_word_letters_are_its_grid_columns_and_a():
    assert alpha().letters() == "0A"
    assert encode_h(OVERRIDDEN).letters() == "01A"
    assert encode_h(GridWord(LassoWord("", "0"), {3: LassoWord("", "0")})).letters() == "0A"
    text = encode_h(OVERRIDDEN).prefix_of(400)
    assert set(text) == set(encode_h(OVERRIDDEN).letters())


def test_block_word_requires_its_grid():
    with pytest.raises(TypeError, match="h_source"):
        BlockWord(lambda n: "0" * n)


@pytest.mark.parametrize("fresh", [lambda: alpha(), lambda: encode_h(OVERRIDDEN)])
def test_block_word_equals_concatenation(fresh):
    # the coding spelled out entry by entry, read in order, out of order and
    # as prefixes, each on a fresh word so every read may grow the text
    x = fresh().h_source
    text = "".join("A" + "".join(x.entry(n + 1 - i, i) for i in range(1, n + 1)) for n in range(1, 25))
    w = fresh()
    assert [w.letter_at(n) for n in range(1, 200)] == list(text[:199])
    w = fresh()
    order = list(range(1, 200))
    random.Random(11).shuffle(order)
    assert all(w.letter_at(n) == text[n - 1] for n in order)
    for m in (0, 1, 2, 7, 64, 199):
        assert fresh().prefix_of(m) == text[:m]


def test_block_word_concurrent_reads():
    # four threads read interleaved positions of one fresh coded word while
    # its text grows; many fresh words give the swaps many chances to race
    n = 500
    expected = encode_h(OVERRIDDEN).prefix_of(n)

    def read(w: BlockWord, i: int, seen: list) -> None:
        seen[i] = "".join(w.letter_at(p) for p in range(i + 1, n + 1, 4))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            w, seen = encode_h(OVERRIDDEN), [None] * 4
            threads = [threading.Thread(target=read, args=(w, i, seen)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert seen == [expected[i::4] for i in range(4)]
    finally:
        sys.setswitchinterval(old)


def test_lasso_equal_examples():
    assert lasso_equal(lasso("|0"), lasso("|00"))
    assert lasso_equal(lasso("|01"), lasso("0|10"))
    assert not lasso_equal(lasso("|01"), lasso("|0"))


def test_normal_form_minimality():
    assert LassoWord("00", "1010").normal() == LassoWord("0", "01")
    assert LassoWord("A1", "11").normal() == LassoWord("A", "1")
    assert LassoWord("010", "10").normal() == LassoWord("", "01")


def test_normal_parts_match_letter_by_letter_fold():
    # every lasso over 01A with prefix <= 6 and period <= 4
    words = [""] + ["".join(t) for n in range(1, 7) for t in itertools.product("01A", repeat=n)]
    for period in (w for w in words if 1 <= len(w) <= 4):
        for prefix in words:
            assert _normal_parts(prefix, period) == reference_normal_parts(prefix, period)
    # long prefixes ending in period copies, after a partial copy that
    # continues them backwards or a random one that may not
    rng = random.Random(18)
    for _ in range(300):
        root = "".join(rng.choice("01A") for _ in range(rng.randint(1, 30)))
        period = root * rng.randint(1, 3)
        cut = rng.randint(0, len(period))
        partial = rng.choice((period[cut:], period[:cut], "".join(rng.sample(period, cut))))
        junk = "".join(rng.choice("01A") for _ in range(rng.randint(0, 5)))
        prefix = junk + partial + period * rng.randint(0, 40) + root[: rng.randint(0, len(root))]
        assert _normal_parts(prefix, period) == reference_normal_parts(prefix, period)


def test_primitive_root_matches_divisor_scan():
    # every word over 01A up to length 6 and over 01 up to length 10
    def by_divisors(s: str) -> str:
        n = len(s)
        return next(s[:d] for d in range(1, n + 1) if n % d == 0 and s[:d] * (n // d) == s)

    for letters, longest in (("01A", 6), ("01", 10)):
        for n in range(1, longest + 1):
            for t in itertools.product(letters, repeat=n):
                s = "".join(t)
                assert _primitive_root(s) == by_divisors(s), s


def test_period_recurrence_after_prefix():
    rng = random.Random(21)
    for _ in range(60):
        w = random_lasso(rng).normal()
        lp, pp = len(w.prefix), len(w.period)
        for n in range(lp + 1, lp + 2 * pp + 1):
            assert w.letter_at(n) == w.letter_at(n + pp)


def test_lasso_equal_iff_bounded_prefix_agreement():
    rng = random.Random(5)
    for _ in range(150):
        a = random_lasso(rng, "01", 2, 3)
        b = random_lasso(rng, "01", 2, 3)
        bound = len(a.prefix) + len(b.prefix) + 2 * math.lcm(len(a.period), len(b.period))
        assert lasso_equal(a, b) == (a.prefix_of(bound) == b.prefix_of(bound))


def test_first_difference_matches_letter_by_letter_scan():
    # every pair of binary lassos with prefix <= 2 and period <= 4, which
    # meets the Fine and Wilf bound p + q - gcd(p, q) exactly
    small = all_binary_lassos(2, 4)
    for a in small:
        for b in small:
            assert lasso_first_difference(a, b) == reference_first_difference(a, b)
    rng = random.Random(30)
    for _ in range(2000):
        a = random_gamma_lasso(rng, 8, 8)
        b = rng.choice((
            random_gamma_lasso(rng, 8, 8),
            LassoWord(a.prefix + a.period * rng.randint(0, 3), a.period * rng.randint(1, 2)),
            LassoWord(a.prefix_of(rng.randint(0, 30)) + rng.choice("01A"), a.period),
        ))
        assert lasso_first_difference(a, b) == reference_first_difference(a, b)
    # coprime periods 997 and 1000
    for a, b in ((LassoWord("1", "0" * 997), LassoWord("", "1" + "0" * 999)),
                 (LassoWord("", "0" * 996 + "1"), LassoWord("", "0" * 999 + "1")),
                 (LassoWord("A", "0" * 996 + "1"), LassoWord("A0", "0" * 998 + "1")),
                 (LassoWord("0", "0" * 997), LassoWord("", "0" * 1000))):
        assert lasso_first_difference(a, b) == reference_first_difference(a, b)
        assert lasso_first_difference(b, a) == reference_first_difference(b, a)


def test_methods_dispatch_on_both_word_kinds():
    w = lasso("A|0A")
    b = alpha()
    assert w.letter_at(1) == "A"
    assert b.letter_at(2) == "0"
    assert b.prefix_of(3) == "A0A"
