import itertools
import math
import random
import sys
import threading

import pytest

from ratrel.grid import GridWord, encode_h
from ratrel.verify import random_lasso
from ratrel.words import (
    Alphabet,
    AlphabetMismatch,
    BINARY,
    BlockWord,
    GAMMA,
    LassoWord,
    _primitive_root,
    lasso_equal,
    letter_at,
    prefix_of,
)

from util import random_gamma_lasso


def lasso(text: str) -> LassoWord:
    return LassoWord.parse(text, GAMMA)


def test_alphabet_invariants():
    assert "A" in GAMMA and "1" in BINARY
    with pytest.raises(ValueError):
        Alphabet.of("")
    with pytest.raises(ValueError):
        Alphabet.of("00")
    with pytest.raises(AlphabetMismatch):
        BINARY.check_word("0A1")


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
    w = BlockWord(block_fn=lambda n: "0" * n)
    assert w.letter_at(6) == "A"
    assert [n for n in range(1, 16) if w.letter_at(n) == "A"] == [1, 3, 6, 10, 15]
    assert w.letter_at(7) == "0"


def test_prefix_of():
    w = BlockWord(block_fn=lambda n: "0" * n)
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
    blocks = {1: "10", 2: "0", 3: "111"}
    w = BlockWord(block_fn=lambda n: blocks.get(n, "0" * n))
    text = w.prefix_of(30)
    assert all(text[n - 1] == w.letter_at(n) for n in range(1, 31))


@pytest.mark.parametrize(
    "block_fn",
    [lambda n: ("10", "", "111", "0")[n % 4], lambda n: "", lambda n: "01" * (n % 3)],
)
def test_block_word_equals_concatenation(block_fn):
    # blocks of uneven length and of length 0, read in order, out of order
    # and as prefixes, each on a fresh word so every read may grow the text
    text = "".join("A" + block_fn(n) for n in range(1, 300))
    w = BlockWord(block_fn=block_fn)
    assert [w.letter_at(n) for n in range(1, 200)] == list(text[:199])
    w = BlockWord(block_fn=block_fn)
    order = list(range(1, 200))
    random.Random(11).shuffle(order)
    assert all(w.letter_at(n) == text[n - 1] for n in order)
    for m in (0, 1, 2, 7, 64, 199):
        assert BlockWord(block_fn=block_fn).prefix_of(m) == text[:m]


def test_block_word_concurrent_reads():
    # four threads read interleaved positions of one fresh coded word while
    # its text grows; many fresh words give the swaps many chances to race
    x = GridWord(LassoWord("0110", "0"), {2: LassoWord("1", "01"), 5: LassoWord("", "1")})
    n = 500
    expected = encode_h(x).prefix_of(n)

    def read(w: BlockWord, i: int, seen: list) -> None:
        seen[i] = "".join(w.letter_at(p) for p in range(i + 1, n + 1, 4))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            w, seen = encode_h(x), [None] * 4
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


def test_module_level_dispatch():
    w = lasso("A|0A")
    b = BlockWord(block_fn=lambda n: "0" * n)
    assert letter_at(w, 1) == "A"
    assert letter_at(b, 2) == "0"
    assert prefix_of(b, 3) == "A0A"
