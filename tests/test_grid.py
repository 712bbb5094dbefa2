import json
import random
import re

import pytest

from ratrel.buchi import buchi_accepts_lasso, ones_automaton
from ratrel.constructions import alpha
from ratrel.grid import (
    GridWord,
    MalformedPrefix,
    antidiagonal,
    decode_h_prefix,
    encode_h,
    grid_distance_exponent,
    grid_from_json,
    grid_to_json,
    in_P,
)
from ratrel.verify import random_grid
from ratrel.words import LassoWord, lasso_equal



def lasso(text: str) -> LassoWord:
    return LassoWord.parse(text)


def grid(default="|0", **cols) -> GridWord:
    overrides = {int(k.lstrip("c")): lasso(v) for k, v in cols.items()}
    return GridWord(lasso(default), overrides)


def test_entry_examples():
    assert GridWord.zero().entry(3, 1) == "0"
    assert grid(c2="|1").entry(2, 5) == "1"
    assert grid(c2="11|0").entry(2, 3) == "0"


def test_column_examples():
    assert lasso_equal(GridWord.zero().column(7), lasso("|0"))
    g = grid(c3="01|10")
    assert g.column(3) == lasso("01|10")  # the override comes back verbatim


def test_column_agrees_with_entry():
    rng = random.Random(11)
    x = random_grid(rng)
    for _ in range(50):
        m = rng.randint(1, 9)
        n = rng.randint(1, 12)
        assert x.column(m).letter_at(n) == x.entry(m, n)


def test_in_P_examples():
    assert in_P(GridWord.zero())
    assert not in_P(grid(c2="|1"))
    assert in_P(grid(c2="11|0"))


def test_in_P_against_complement_automaton():
    few_ones = ones_automaton(complement=True)
    rng = random.Random(3)
    # fixed: 5-letter column prefixes, period "00" and overrides at column 7
    fixed = [grid("10110|00", c7="01101|00"), grid("10110|00", c7="01101|01")]
    for x in [random_grid(rng) for _ in range(60)] + fixed:
        expected = all(buchi_accepts_lasso(few_ones, col) for col in x.columns())
        assert in_P(x) == expected


def test_antidiagonal_examples():
    assert antidiagonal(GridWord.zero(), 4) == "000"
    x = grid(c1="01|0")  # only entry (1,2) is 1
    assert antidiagonal(x, 3) == "01"
    for q in range(2, 51):
        assert len(antidiagonal(GridWord.zero(), q)) == q - 1
    with pytest.raises(ValueError):
        antidiagonal(GridWord.zero(), 1)


def test_antidiagonal_equals_letter_by_letter_definition():
    fixed = [
        grid(),
        grid("1011001|01"),  # default prefix longer than the early antidiagonals
        grid("|01", c1="0110110|1", c5="|1"),  # override prefix longer than q; column q-1 at q=6
        grid("|1", c2="|0", c9="1|0", c30="|1"),  # overrides at columns >= q for q <= 30
        grid("01|0", c1="1|0", c6="1101|10", c7="|1", c8="0|1"),  # adjacent overrides
    ]
    rng = random.Random(43)
    for x in fixed + [random_grid(rng) for _ in range(200)]:
        for q in range(2, 40):
            expected = "".join(x.column(q - n).letter_at(n) for n in range(1, q))
            assert antidiagonal(x, q) == expected, (x, q)


def test_encode_examples():
    assert encode_h(GridWord.zero()).prefix_of(10) == "A0A00A000A"
    assert encode_h(GridWord.zero()).prefix_of(10) == alpha().prefix_of(10)
    w = encode_h(grid(c1="1|0"))  # entry (1,1) = 1
    assert w.prefix_of(3) == "A1A"
    seps = [n for n in range(1, 191) if w.letter_at(n) == "A"]
    assert seps == [n * (n + 1) // 2 for n in range(1, 20)]


def test_decode_examples():
    assert dict(decode_h_prefix("A0A01A").items()) == {(1, 1): "0", (2, 1): "0", (1, 2): "1"}
    assert len(decode_h_prefix("A")) == 0
    with pytest.raises(MalformedPrefix):
        decode_h_prefix("A00")
    with pytest.raises(MalformedPrefix):
        decode_h_prefix("0A")
    with pytest.raises(MalformedPrefix):
        decode_h_prefix("A0A0A")  # second block cut short by a separator


def test_decode_partial_blocks_are_dropped():
    assert dict(decode_h_prefix("A0A0").items()) == {(1, 1): "0"}
    # block 2 complete by length even without its trailing separator
    assert dict(decode_h_prefix("A0A01").items()) == {(1, 1): "0", (2, 1): "0", (1, 2): "1"}


def test_decode_encode_round_trip():
    rng = random.Random(17)
    for _ in range(25):
        x = random_grid(rng)
        text = encode_h(x).prefix_of(400)
        partial = decode_h_prefix(text)
        assert len(partial) > 0
        for (m, n), ch in partial.items():
            assert x.entry(m, n) == ch


def test_round_trip_long_prefix():
    x = grid(c2="101|0", c5="|1")
    text = encode_h(x).prefix_of(10**4)
    for (m, n), ch in decode_h_prefix(text).items():
        assert x.entry(m, n) == ch


def test_grid_equality_semantics():
    assert grid() == grid(c3="0|00")  # override equal to the default is redundant
    assert grid(c2="|1") == grid(c2="1|11")
    assert grid(c2="|1") != grid(c3="|1")
    assert grid() != grid(default="|1")


def test_distance_exponent_examples():
    x = grid(c2="|1")
    assert grid_distance_exponent(x, x) is None
    assert grid_distance_exponent(grid(), grid(c3="0|00")) is None
    a = GridWord.zero()
    b = grid(c1="1|0")  # differs first at (1, 1)
    assert grid_distance_exponent(a, b) == 2
    c = grid(c2="001|0", c4="1|0")  # differences exactly at (2,3) and (4,1)
    assert grid_distance_exponent(a, c) == 5
    assert grid_distance_exponent(c, a) == 5


def test_distance_exponent_via_default_difference():
    a = grid(default="|0", c1="|1")
    b = grid(default="0001|0", c1="|1")  # defaults first differ at row 4
    # smallest non-overridden column is 2, so the first differing cell is (2, 4)
    assert grid_distance_exponent(a, b) == 6


def test_injectivity_separation_bound():
    rng = random.Random(23)
    checked = 0
    while checked < 100:
        x = random_grid(rng)
        y = random_grid(rng)
        p = grid_distance_exponent(x, y)
        if p is None:
            continue
        checked += 1
        reach = p * (p + 1) // 2
        assert encode_h(x).prefix_of(reach) != encode_h(y).prefix_of(reach)


def test_continuity_agreement_bound():
    rng = random.Random(29)
    checked = 0
    while checked < 100:
        x = random_grid(rng)
        y = random_grid(rng)
        p = grid_distance_exponent(x, y)
        if p is None:
            continue
        checked += 1
        agree = (p - 1) * p // 2
        assert encode_h(x).prefix_of(agree) == encode_h(y).prefix_of(agree)


def test_grid_column_keys_are_plain_decimals():
    assert grid_from_json('{"default": "|0", "columns": {"10": "|1"}}') == grid(c10="|1")
    # int() reads each of these as a column number, "02" the same as "2"
    for key in ("02", "1_0", " 3", "+3", "\u0663", "x", ""):
        doc = json.dumps({"default": "|0", "columns": {"2": "|1", key: "|0"}})
        with pytest.raises(ValueError, match=re.escape(f"grid column key {key!r}")):
            grid_from_json(doc)


def test_grid_unknown_fields_are_rejected():
    for doc in ({"default": "|0", "colums": {"2": "|1"}}, {"default": "|0", "Columns": {}, "x": 1}):
        with pytest.raises(ValueError, match="unknown grid field") as err:
            grid_from_json(json.dumps(doc))
        assert all(repr(key) in str(err.value) for key in doc.keys() - {"default", "columns"})


def test_grid_json_round_trip():
    x = grid(default="1|0", c2="|1", c7="01|10")
    y = grid_from_json(grid_to_json(x))
    assert x == y
    with pytest.raises((ValueError, KeyError)):
        grid_from_json('{"columns": {}}')
