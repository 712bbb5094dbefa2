"""Finitely-described omega^2-words and their antidiagonal coding.

A grid word is an infinite matrix of 0/1 letters given column-wise: a
default lasso column plus finitely many overridden columns.  On this class
the "every column has finitely many 1s" predicate, pointwise equality and
the antidiagonal metric are all decidable.

The coding maps a grid x to the single word A.U2.A.U3.A... over {0,1,A},
where Uq is the antidiagonal x(q-1,1).x(q-2,2)...x(1,q-1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .words import (
    BINARY, BlockWord, GAMMA, LassoWord, lasso_first_difference, unique_keys,
)


class MalformedPrefix(ValueError):
    """A word prefix does not fit the A-separated 1,2,3,... block layout."""


@dataclass(frozen=True, eq=False)
class GridWord:
    """Column-wise description of an omega^2-word over {0,1}."""

    default_column: LassoWord
    overrides: dict[int, LassoWord] = field(default_factory=dict)

    def __post_init__(self):
        BINARY.check_word(self.default_column.letters(), "default column")
        for m, col in self.overrides.items():
            if not isinstance(m, int) or isinstance(m, bool) or m < 1:
                raise ValueError(f"column indices must be integers >= 1: {m!r}")
            BINARY.check_word(col.letters(), f"column {m}")
        object.__setattr__(self, "overrides", dict(self.overrides))

    @classmethod
    def zero(cls) -> "GridWord":
        return cls(LassoWord("", "0"))

    def column(self, m: int) -> LassoWord:
        if m < 1:
            raise ValueError("column indices are 1-based")
        return self.overrides.get(m, self.default_column)

    def entry(self, m: int, n: int) -> str:
        return self.column(m).letter_at(n)

    def columns(self) -> list[LassoWord]:
        """The default column, then every override in column order; a
        description may repeat, and an override may equal the default."""
        return [self.default_column] + [self.overrides[m] for m in sorted(self.overrides)]

    def __eq__(self, other: object) -> bool:
        """Pointwise equality, however each grid is described: no antidiagonal differs."""
        if not isinstance(other, GridWord):
            return NotImplemented
        return grid_distance_exponent(self, other) is None


def in_P(x: GridWord) -> bool:
    """Whether every column of x carries only finitely many 1s.

    A lasso column has finitely many 1s exactly when its period has no 1,
    so checking the default and every override suffices.
    """
    return all("1" not in col.period for col in x.columns())


def antidiagonal(x: GridWord, q: int) -> str:
    """The antidiagonal word x(q-1,1).x(q-2,2)...x(1,q-1), length q-1, in
    closed form: the default column's first q-1 letters, with letter q-m of
    each overridden column m < q written over index q-m-1."""
    if q < 2:
        raise ValueError("antidiagonals are indexed from 2")
    text = x.default_column.prefix_of(q - 1)
    for m, col in x.overrides.items():
        if m < q:
            text = text[: q - m - 1] + col.letter_at(q - m) + text[q - m :]
    return text


def encode_h(x: GridWord) -> BlockWord:
    """Code a grid as the block word whose n-th block is antidiagonal n+1."""
    return BlockWord(block_fn=lambda n: antidiagonal(x, n + 1), h_source=x)


def decode_h_prefix(w: str) -> dict[tuple[int, int], str]:
    """Recover grid entries, a map (column, row) -> letter, from a prefix of
    a coded word.

    Only complete antidiagonal blocks contribute entries.  Raises
    MalformedPrefix when the A separators do not sit at the triangular
    positions the 1,2,3,... block layout dictates.
    """
    GAMMA.check_word(w, "coded prefix")
    entries: dict[tuple[int, int], str] = {}
    if not w:
        return entries
    if w[0] != "A":
        raise MalformedPrefix("coded words start with the separator A")
    b = base = 1  # block b starts after its separator, at index b * (b + 1) / 2
    while base + b <= len(w):  # block b is complete
        block = w[base:base + b]
        if "A" in block:
            raise MalformedPrefix(
                f"separator at position {base + block.index('A') + 1} but block {b} needs {b} letters"
            )
        entries.update(zip(zip(range(b, 0, -1), range(1, b + 1)), block))
        if base + b < len(w) and w[base + b] != "A":
            raise MalformedPrefix(f"expected separator A at position {base + b + 1}")
        b, base = b + 1, base + b + 1
    return entries  # an incomplete last block is discarded


def grid_distance_exponent(x: GridWord, y: GridWord) -> int | None:
    """Index p of the first antidiagonal where x and y differ, or None if x = y.

    The metric on grids is 2**(-p); it is only defined for distinct grids,
    so equality comes back as None rather than an invented exponent.  Only
    finitely many columns are named, so the first unnamed one decides the defaults.
    """
    candidates: list[int] = []
    named = sorted(set(x.overrides) | set(y.overrides))
    for m in named:
        d = lasso_first_difference(x.column(m), y.column(m))
        if d is not None:
            candidates.append(m + d)
    d0 = lasso_first_difference(x.default_column, y.default_column)
    if d0 is not None:
        # the first column neither grid overrides, at most len(named) + 1
        m0 = min(set(range(1, len(named) + 2)).difference(named))
        candidates.append(m0 + d0)
    return min(candidates, default=None)


def grid_to_json(x: GridWord) -> str:
    doc = {
        "default": str(x.default_column),
        "columns": {str(m): str(col) for m, col in sorted(x.overrides.items())},
    }
    return json.dumps(doc, indent=2)


def grid_from_json(text: str) -> GridWord:
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except RecursionError:
        raise ValueError("grid document is nested too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("default"), str):
        raise ValueError("grid document needs a 'default' lasso string")
    unknown = sorted(doc.keys() - {"default", "columns"})
    if unknown:
        raise ValueError("unknown grid field " + ", ".join(map(repr, unknown)))
    columns = doc.get("columns", {})
    if not isinstance(columns, dict):
        raise ValueError("grid field 'columns' must map column numbers to lasso strings")
    default = LassoWord.parse(doc["default"], BINARY)
    overrides: dict[int, LassoWord] = {}
    for key, val in columns.items():
        if not key.isdecimal() or str(int(key)) != key:
            raise ValueError(f"grid column key {key!r} must be a plain decimal number")
        if not isinstance(val, str):
            raise ValueError(f"grid column {key!r} must be a lasso string")
        overrides[int(key)] = LassoWord.parse(val, BINARY)
    return GridWord(default, overrides)
