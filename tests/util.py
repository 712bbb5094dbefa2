"""Test-only helpers and generators; the shared generators live in ``ratrel.verify``."""

from __future__ import annotations

import random

from ratrel.grid import GridWord
from ratrel.twotape import Verdict, accepts_lasso_pair
from ratrel.verify import random_lasso
from ratrel.words import GAMMA, LassoWord


def accepted(aut, w1, w2) -> bool:
    return accepts_lasso_pair(aut, w1, w2).verdict is Verdict.ACCEPTED


def lasso(text: str) -> LassoWord:
    """A lasso over {0,1,A} from its text form "prefix|period"."""
    return LassoWord.parse(text, GAMMA)


def grid(default="|0", **cols) -> GridWord:
    """A grid from lasso texts: the default column, then overrides c2="11|0" and so on."""
    overrides = {int(k.lstrip("c")): LassoWord.parse(v) for k, v in cols.items()}
    return GridWord(LassoWord.parse(default), overrides)


def random_gamma_lasso(rng: random.Random, max_prefix: int = 4, max_period: int = 4) -> LassoWord:
    return random_lasso(rng, "01A", max_prefix, max_period)


def all_binary_lassos(max_prefix: int, max_period: int) -> list[LassoWord]:
    """Every lasso over {0,1} within the given description bounds."""
    words = [""]
    by_len = {0: [""]}
    for k in range(1, max(max_prefix, max_period) + 1):
        by_len[k] = [w + ch for w in by_len[k - 1] for ch in "01"]
        words += by_len[k]
    prefixes = [w for w in words if len(w) <= max_prefix]
    periods = [w for w in words if 1 <= len(w) <= max_period]
    return [LassoWord(p, q) for p in prefixes for q in periods]
