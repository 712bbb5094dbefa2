"""Test-only generators; the shared ones live in ``ratrel.verify``."""

from __future__ import annotations

import random

from ratrel.verify import random_lasso
from ratrel.words import LassoWord


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
