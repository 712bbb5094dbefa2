"""Span tracing for the traced benchmark run, installed from outside the program.

The package imports names directly (``from .twotape import
accepts_lasso_pair``), so a function is wrapped in every module that
looks it up, with one wrapper per function.  A wrapper records a span:
name, start, end, parent span and operation id.  Functions called too
often for a span each (``BlockWord.letter_at``, ``antidiagonal``) are
counted and timed instead, and ``TwoTapeAutomaton.transitions_from`` is
counted inside decisions.  Spans stay in memory until the run ends.

Operation id 0 is set-up; timed operations are numbered from 1; the
checks between operations run under id -1 and are left out of every
per-operation figure.
"""

from __future__ import annotations

import json
from time import perf_counter

AUTOMATA = ("automaton_T", "c_automaton", "r2_automaton", "r_automaton")
SCHEMA = ("grid_pair_in_r1", "build_run_schema", "schema_to_run", "build_decompositions")

# span name -> (defining module, function name)
WRAPPED = {
    "cli.main": ("cli", "main"),
    "verify.run_all": ("verify", "run_all"),
    "twotape.accepts_lasso_pair": ("twotape", "accepts_lasso_pair"),
    "twotape.bounded_run_search": ("twotape", "bounded_run_search"),
    "twotape.run_prefix_valid": ("twotape", "run_prefix_valid"),
    "twotape.epsilon_normalize": ("twotape", "epsilon_normalize"),
    "twotape.union": ("twotape", "union"),
    "scc.tarjan_scc": ("_scc", "tarjan_scc"),
    "buchi.buchi_accepts_lasso": ("buchi", "buchi_accepts_lasso"),
    "grid.encode_h": ("grid", "encode_h"),
    "grid.grid_from_json": ("grid", "grid_from_json"),
    "grid.in_P": ("grid", "in_P"),
    "constructions.alpha": ("constructions", "alpha"),
    **{f"constructions.{n}": ("constructions", n) for n in AUTOMATA + SCHEMA},
}
# modules whose globals callers resolve the wrapped names through
SITES = ("cli", "verify", "twotape", "constructions", "grid", "buchi")

DECIDE = "twotape.accepts_lasso_pair"
SEARCH = "twotape.bounded_run_search"
SCC = "scc.tarjan_scc"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, info]
        self.stack: list[int] = []
        self.op = 0
        self.deciding = 0
        self.configs = 0
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}

    def wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self.stack
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, result)
            return result

        return traced

    def counted(self, name: str, fn):
        """Wrap fn to count its calls and time inside timed operations, without spans."""
        tracer = self
        self.calls[name] = 0
        self.seconds[name] = 0.0

        def timed(*args):
            if tracer.op <= 0:
                return fn(*args)
            t = perf_counter()
            try:
                return fn(*args)
            finally:
                tracer.seconds[name] += perf_counter() - t
                tracer.calls[name] += 1

        return timed

    def install(self, ratrel) -> None:
        """Wrap every function of WRAPPED wherever a module of SITES looks it up."""
        import importlib

        mods = {m: importlib.import_module(f"ratrel.{m}") for m in SITES + ("_scc",)}
        infos = {
            DECIDE: _decide_info,
            SEARCH: _search_info,
            SCC: lambda args, _: (args[0], sum(map(len, args[1]))),
        }
        by_original = {}
        for name, (mod, attr) in WRAPPED.items():
            fn = getattr(mods[mod], attr)
            wrapper = self.wrap(name, fn, infos.get(name))
            if name == DECIDE:
                wrapper = self._counting_decisions(wrapper)
            by_original[id(fn)] = wrapper
        antidiagonal = mods["grid"].antidiagonal
        by_original[id(antidiagonal)] = self.counted("grid.antidiagonal", antidiagonal)
        for mod in SITES:
            ns = vars(mods[mod])
            for attr, value in list(ns.items()):
                if id(value) in by_original:
                    ns[attr] = by_original[id(value)]

        block = ratrel.words.BlockWord
        block.letter_at = self.counted("words.letter_at", block.letter_at)
        cls = ratrel.twotape.TwoTapeAutomaton
        transitions_from = cls.transitions_from
        tracer = self

        def counted_transitions_from(aut, state):
            if tracer.deciding and tracer.op > 0:
                tracer.configs += 1
            return transitions_from(aut, state)

        cls.transitions_from = counted_transitions_from

    def _counting_decisions(self, wrapper):
        tracer = self

        def deciding(*args, **kwargs):
            tracer.deciding += 1
            try:
                return wrapper(*args, **kwargs)
            finally:
                tracer.deciding -= 1

        return deciding

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"],
                       "spans": self.spans}, fh)

    def summary(self, ops: int) -> dict[str, tuple[float, float]]:
        """Per-layer figures as (numerator, denominator) pairs, see ``combine``.

        Most figures are per timed operation; ``constructions.automata_s``
        is per process (set-up), and the rates and means have their own
        denominators.
        """
        spans = self.spans
        names = [s[0] for s in spans]

        def under(i: int, group: set[str]) -> bool:
            p = spans[i][3]
            while p >= 0:
                if names[p] in group:
                    return True
                p = spans[p][3]
            return False

        def timed(group: set[str]) -> list[int]:
            return [i for i, s in enumerate(spans)
                    if s[0] in group and s[4] > 0 and not under(i, group)]

        def total(group) -> float:
            return sum(spans[i][2] - spans[i][1] for i in timed(set(group)))

        children: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            if s[3] >= 0:
                children.setdefault(s[3], []).append(i)

        cli_self = 0.0
        for i in timed({"cli.main"}):
            inner = sum(spans[c][2] - spans[c][1] for c in children.get(i, ()))
            cli_self += spans[i][2] - spans[i][1] - inner

        product = cert = 0.0
        cert_lens = []
        decides = timed({DECIDE})
        for i in decides:
            scc = [c for c in children.get(i, ()) if names[c] == SCC]
            if scc:
                product += spans[scc[0]][1] - spans[i][1]
                cert += spans[i][2] - spans[scc[0]][2]
            if spans[i][5] is not None:
                cert_lens.append(spans[i][5])
        sccs = timed({SCC})
        searches = timed({SEARCH})
        expansions = sum(spans[i][5][0] for i in searches)
        search_s = total([SEARCH])
        built = {f"constructions.{n}" for n in AUTOMATA}
        automata = [i for i, s in enumerate(spans)
                    if s[0] in built and s[4] == 0 and not under(i, built)]
        n = ops
        return {
            "cli.self_s": (cli_self, n),
            "constructions.automata_s": (sum(spans[i][2] - spans[i][1] for i in automata), 1),
            "constructions.schema_s": (total(f"constructions.{x}" for x in SCHEMA), n),
            "twotape.decide_s": (total([DECIDE]), n),
            "twotape.decide_calls": (len(decides), n),
            "twotape.configs": (self.configs, n),
            "twotape.configs_per_s": (self.configs, product),
            "twotape.product_s": (product, n),
            "twotape.cert_s": (cert, n),
            "twotape.cert_len": (sum(cert_lens), len(cert_lens)),
            "scc.scc_s": (total([SCC]), n),
            "scc.nodes": (sum(spans[i][5][0] for i in sccs), n),
            "scc.edges": (sum(spans[i][5][1] for i in sccs), n),
            "twotape.search_s": (search_s, n),
            "twotape.expansions": (expansions, n),
            "twotape.expansions_per_s": (expansions, search_s),
            "twotape.frontier": (sum(spans[i][5][1] for i in searches), len(searches)),
            "twotape.replay_s": (total(["twotape.run_prefix_valid"]), n),
            "twotape.normalize_s": (total(["twotape.epsilon_normalize"]), n),
            "words.letter_at_calls": (self.calls["words.letter_at"], n),
            "words.letter_at_s": (self.seconds["words.letter_at"], n),
            "grid.antidiagonal_calls": (self.calls["grid.antidiagonal"], n),
            "grid.antidiagonal_s": (self.seconds["grid.antidiagonal"], n),
            "buchi.decide_s": (total(["buchi.buchi_accepts_lasso"]), n),
            "trace.spans": (sum(1 for s in spans if s[4] > 0), n),
        }


def combine(summaries: list[dict]) -> dict[str, float]:
    """Pool the summaries of several traced processes: summed numerators over
    summed denominators, 0 for a layer the workload does not run."""
    out = {}
    for name in summaries[0]:
        num = sum(s[name][0] for s in summaries)
        den = sum(s[name][1] for s in summaries)
        out[name] = num / den if den else 0.0
    return out


def _decide_info(args, outcome):
    cert = outcome.certificate
    return len(cert.stem) + len(cert.cycle) if cert is not None else None


def _search_info(args, outcome):
    s = outcome.stats
    return (s.expansions, s.frontier) if s is not None else (0, 0)


# units of the per-layer figures
UNITS = {
    "cli.self_s": "s", "constructions.automata_s": "s", "constructions.schema_s": "s",
    "twotape.decide_s": "s", "twotape.decide_calls": "count", "twotape.configs": "count",
    "twotape.configs_per_s": "1/s", "twotape.product_s": "s", "twotape.cert_s": "s",
    "twotape.cert_len": "count", "scc.scc_s": "s", "scc.nodes": "count", "scc.edges": "count",
    "twotape.search_s": "s", "twotape.expansions": "count", "twotape.expansions_per_s": "1/s",
    "twotape.frontier": "count", "twotape.replay_s": "s", "twotape.normalize_s": "s",
    "words.letter_at_calls": "count", "words.letter_at_s": "s",
    "grid.antidiagonal_calls": "count", "grid.antidiagonal_s": "s", "buchi.decide_s": "s",
    "trace.spans": "count", "trace.op_overhead_pct": "%",
}
