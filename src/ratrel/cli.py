"""Command-line front end: inspection, membership queries, encoding, verification.

Verdicts map to the exit status so shell pipelines can branch without
parsing output: 0 accepted/true, 1 rejected/false, 3 inconclusive, 2 bad
input, 4 internal error (a bug, reported in one line on stderr, so that it
never reads as a verdict).

``main(argv)`` returns that status and can be called again and again in one
process.  The argument parser is built on the first call, never at import,
and kept; each verb's handler is looked up when a call runs.  A usage error
prints argparse's usage text on stderr and returns 2, as every other bad
input does, instead of raising ``SystemExit``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import buchi, twotape
from .buchi import BuchiAutomaton, buchi_accepts_lasso, ones_automaton
from .constructions import (
    alpha,
    automaton_T,
    c_automaton,
    r2_automaton,
    r_automaton,
    section_member,
)
from .grid import encode_h, decode_h_prefix, grid_from_json, in_P
from .twotape import Verdict, accepts_lasso_pair, bounded_run_search
from .words import GAMMA, LassoWord

TWO_TAPE_NAMES = {
    "T": automaton_T,
    **{f"C{j}": functools.partial(c_automaton, j) for j in range(1, 6)},
    "R2": r2_automaton,
    "R": r_automaton,
}
ONE_TAPE_NAMES = {
    "A": lambda: ones_automaton(False),
    "Acomp": lambda: ones_automaton(True),
}


EXIT_STATUS = {Verdict.ACCEPTED: 0, Verdict.REJECTED: 1, Verdict.INCONCLUSIVE: 3}


class InputError(Exception):
    pass


def _builtin(name: str, aside: str = ""):
    """The built-in automaton called name, two-tape or one-tape."""
    build = TWO_TAPE_NAMES.get(name) or ONE_TAPE_NAMES.get(name)
    if build is None:
        raise InputError(f"unknown automaton {name!r}; choose from "
                         f"{sorted(TWO_TAPE_NAMES) + sorted(ONE_TAPE_NAMES)}{aside}")
    return build()


def _load_two_tape(args, default: str | None = None) -> twotape.TwoTapeAutomaton:
    if args.aut_file:
        with open(args.aut_file) as fh:
            return twotape.from_json(fh.read())
    name = args.aut or default
    if name is None:
        raise InputError("an automaton is required: --aut NAME or --aut-file FILE")
    aut = _builtin(name, " or use --aut-file")
    if isinstance(aut, BuchiAutomaton):
        if args.command == "member":
            raise InputError(f"{name} is a one-tape automaton; pass --word instead of --pair")
        raise InputError(f"{name} is a one-tape automaton; "
                         f"{args.command} needs a two-tape automaton")
    return aut


def _load_grid(path: str):
    with open(path) as fh:
        return grid_from_json(fh.read())


def _parse_lasso(text: str) -> LassoWord:
    return LassoWord.parse(text, GAMMA)


def cmd_alpha(args) -> int:
    print(alpha().prefix_of(args.prefix))
    return 0


def cmd_encode(args) -> int:
    print(encode_h(_load_grid(args.grid)).prefix_of(args.prefix))
    return 0


def cmd_decode(args) -> int:
    partial = decode_h_prefix(args.word)
    items = sorted(partial.items())
    if args.json:
        print(json.dumps({"entries": [[m, n, ch] for (m, n), ch in items]}))
    else:
        for (m, n), ch in items:
            print(f"({m},{n}) = {ch}")
    return 0


def cmd_member(args) -> int:
    certificate = None
    if args.word is not None:
        if args.aut not in ONE_TAPE_NAMES:
            raise InputError("--word only applies to the one-tape automata A and Acomp")
        aut = _builtin(args.aut)
        accepted = buchi_accepts_lasso(aut, LassoWord.parse(args.word, aut.alphabet))
        verdict = Verdict.ACCEPTED if accepted else Verdict.REJECTED
    else:
        if args.pair is None:
            raise InputError("member needs --pair W1 W2 (or --word W for A/Acomp)")
        aut = _load_two_tape(args)
        # letters are checked by the decision, against the automaton's own alphabets
        w1, w2 = map(LassoWord.parse, args.pair)
        outcome = accepts_lasso_pair(aut, w1, w2)
        verdict, certificate = outcome.verdict, outcome.certificate
    runs = {"stem": certificate.stem, "cycle": certificate.cycle} if certificate else {}
    if args.json:
        doc = {"verdict": verdict.value}
        if runs:
            doc["certificate"] = {
                part: [list(t) for t in run.transitions] for part, run in runs.items()
            }
        print(json.dumps(doc))
    else:
        print(verdict.value)
        for part, run in runs.items():
            print(f"{part}:")
            for t in run.transitions:
                print(f"  {t.src} --{t.read1 or 'ε'}/{t.read2 or 'ε'}--> {t.dst}")
    return EXIT_STATUS[verdict]


def cmd_search(args) -> int:
    aut = _load_two_tape(args, default="R")
    x = _load_grid(args.grid)
    outcome = bounded_run_search(aut, encode_h(x), alpha(), args.budget)
    stats = dataclasses.asdict(outcome.stats)
    if args.json:
        print(json.dumps({"verdict": outcome.verdict.value, "stats": stats}))
    else:
        print(outcome.verdict.value)
        print(" ".join(f"{key}={value}" for key, value in stats.items()))
    return EXIT_STATUS[outcome.verdict]


def _print_truth(args, key: str, verdict: bool) -> int:
    """Print a yes/no answer as {key: verdict} or true/false; 0 if true, 1 if not."""
    print(json.dumps({key: verdict}) if args.json else "true" if verdict else "false")
    return 0 if verdict else 1


def cmd_in_p(args) -> int:
    return _print_truth(args, "in_P", in_P(_load_grid(args.grid)))


def cmd_sections(args) -> int:
    return _print_truth(args, "member", section_member(_parse_lasso(args.sigma), _parse_lasso(args.u)))


def cmd_export(args) -> int:
    aut = _builtin(args.aut)
    form = buchi if isinstance(aut, BuchiAutomaton) else twotape
    print(form.to_json(aut) if args.format == "json" else form.to_dot(aut), end="")
    return 0


def cmd_verify(args) -> int:
    from . import verify  # imported here: the other verbs do not need to compile it

    results = verify.run_all(seed=args.seed, trials=args.trials)
    failed = 0
    for res in results:
        if res.passed:
            print(f"ok   {res.name}")
        else:
            failed += 1
            print(f"FAIL {res.name}: {res.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratrel",
        description="Two-tape Buchi automata and the built-in reference relation family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", help="print a prefix of the fixed word alpha")
    p.add_argument("--prefix", type=int, required=True, metavar="N")
    p.set_defaults(fn="cmd_alpha")

    p = sub.add_parser("encode", help="code a grid file and print a prefix")
    p.add_argument("--grid", required=True, metavar="FILE")
    p.add_argument("--prefix", type=int, required=True, metavar="N")
    p.set_defaults(fn="cmd_encode")

    p = sub.add_parser("decode", help="decode a coded prefix into grid entries")
    p.add_argument("--word", required=True, metavar="STRING")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn="cmd_decode")

    p = sub.add_parser("member", help="decide lasso membership for an automaton")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--aut", metavar="NAME", help="built-in automaton name")
    source.add_argument("--aut-file", metavar="FILE", help="two-tape automaton JSON file")
    words = p.add_mutually_exclusive_group()
    words.add_argument("--pair", nargs=2, metavar=("LASSO1", "LASSO2"))
    words.add_argument("--word", metavar="LASSO", help="single word for the one-tape automata")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn="cmd_member")

    p = sub.add_parser("search", help="bounded run search on (coded grid, alpha)")
    source = p.add_mutually_exclusive_group()
    # R is applied in cmd_search, not as the default: argparse skips the
    # conflict check for a value that is the default object itself
    source.add_argument("--aut", metavar="NAME")
    source.add_argument("--aut-file", metavar="FILE")
    p.add_argument("--grid", required=True, metavar="FILE")
    p.add_argument("--budget", type=int, required=True, metavar="N")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn="cmd_search")

    p = sub.add_parser("inP", help="column predicate of a grid file")
    p.add_argument("--grid", required=True, metavar="FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn="cmd_in_p")

    p = sub.add_parser("sections", help="membership of a lasso pair in the reference relation")
    p.add_argument("--sigma", required=True, metavar="LASSO")
    p.add_argument("--u", required=True, metavar="LASSO")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn="cmd_sections")

    p = sub.add_parser("export", help="emit a built-in automaton as JSON or DOT")
    p.add_argument("--aut", required=True, metavar="NAME")
    p.add_argument("--format", choices=("dot", "json"), required=True)
    p.set_defaults(fn="cmd_export")

    p = sub.add_parser("verify", help="run the embedded property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)
    p.set_defaults(fn="cmd_verify")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error (2) or the help (0)
        return exc.code
    try:
        # looked up by name at call time, so the cached parser runs the
        # module's current handler
        return globals()[args.fn](args)
    except (InputError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
