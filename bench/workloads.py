"""Seeded inputs and operations of the four benchmark workloads.

Every workload is a list of *slots*.  One round runs one operation per
slot, in slot order, and a run is a whole number of rounds, so every run
mixes the slots in the same proportions.  Each slot draws its inputs from
its own seeded stream; the program under test sees only the generated
words and grid files.

Costs are kept close across slots (tenths of a second each on a 2-core
x86 container, Python 3.11) so that the median of a run falls inside one
cluster of operation times rather than between two.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field

INPUTS_PER_SLOT = 24

# member-R: lasso pairs decided against R.  The periods hold 7 and 8
# separators; coprime counts make the A-synchronised regions of T, C4 and
# C5 fill every pair of blocks, so an operation's cost follows the period
# lengths and not an accident of the draw.
R_PERIOD_BAD = 53
R_PERIOD_CONFORMING = 45
R_AS = (7, 8)

# member-reject: single operands on pairs they reject.
REJECT_PERIOD = {"T": 132, "C1": 81, "C3": 143, "C4": 158}
REJECT_POOL_SEED = 20070207

# grid-evidence: one fixed search budget and schema replay length.
SEARCH_BUDGET = 24_000
R1_BLOCKS = 100
GRID_COLUMNS = 12

# verify: embedded property suite, trials per call.
VERIFY_TRIALS = 66
VERIFY_SEEDS_PER_ROUND = 4


def bits(rng: random.Random, n: int, letters: str = "01") -> str:
    return "".join(rng.choice(letters) for _ in range(n))


def with_separators(rng: random.Random, n: int, k: int, fill: str = "01") -> str:
    """A length-n word with exactly k letters A at seeded places, the rest from fill."""
    places = set(rng.sample(range(n), k))
    return "".join("A" if i in places else rng.choice(fill) for i in range(n))


def conforming_opening(rng: random.Random) -> str:
    """The shape A.s.A.ss.A that C2 cannot object to."""
    return "A" + bits(rng, 1) + "A" + bits(rng, 2) + "A"


def bad_opening(rng: random.Random) -> str:
    """A short prefix that breaks A.s.A.ss.A at its first letter."""
    return rng.choice("01") + bits(rng, rng.randint(0, 2), "01A")


# ---------------------------------------------------------------------------
# member-R


def member_r_pair(rng: random.Random, conforming: bool) -> tuple[str, str]:
    k1, k2 = R_AS
    if conforming:
        n = R_PERIOD_CONFORMING
        p1, p2 = conforming_opening(rng), conforming_opening(rng)
    else:
        n = R_PERIOD_BAD
        p1, p2 = bad_opening(rng), conforming_opening(rng)
        if rng.random() < 0.5:
            p1, p2 = p2, p1
    return p1 + "|" + with_separators(rng, n, k1), p2 + "|" + with_separators(rng, n, k2)


# ---------------------------------------------------------------------------
# member-reject: pairs each operand rejects, by a reason the benchmark can
# state without the program (see checks.reject_reason).


def reject_pair(rng: random.Random, operand: str) -> tuple[str, str]:
    n = REJECT_PERIOD[operand]
    if operand == "T":
        # after T leaves q0 it reads only 0 and A on tape 2, so a 1 in the
        # period of w2 stops every accepting run
        w2 = list(with_separators(rng, n, 8, "0"))
        zeros = [i for i, ch in enumerate(w2) if ch == "0"]
        for i in rng.sample(zeros, n // 4):
            w2[i] = "1"
        return bits(rng, 2) + "|" + with_separators(rng, n, 7), bits(rng, 2) + "|" + "".join(w2)
    if operand == "C1":
        # infinitely many As on both tapes; A-dense so each 0/1 run is short
        def dense() -> str:
            return "".join("A" if i % 2 == 0 or rng.random() < 0.3 else rng.choice("01")
                           for i in range(n))
        return "|" + dense(), "|" + dense()
    if operand == "C3":
        # no 1 anywhere on tape 2
        return (bits(rng, 3, "01A") + "|" + bits(rng, n, "01A"),
                bits(rng, 3, "0A") + "|" + bits(rng, n, "0A"))
    if operand == "C4":
        # equal words: every pair of compared blocks has equal length
        w = "A" + bits(rng, 2) + "|A" + bits(rng, n - 1)
        return w, w
    raise ValueError(f"no reject family for {operand!r}")


def reject_pool() -> dict[str, list[tuple[str, str]]]:
    """The fixed pool the reference file covers; runs draw from it by seed."""
    rng = random.Random(REJECT_POOL_SEED)
    return {op: [reject_pair(rng, op) for _ in range(INPUTS_PER_SLOT)] for op in REJECT_PERIOD}


# ---------------------------------------------------------------------------
# grid-evidence


def grid_column(rng: random.Random, finite_ones: bool) -> str:
    prefix = bits(rng, rng.randint(0, 6))
    if finite_ones:
        return prefix + "|" + rng.choice(("0", "00"))
    period = bits(rng, rng.randint(1, 3))
    if "1" not in period:
        period = period[:-1] + "1"
    return prefix + "|" + period


def grid_doc(rng: random.Random, in_p: bool) -> dict:
    """A grid with a zero-tailed default column and four overridden columns.

    Grids outside P carry one overridden column whose period holds a 1.
    """
    cols = rng.sample(range(1, GRID_COLUMNS + 1), 4)
    columns = {str(m): grid_column(rng, True) for m in cols}
    if not in_p:
        columns[str(cols[0])] = grid_column(rng, False)
    return {"default": grid_column(rng, True), "columns": columns}


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Op:
    """One operation: its slot, its inputs, and what the checker needs."""

    slot: str
    args: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    slots: tuple[str, ...]
    ops: dict[str, list[Op]]

    def round(self, r: int) -> list[Op]:
        return [self.ops[s][r % len(self.ops[s])] for s in self.slots]


def load_reference(root: str) -> dict:
    with open(os.path.join(root, "bench", "reference_reject.json")) as fh:
        return json.load(fh)


def build(name: str, seed: int, root: str, workdir: str) -> Workload:
    """Generate the inputs of one workload from its seed (part of set-up)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "member-R":
        slots = ("bad", "conforming")
        ops = {s: [Op(s, dict(zip(("w1", "w2"), member_r_pair(rng, s == "conforming"))))
                   for _ in range(INPUTS_PER_SLOT)] for s in slots}
        return Workload(name, slots, ops)
    if name == "member-reject":
        ref = load_reference(root)
        slots = tuple(ref["operands"])
        ops = {}
        for s in slots:
            entries = list(ref["operands"][s])
            rng.shuffle(entries)
            ops[s] = [Op(s, dict(e)) for e in entries]
        return Workload(name, slots, ops)
    if name == "grid-evidence":
        slots = ("inP-a", "notP", "inP-b")
        os.makedirs(workdir, exist_ok=True)
        ops = {}
        for s in slots:
            ops[s] = []
            for i in range(INPUTS_PER_SLOT):
                doc = grid_doc(rng, in_p=s != "notP")
                path = os.path.join(workdir, f"{s}-{i}.json")
                with open(path, "w") as fh:
                    json.dump(doc, fh)
                ops[s].append(Op(s, {"grid": doc, "path": path}))
        return Workload(name, slots, ops)
    if name == "verify":
        slots = tuple(f"v{i}" for i in range(VERIFY_SEEDS_PER_ROUND))
        ops = {s: [Op(s, {"seed": rng.randrange(10**6)}) for _ in range(INPUTS_PER_SLOT)]
               for s in slots}
        return Workload(name, slots, ops)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("member-R", "member-reject", "grid-evidence", "verify")


# ---------------------------------------------------------------------------
# Running one operation through the public entry points


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """``ratrel.cli.main(argv)`` in-process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def execute(name: str, op: Op, cli, constructions, grid_mod) -> dict:
    """Run one operation; return the raw outputs the checker reads."""
    a = op.args
    if name == "member-R":
        code, out = run_cli(cli, ["member", "--aut", "R", "--pair", a["w1"], a["w2"], "--json"])
        return {"code": code, "out": out}
    if name == "member-reject":
        code, out = run_cli(cli, ["member", "--aut", op.slot, "--pair", a["w1"], a["w2"], "--json"])
        return {"code": code, "out": out}
    if name == "grid-evidence":
        code, out = run_cli(cli, ["search", "--aut", "R", "--grid", a["path"],
                                  "--budget", str(SEARCH_BUDGET), "--json"])
        with open(a["path"]) as fh:
            x = grid_mod.grid_from_json(fh.read())
        in_r1 = constructions.grid_pair_in_r1(x, R1_BLOCKS)
        return {"code": code, "out": out, "in_r1": in_r1}
    if name == "verify":
        code, out = run_cli(cli, ["verify", "--seed", str(a["seed"]),
                                  "--trials", str(VERIFY_TRIALS)])
        return {"code": code, "out": out}
    raise ValueError(f"unknown workload {name!r}")
