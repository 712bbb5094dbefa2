"""Independent checks of every benchmark output.

Nothing here calls the decision procedures it checks: words are expanded
from their text form, certificates and schema runs are replayed letter by
letter, and expected verdicts come from the reference file or from a
property of the input that settles the verdict on its own.  Each checker
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re


def lasso_parts(text: str) -> tuple[str, str]:
    prefix, period = text.split("|")
    return prefix, period


def lasso_expand(text: str, n: int) -> str:
    """The first n letters of prefix.period^omega."""
    prefix, period = lasso_parts(text)
    if n <= len(prefix):
        return prefix[:n]
    rest = n - len(prefix)
    return prefix + (period * (rest // len(period) + 1))[:rest]


def _cycle_repeats(text: str, stem_len: int, cycle_len: int) -> int:
    """Cycle copies after which the tape positions of stem + cycle^k repeat."""
    prefix, period = lasso_parts(text)
    if cycle_len == 0:
        return 1
    into_period = max(0, len(prefix) - stem_len)
    return math.ceil(into_period / cycle_len) + len(period) // math.gcd(cycle_len, len(period)) + 1


def check_run(
    transitions: list[list[str]],
    known: set[tuple[str, str, str, str]],
    initial: str,
    word1: str,
    word2: str,
) -> list[str]:
    """Transitions exist, chain from ``initial``, and their labels spell prefixes of the words."""
    problems = []
    here = initial
    for t in transitions:
        if tuple(t) not in known:
            problems.append(f"transition {t} is not in the automaton")
            break
        if t[0] != here:
            problems.append(f"transition {t} does not start at {here!r}")
            break
        here = t[3]
    u = "".join(t[1] for t in transitions)
    v = "".join(t[2] for t in transitions)
    if u != word1[: len(u)]:
        problems.append("tape-1 labels are not a prefix of the first word")
    if v != word2[: len(v)]:
        problems.append("tape-2 labels are not a prefix of the second word")
    return problems


def check_certificate(
    cert: dict,
    known: set[tuple[str, str, str, str]],
    initial: str,
    accepting: set[str],
    w1: str,
    w2: str,
) -> list[str]:
    """A stem + cycle certificate is a fair accepting lasso run on (w1, w2)."""
    stem, cycle = cert.get("stem"), cert.get("cycle")
    if not isinstance(stem, list) or not isinstance(cycle, list) or not cycle:
        return ["certificate needs a stem list and a nonempty cycle list"]
    problems = []
    c1 = sum(len(t[1]) for t in cycle)
    c2 = sum(len(t[2]) for t in cycle)
    if c1 == 0 or c2 == 0:
        problems.append("cycle does not consume on both tapes")
    if not any(t[3] in accepting for t in cycle):
        problems.append("cycle enters no accepting state")
    s1 = sum(len(t[1]) for t in stem)
    s2 = sum(len(t[2]) for t in stem)
    k = max(_cycle_repeats(w1, s1, c1), _cycle_repeats(w2, s2, c2))
    run = stem + cycle * k
    problems += check_run(run, known, initial,
                          lasso_expand(w1, s1 + k * c1), lasso_expand(w2, s2 + k * c2))
    return problems


def _parse(out: str) -> tuple[dict | None, list[str]]:
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return None, [f"output is not JSON: {out[:80]!r}"]
    if not isinstance(doc, dict):
        return None, ["output is not a JSON object"]
    return doc, []


def check_member_r(result: dict, args: dict, aut: dict) -> list[str]:
    """Every lasso pair is in R; the certificate must replay."""
    doc, problems = _parse(result["out"])
    if doc is None:
        return problems
    if result["code"] != 0 or doc.get("verdict") != "accepted":
        return [f"expected accepted with status 0, got {doc.get('verdict')!r} / {result['code']}"]
    if "certificate" not in doc:
        return ["accepted verdict without certificate"]
    return check_certificate(doc["certificate"], aut["known"], aut["initial"],
                             aut["accepting"], args["w1"], args["w2"])


def reject_reason(operand: str, w1: str, w2: str) -> str | None:
    """A property of the pair that by itself forces the operand to reject, or None.

    T: after leaving q0 the second tape is read only as 0 or A, so a 1 in
    the period of w2 blocks every fair cycle.  C1 accepts exactly the
    pairs with finitely many As on some tape.  C3 needs a 1 on tape 2.  C4
    needs two compared blocks of different length, impossible for (w, w).
    """
    p1, q1 = lasso_parts(w1)
    p2, q2 = lasso_parts(w2)
    if operand == "T" and "1" in q2:
        return "a 1 in the period of w2"
    if operand == "C1" and "A" in q1 and "A" in q2:
        return "As in both periods"
    if operand == "C3" and "1" not in p2 + q2:
        return "no 1 on tape 2"
    if operand == "C4" and w1 == w2:
        return "equal words"
    return None


def check_member_reject(result: dict, args: dict, operand: str) -> list[str]:
    doc, problems = _parse(result["out"])
    if doc is None:
        return problems
    verdict = doc.get("verdict")
    if verdict != args["verdict"]:
        return [f"{operand}: verdict {verdict!r}, reference says {args['verdict']!r}"]
    if result["code"] != (0 if verdict == "accepted" else 1):
        return [f"{operand}: exit status {result['code']} does not match {verdict!r}"]
    if verdict == "rejected" and "certificate" in doc:
        return [f"{operand}: rejected verdict carries a certificate"]
    reason = reject_reason(operand, args["w1"], args["w2"])
    if reason is not None and verdict != "rejected":
        return [f"{operand}: {verdict!r} despite {reason}"]
    return []


def grid_entry(doc: dict, m: int, n: int) -> str:
    text = doc["columns"].get(str(m), doc["default"])
    return lasso_expand(text, n)[n - 1]


def coded_prefix(doc: dict, blocks: int) -> str:
    """A.U2.A.U3.A... up to and including block ``blocks`` and its separator."""
    parts = []
    for q in range(2, blocks + 2):
        parts.append("A")
        parts.append("".join(grid_entry(doc, q - n, n) for n in range(1, q)))
    parts.append("A")
    return "".join(parts)


def alpha_prefix(blocks: int) -> str:
    return "".join("A" + "0" * n for n in range(1, blocks + 1)) + "A"


def grid_in_p(doc: dict) -> bool:
    """No column period holds a 1."""
    return all("1" not in lasso_parts(c)[1] for c in [doc["default"], *doc["columns"].values()])


def check_search(result: dict, budget: int) -> list[str]:
    doc, problems = _parse(result["out"])
    if doc is None:
        return problems
    if result["code"] != 3 or doc.get("verdict") != "inconclusive":
        return [f"search: expected inconclusive with status 3, got "
                f"{doc.get('verdict')!r} / {result['code']}"]
    stats = doc.get("stats") or {}
    exp = stats.get("expansions")
    if stats.get("exhausted"):
        if not isinstance(exp, int) or not 0 < exp <= budget:
            return [f"search: exhausted with {exp!r} expansions, budget {budget}"]
    elif exp != budget:
        return [f"search: {exp!r} expansions, budget {budget}, not exhausted"]
    return []


def check_schema_run(transitions: list[list[str]], t_aut: dict, doc: dict) -> list[str]:
    """A schema run of T replays on (coded grid, alpha) and enters an accepting state."""
    need = max(sum(len(t[1]) for t in transitions), sum(len(t[2]) for t in transitions))
    blocks = 1
    while blocks * (blocks + 1) // 2 + blocks + 1 < need:
        blocks += 1
    problems = check_run(transitions, t_aut["known"], t_aut["initial"],
                         coded_prefix(doc, blocks), alpha_prefix(blocks))
    if not any(t[3] in t_aut["accepting"] for t in transitions):
        problems.append("schema run never enters an accepting state")
    return problems


def check_grid_evidence(result: dict, args: dict, budget: int) -> list[str]:
    problems = check_search(result, budget)
    expected = grid_in_p(args["grid"])
    if result["in_r1"] is not expected:
        problems.append(f"grid_pair_in_r1 gave {result['in_r1']!r}, column periods say {expected}")
    return problems


VERIFY_TAIL = re.compile(r"^(\d+)/(\d+) checks passed$")


def check_verify(result: dict) -> list[str]:
    lines = result["out"].strip().splitlines()
    if result["code"] != 0:
        return [f"verify exited with status {result['code']}"]
    m = VERIFY_TAIL.match(lines[-1]) if lines else None
    if m is None:
        return ["verify printed no 'N/N checks passed' line"]
    passed, total = int(m.group(1)), int(m.group(2))
    oks = sum(1 for line in lines if line.startswith("ok "))
    if passed != total or total == 0 or oks != total or len(lines) != total + 1:
        return [f"verify: {lines[-1]!r} with {oks} ok lines of {len(lines) - 1}"]
    return []
