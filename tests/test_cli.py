import dataclasses
import json
import os
import subprocess
import sys

import pytest

import ratrel
from ratrel import cli, verify
from ratrel.cli import main
from ratrel.grid import GridWord, grid_to_json
from ratrel.twotape import Verdict
from ratrel.words import LassoWord


@pytest.fixture()
def zero_grid_file(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(grid_to_json(GridWord.zero()))
    return str(path)


@pytest.fixture()
def bad_grid_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(grid_to_json(GridWord(LassoWord("", "0"), {2: LassoWord("", "1")})))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alpha(capsys):
    code, out, _ = run(capsys, "alpha", "--prefix", "10")
    assert code == 0 and out.strip() == "A0A00A000A"


def test_encode(capsys, zero_grid_file):
    code, out, _ = run(capsys, "encode", "--grid", zero_grid_file, "--prefix", "10")
    assert code == 0 and out.strip() == "A0A00A000A"


def test_decode(capsys):
    code, out, _ = run(capsys, "decode", "--word", "A0A01A", "--json")
    assert code == 0
    assert json.loads(out) == {"entries": [[1, 1, "0"], [1, 2, "1"], [2, 1, "0"]]}


def test_decode_malformed_is_input_error(capsys):
    code, _, err = run(capsys, "decode", "--word", "A00")
    assert code == 2 and "error" in err


def test_member_reference_pair(capsys):
    code, out, _ = run(capsys, "member", "--aut", "T", "--pair", "A|0A", "A|0A")
    assert code == 0
    assert "accepted" in out and "cycle:" in out


def test_member_rejected(capsys):
    code, out, _ = run(capsys, "member", "--aut", "T", "--pair", "|0", "|0")
    assert code == 1 and "rejected" in out


def test_member_full_relation(capsys):
    code, out, _ = run(capsys, "member", "--aut", "R", "--pair", "|1", "|0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "accepted"
    assert doc["certificate"]["cycle"]


def test_member_one_tape(capsys):
    code, out, _ = run(capsys, "member", "--aut", "A", "--word", "|1")
    assert code == 0 and "accepted" in out
    code, out, _ = run(capsys, "member", "--aut", "Acomp", "--word", "|1")
    assert code == 1


def test_member_arity_errors(capsys):
    code, _, err = run(capsys, "member", "--aut", "A", "--pair", "|1", "|0")
    assert code == 2 and "word" in err
    code, _, err = run(capsys, "member", "--aut", "T")
    assert code == 2


@pytest.mark.parametrize("name", ["A", "Acomp"])
def test_search_refuses_a_one_tape_automaton(capsys, zero_grid_file, name):
    code, out, err = run(capsys, "search", "--aut", name, "--grid", zero_grid_file, "--budget", "10")
    assert (code, out) == (2, "")
    assert "needs a two-tape" in err and "--word" not in err


def test_member_pair_and_word_are_exclusive(capsys):
    code, out, err = run(capsys, "member", "--aut", "A", "--word", "|1", "--pair", "|0", "|0")
    assert (code, out) == (2, "")
    assert "argument --pair: not allowed with argument --word" in err


@pytest.mark.parametrize(
    "argv",
    [["member", "--aut"], ["search", "--grid", "g", "--budget", "abc"], ["frobnicate"]],
)
def test_usage_error_returns_2_as_in_a_fresh_process(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("usage: ratrel")
    src = os.path.dirname(os.path.dirname(ratrel.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "ratrel", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_reused_parser_leaks_no_state(capsys, tmp_path, zero_grid_file):
    from ratrel import twotape
    from ratrel.constructions import automaton_T

    path = tmp_path / "aut.json"
    path.write_text(twotape.to_json(automaton_T()))
    calls = [
        ["member", "--aut", "R", "--pair", "A0|1A", "0|A01", "--json"],
        ["member", "--aut", "R", "--pair", "A0|1A", "0|A01"],
        ["member", "--aut-file", str(path), "--pair", "A|0A", "A|0A"],
        ["search", "--grid", zero_grid_file, "--budget", "300"],
        ["member", "--aut"],
        ["verify", "--trials", "2"],
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    cli._parser.cache_clear()
    reused = [run(capsys, *argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 3, 2, 0]


def test_member_aut_file(capsys, tmp_path, zero_grid_file):
    from ratrel import twotape
    from ratrel.constructions import automaton_T

    path = tmp_path / "aut.json"
    path.write_text(twotape.to_json(automaton_T()))
    code, out, _ = run(capsys, "member", "--aut-file", str(path), "--pair", "A|0A", "A|0A")
    assert code == 0 and "accepted" in out


@pytest.mark.parametrize("verb", ["member", "search"])
@pytest.mark.parametrize("name", ["R", "C3"])
def test_aut_and_aut_file_exclude_each_other(capsys, tmp_path, zero_grid_file, verb, name):
    from ratrel import twotape
    from ratrel.constructions import automaton_T

    path = tmp_path / "aut.json"
    path.write_text(twotape.to_json(automaton_T()))
    if verb == "member":
        rest = ["--pair", "A|0A", "A|0A"]
    else:
        rest = ["--grid", zero_grid_file, "--budget", "100"]
    code, out, err = run(capsys, verb, "--aut", name, "--aut-file", str(path), *rest)
    assert code == 2 and out == ""
    assert "not allowed with argument --aut" in err


def test_search_automaton_source(capsys, tmp_path, zero_grid_file):
    from ratrel import twotape
    from ratrel.constructions import automaton_T

    path = tmp_path / "aut.json"
    path.write_text(twotape.to_json(automaton_T()))
    grid = ["--grid", zero_grid_file, "--budget", "100", "--json"]

    def stats(*source):
        code, out, _ = run(capsys, "search", *source, *grid)
        assert code == 3
        return json.loads(out)["stats"]

    assert stats() == stats("--aut", "R")  # no flag runs R
    assert stats("--aut-file", str(path)) == stats("--aut", "T")
    assert stats("--aut", "T")["fair_visits"] == 10
    assert stats("--aut", "C3")["fair_visits"] == 0


@pytest.mark.parametrize("sigma1, sigma2, columns, letter", [
    ("01", "01A", {}, "A"),  # the separator of the coded grid
    ("0A", "01A", {"3": "01|0"}, "1"),  # a letter of one column
    ("01A", "01", {}, "A"),  # the separator of alpha
])
def test_search_alphabet_mismatch_is_bad_input(capsys, tmp_path, sigma1, sigma2, columns, letter):
    # as member rejects a pair whose letters the alphabets miss, search
    # must not report a verdict on such words
    aut = tmp_path / "aut.json"
    aut.write_text(json.dumps({
        "states": ["q"], "sigma1": sigma1, "sigma2": sigma2, "initial": "q",
        "accepting": ["q"], "transitions": [["q", "0", "0", "q"]],
    }))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"default": "|0", "columns": columns}))
    code, out, err = run(capsys, "search", "--aut-file", str(aut), "--grid", str(grid),
                         "--budget", "100", "--json")
    assert (code, out) == (2, "")
    assert f"uses letter {letter!r} not in alphabet" in err


@pytest.mark.parametrize("sigma1, pair, letter, where", [
    # an A that the tape-1 alphabet misses, through the decision
    ("01", ("0" * 100_000 + "A|1", "|0"), "A", "tape-1 word ...'"),
    # a B that no built-in alphabet has, through the decision too
    (None, ("0" * 100_000 + "B|1", "|0"), "B", "tape-1 word ...'"),
])
def test_member_names_a_bad_letter_in_a_long_word_briefly(capsys, tmp_path, sigma1, pair,
                                                          letter, where):
    source = ["--aut", "T"]
    if sigma1:
        aut = tmp_path / "aut.json"
        aut.write_text(json.dumps({
            "states": ["q"], "sigma1": sigma1, "sigma2": "01A", "initial": "q",
            "accepting": ["q"], "transitions": [["q", "0", "0", "q"]],
        }))
        source = ["--aut-file", str(aut)]
    code, out, err = run(capsys, "member", *source, "--pair", *pair)
    assert (code, out) == (2, "")
    assert f"{where}{'0' * 20}{letter}1' uses letter {letter!r} not in alphabet" in err
    assert err.rstrip().endswith("at position 100001") and len(err.encode()) < 300, err


def test_member_queries_an_automaton_file_over_its_own_alphabet(capsys, tmp_path):
    # letters outside the built-in alphabet {0,1,A}: the pair is checked
    # against the file's alphabets, by the decision
    aut = tmp_path / "ab.json"
    aut.write_text(json.dumps({
        "states": ["q"], "sigma1": "ab", "sigma2": "ab", "initial": "q",
        "accepting": ["q"], "transitions": [["q", "a", "b", "q"]],
    }))
    code, out, _ = run(capsys, "member", "--aut-file", str(aut), "--pair", "|a", "|b", "--json")
    assert code == 0
    assert json.loads(out) == {"verdict": "accepted", "certificate": {
        "stem": [], "cycle": [["q", "a", "b", "q"]]}}
    code, out, err = run(capsys, "member", "--aut-file", str(aut), "--pair", "|a", "|0")
    assert (code, out) == (2, "")
    assert err == "error: tape-2 word '0' uses letter '0' not in alphabet {ab} at position 1\n"


def test_member_unknown_name(capsys):
    code, _, err = run(capsys, "member", "--aut", "nope", "--pair", "|0", "|0")
    assert code == 2 and "unknown automaton" in err


def test_member_needs_an_automaton(capsys):
    code, out, err = run(capsys, "member", "--pair", "A|0A", "A|0A")
    assert (code, out) == (2, "")
    assert err == "error: an automaton is required: --aut NAME or --aut-file FILE\n"


def test_export_unknown_name_lists_the_choices(capsys):
    code, out, err = run(capsys, "export", "--aut", "nope", "--format", "json")
    assert (code, out) == (2, "")
    assert "unknown automaton 'nope'; choose from ['C1'" in err and "'Acomp']" in err


def test_search(capsys, zero_grid_file):
    code, out, _ = run(
        capsys, "search", "--aut", "T", "--grid", zero_grid_file, "--budget", "3000", "--json"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["verdict"] == "inconclusive"
    assert doc["stats"]["fair_visits"] > 0


def test_in_p(capsys, zero_grid_file, bad_grid_file):
    code, out, _ = run(capsys, "inP", "--grid", zero_grid_file)
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "inP", "--grid", bad_grid_file)
    assert code == 1 and out.strip() == "false"


def test_sections(capsys):
    code, out, _ = run(capsys, "sections", "--sigma", "|1", "--u", "|0")
    assert code == 0 and out.strip() == "true"


def test_export_json_round_trip(capsys):
    from ratrel import twotape

    code, out, _ = run(capsys, "export", "--aut", "R2", "--format", "json")
    assert code == 0
    aut = twotape.from_json(out)
    assert len(aut.states) == 35


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", "--aut", "T", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and "doublecircle" in out


def test_export_one_tape(capsys):
    code, out, _ = run(capsys, "export", "--aut", "A", "--format", "json")
    assert code == 0
    assert json.loads(out)["alphabet"] == "01"


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "1", "--trials", "4")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("ok")]
    assert len(lines) >= 10
    assert "checks passed" in out


def test_verify_oracle_check_can_fail(monkeypatch):
    real = verify.accepts_lasso_pair

    def flipped(aut, w1, w2):
        out = real(aut, w1, w2)
        wrong = Verdict.REJECTED if out.verdict is Verdict.ACCEPTED else Verdict.ACCEPTED
        return dataclasses.replace(out, verdict=wrong)

    monkeypatch.setattr(verify, "accepts_lasso_pair", flipped)
    results = {r.name: r for r in verify.run_all(seed=0, trials=10)}
    assert not results["pair-decision-vs-nested-dfs-reference"].passed


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_without_trials_is_input_error(capsys, trials):
    # with no trials most checks would run nothing and still pass
    code, out, err = run(capsys, "verify", "--trials", trials)
    assert (code, out) == (2, "")
    assert err == f"error: trials must be >= 1, got {trials}\n"


def test_missing_grid_file(capsys):
    code, _, err = run(capsys, "encode", "--grid", "/nonexistent.json", "--prefix", "5")
    assert code == 2 and "error" in err


def test_output_is_deterministic(capsys):
    first = run(capsys, "member", "--aut", "R", "--pair", "A0|1A", "0|A01", "--json")
    second = run(capsys, "member", "--aut", "R", "--pair", "A0|1A", "0|A01", "--json")
    assert first == second


GOOD_AUT = {
    "states": ["q0"],
    "sigma1": "01",
    "sigma2": "01",
    "transitions": [["q0", "0", "0", "q0"]],
    "initial": "q0",
    "accepting": ["q0"],
}


# nested deeper than the JSON decoder's recursion limit
DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "verb, doc, field",
    [
        ("member", {k: v for k, v in GOOD_AUT.items() if k != "sigma1"}, "sigma1"),
        ("member", {**GOOD_AUT, "transitions": [["q0", "0", "q0"]]}, "transitions[0]"),
        ("member", {**GOOD_AUT, "transitions": "q0 0 0 q0"}, "transitions"),
        ("member", {**GOOD_AUT, "states": ["q0", 1]}, "states"),
        ("member", ["q0"], "object"),
        ("inP", {"default": "|0", "columns": ["|1"]}, "columns"),
        ("inP", {"default": "|0", "columns": {"2": 1}}, "2"),
        ("inP", {"default": 0}, "default"),
        # a misspelled field must not read as an absent one
        ("member", {**GOOD_AUT, "accepting": [], "acepting": ["q0"]}, "'acepting'"),
        ("inP", {"default": "|0", "colums": {"2": "|1"}}, "'colums'"),
        pytest.param("member", DEEP, "nested", id="member-deep-nested"),
        pytest.param("inP", DEEP, "nested", id="inP-deep-nested"),
    ],
)
def test_malformed_file_is_input_error(capsys, tmp_path, verb, doc, field):
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    if verb == "member":
        argv = ["member", "--aut-file", str(path), "--pair", "|0", "|0"]
    else:
        argv = ["inP", "--grid", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


LOOPS_ON_Q = '[["q", "0", "", "q"], ["q", "1", "", "q"], ["q", "", "0", "q"], ["q", "", "1", "q"]]'


@pytest.mark.parametrize(
    "verb, text, key",
    [
        pytest.param("member", '{"states": ["q"], "sigma1": "01", "sigma2": "01", "transitions": '
                     + LOOPS_ON_Q + ', "initial": "q", "accepting": ["q"], "accepting": []}',
                     "accepting", id="member-accepting"),
        pytest.param("inP", '{"default": "|0", "columns": {"2": "|1", "2": "|0"}}', "2",
                     id="inP-column"),
        pytest.param("inP", '{"default": "|0", "default": "|1"}', "default", id="inP-default"),
    ],
)
def test_repeated_key_is_input_error_not_a_verdict(capsys, tmp_path, verb, text, key):
    # json.loads alone keeps the last value: a rejection and a true in_P
    path = tmp_path / "dup.json"
    path.write_text(text)
    if verb == "member":
        argv = ["member", "--aut-file", str(path), "--pair", "|0", "|0"]
    else:
        argv = ["inP", "--grid", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: JSON object repeats key {key!r}\n"


def test_internal_error_exits_4(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_alpha", broken)
    code, out, err = run(capsys, "alpha", "--prefix", "3")
    assert (code, out, err) == (4, "", "internal error: RuntimeError('boom')\n")
