"""End-to-end command-line behavior: every subcommand, formats, exit codes."""

import hashlib
import json

import pytest

import oracles
from richwords import Alphabet
from richwords.bounds import ensure_printable
from richwords.cli import build_parser, main

W1 = "123999322399932442399932255223993"
W2 = "123999599932239949"
WF = "110101100110011"
# a 67-letter rich word framed by the fresh letters 2 and 3
FRAMED = "2010110000001101011010101011010101111010101101101101101010111110103"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- richness checking -------------------------------------------------------


NOT_RICH = next(s for s in oracles.all_words(2, 8) if not oracles.is_rich(s))


def test_check_plain(capsys):
    assert run(capsys, "check", "010") == (0, "rich\n", "")
    assert run(capsys, "check", "--q", "2", NOT_RICH) == (0, "not rich\n", "")


def test_check_json_and_csv(capsys):
    code, out, _ = run(capsys, "check", "--format", "json", "010")
    assert code == 0
    assert json.loads(out) == {"word": "010", "rich": True}
    code, out, _ = run(capsys, "check", "--format", "csv", "010")
    assert out == "010,rich\n"


def test_check_file(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text(f"q=2\n010\n\n{NOT_RICH}\n")
    code, out, _ = run(capsys, "check", "--file", str(path))
    assert code == 0
    assert out.splitlines() == ["010 rich", f"{NOT_RICH} not rich"]


def test_check_file_errors(tmp_path, capsys):
    code, out, err = run(capsys, "check", "--file", str(tmp_path / "missing.txt"))
    assert (code, out) == (2, "") and err.startswith("error:")
    path = tmp_path / "words.txt"
    path.write_text("q=abc\n010\n")
    code, out, err = run(capsys, "check", "--file", str(path))
    assert (code, out) == (1, "") and "bad alphabet header" in err
    code, out, err = run(capsys, "check", "--file", str(tmp_path / ("x" * 5000)))
    assert (code, out) == (2, "") and err.startswith("error:")


def test_check_requires_word_or_file(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2
    assert "provide a word" in err
    # the usage error comes before the alphabet size is checked
    assert run(capsys, "check", "--q", "0") == (2, "", "error: provide a word or --file\n")


def test_check_rejects_word_with_file(tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text("q=2\n010\n")
    code, out, err = run(capsys, "check", "--file", str(path), "0110")
    assert (code, out) == (2, "")
    assert err == "error: give a word or --file, not both\n"
    # the usage error comes before any letter is checked
    assert run(capsys, "check", "--file", str(path), "0!1") == (2, "", err)


@pytest.mark.parametrize("q", ["0", "2"])
def test_check_rejects_q_with_file(q, tmp_path, capsys):
    # the file's header gives the alphabet; the error comes before it is read
    missing = str(tmp_path / "missing.txt")
    err = "error: --file takes its alphabet from the file, not from --q\n"
    assert run(capsys, "check", "--q", q, "--file", missing) == (2, "", err)
    path = tmp_path / "words.txt"
    path.write_text("q=2\n010\n")
    assert run(capsys, "check", "--file", str(path), "--q", q) == (2, "", err)


def test_invalid_letter_is_domain_error(capsys):
    code, _, err = run(capsys, "check", "--q", "2", "012")
    assert code == 1
    assert err.startswith("error:")


# -- factor / palindrome commands ------------------------------------------------


def test_factors_matches_oracle(capsys):
    code, out, _ = run(capsys, "factors", "--q", "2", "0100")
    assert code == 0
    expected = sorted(oracles.pal_set("0100"), key=lambda c: (len(c), c))
    assert out.splitlines() == expected


def test_factors_csv_and_json(capsys):
    _, out, _ = run(capsys, "factors", "--format", "csv", "--q", "2", "010")
    rows = [line.split(",") for line in out.splitlines()]
    assert rows == [["0", ""], ["1", "0"], ["1", "1"], ["3", "010"]]
    _, out, _ = run(capsys, "factors", "--format", "json", "--q", "2", "010")
    assert json.loads(out)["palindromic_factors"] == ["", "0", "1", "010"]


def test_flexed_plain_lines(capsys):
    code, out, _ = run(capsys, "flexed", "--q", "2", WF)
    assert code == 0
    assert out.splitlines() == [
        "0 3 111",
        "010 5 11011",
        "00 9 101101",
        "001100 13 1011001101",
    ]


def test_flexed_json(capsys):
    _, out, _ = run(capsys, "flexed", "--format", "json", "--q", "2", WF)
    record = json.loads(out)
    assert record["word"] == WF
    assert record["flexed"][0] == {
        "palindrome": "0",
        "position": 3,
        "replacement": "111",
    }


def test_closure_and_extend(capsys):
    assert run(capsys, "closure", "12399") == (0, "12399321\n", "")
    assert run(capsys, "extend", "12399") == (0, "123993\n", "")
    assert run(capsys, "extend", "--steps", "3", "12399") == (0, "12399321\n", "")
    _, out, _ = run(capsys, "extend", "--format", "json", "--steps", "3", "12399")
    assert json.loads(out) == {"word": "12399", "steps": 3, "result": "12399321"}
    # a step count past the letter cap: one error line, no traceback
    code, out, err = run(capsys, "extend", "--steps", str(2**63), "01")
    assert (code, out) == (1, "")
    assert err.startswith("error: standard extension to ") and err.count("\n") == 1


def test_profile_lines(capsys):
    code, out, _ = run(capsys, "profile", "--q", "2", WF)
    assert code == 0
    assert out.splitlines() == [
        "1,2", "2,2", "3,2", "4,2", "5,1", "6,2", "7,1", "8,2", "10,1",
    ]
    _, out, _ = run(capsys, "profile", "--format", "json", "--q", "2", WF)
    assert json.loads(out)["profile"]["10"] == 1


# -- reducibility pipeline ------------------------------------------------------


def test_gamma_accepts(capsys):
    assert run(capsys, "gamma", W2, "999") == (0, "reducible\n", "")
    _, out, _ = run(capsys, "gamma", "--format", "json", W2, "999")
    record = json.loads(out)
    assert record["reducible"] is True
    assert record["parse"] == {"span": "1239995999", "forced": "32", "tail": "239949"}


def test_gamma_rejects_with_condition_number(capsys):
    code, out, err = run(capsys, "gamma", W1, "999")
    assert code == 1
    assert out == ""
    assert err == "error: condition 5: a longer flexed palindrome exists (length 4)\n"


def test_parse_plain_and_json(capsys):
    code, out, _ = run(capsys, "parse", W2, "999")
    assert code == 0
    assert out.splitlines() == ["span 1239995999", "forced 32", "tail 239949"]
    _, out, _ = run(capsys, "parse", "--format", "json", W2, "999")
    record = json.loads(out)
    assert record["span"] == "1239995999"
    assert record["word"] == W2


def test_reduce_result_and_trace(capsys):
    assert run(capsys, "reduce", W2, "999") == (0, "1239932239949\n", "")
    code, out, _ = run(capsys, "reduce", "--trace", W2, "999")
    assert code == 0
    assert out.count("\n") == 1
    record = json.loads(out)
    assert record["case"] == "closure"
    assert record["result"] == "1239932239949"
    assert record["maximal"] is True


def test_reduce_failed_guarantee_is_one_error_line(capsys):
    # a non-maximal target that passes conditions 1-4, whose rewrite gains a
    # flexed palindrome: the guarantee check's message, not a traceback
    assert run(capsys, "reduce", "0011101101", "111") == (
        1,
        "",
        "error: reduced word '001101101' has new flexed palindromes\n",
    )


def test_eliminate_cli(capsys):
    assert run(capsys, "eliminate", "--q", "2", "000000001011", "00", "11") == (
        0,
        "0011\n",
        "",
    )
    code, out, _ = run(
        capsys, "eliminate", "--trace", "--q", "2", "000000001011", "00", "11"
    )
    record = json.loads(out)
    assert record["iterations"] == 1
    assert record["final"] == "0011"
    _, out, _ = run(
        capsys, "eliminate", "--format", "json", "--q", "2", "000000001011", "00", "11"
    )
    assert json.loads(out)["final"] == "0011"
    assert run(capsys, "eliminate", "010", "", "") == (
        1,
        "",
        "error: markers must be nonempty\n",
    )


def test_ruo_cli(capsys):
    assert run(capsys, "ruo", "--q", "2", "010", "0", "0") == (0, "0\n", "")
    code, _, err = run(capsys, "ruo", "--q", "2", "00", "0", "00")
    assert code == 1
    assert err.startswith("error:")


# -- bounds ----------------------------------------------------------------------


def test_bound_small_plain(capsys):
    code, out, _ = run(capsys, "bound", "--m", "1", "--q", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "flex_bound 3"
    assert lines[1] == "length_bound 32"
    assert lines[2] == "growth_bound 16"
    assert lines[3].startswith("log10_flex_bound 0.4771212547")
    assert lines[4].startswith("log10_length_bound 1.5051499783")


def test_bound_huge_exact_is_printable(capsys):
    code, out, _ = run(capsys, "bound", "--m", "2", "--q", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "flex_bound 98304"
    digits = lines[1].split(" ", 1)[1]
    assert len(digits) == 29594 and digits.isdigit()


def test_bound_over_cap_uses_log_form(capsys):
    code, out, _ = run(capsys, "bound", "--m", "4", "--q", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("length_bound ~10^")
    assert lines[2].startswith("growth_bound ~10^")
    code, _, err = run(capsys, "bound", "--m", "4", "--q", "2", "--exact")
    assert code == 1
    assert "error:" in err and "digits" in err


def test_bound_far_past_the_cap_answers_from_logs(capsys):
    # the exact flex bound would have 29,940,002 digits: it is never built
    m = str(10**3000)
    code, out, _ = run(capsys, "bound", "--m", m, "--q", "2")
    assert code == 0
    assert out.splitlines() == [
        "flex_bound ~10^29939353.33",
        "length_bound ~10^inf",
        "growth_bound ~10^inf",
        "log10_flex_bound 29939353.33110752",
        "log10_length_bound inf",
    ]
    code, _, err = run(capsys, "bound", "--m", m, "--q", "2", "--exact")
    assert code == 1
    assert err == "error: exact flex bound needs 29940002 digits, over the cap of 100000\n"


@pytest.mark.parametrize("cap", [2**31 - 3, 2**31, 10**20])
def test_bound_digit_cap_past_the_str_guard(cap, capsys, str_guard):
    # the guard cannot be set past 2**31 - 1: it is lifted altogether
    _, default, _ = run(capsys, "bound", "--m", "1", "--q", "2")
    assert run(capsys, "bound", "--m", "1", "--q", "2", "--digit-cap", str(cap)) == (
        0,
        default,
        "",
    )


def test_bound_json(capsys):
    _, out, _ = run(capsys, "bound", "--format", "json", "--m", "1", "--q", "2")
    record = json.loads(out)
    assert record["flex_bound"] == 3
    assert record["length_bound"] == 32
    assert record["digit_cap"] == 100_000


# -- enumeration and search ---------------------------------------------------------


def test_enumerate_count_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--q", "2", "--max-length", "3", "--count")
    assert code == 0
    assert out.splitlines() == ["0,1", "1,2", "2,4", "3,8"]


def test_enumerate_plain_and_json(capsys):
    _, out, _ = run(capsys, "enumerate", "--q", "2", "--max-length", "2")
    words = out.splitlines()
    assert sorted(words) == ["", "0", "00", "01", "1", "10", "11"]
    _, out, _ = run(
        capsys, "enumerate", "--format", "json", "--q", "1", "--max-length", "2"
    )
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [
        {"word": "", "length": 0},
        {"word": "0", "length": 1},
        {"word": "00", "length": 2},
    ]


def test_enumerate_canonical_flag(capsys):
    _, out, _ = run(
        capsys, "enumerate", "--q", "2", "--max-length", "2", "--canonical"
    )
    assert sorted(out.splitlines()) == ["", "0", "00", "01"]


def test_search_cli(capsys):
    assert run(capsys, "search", "--q", "2", "00", "11") == (0, "witness 0011\n", "")
    code, out, _ = run(
        capsys,
        "search", "--q", "2", "00", "11", "--max-length", "2", "--max-nodes", "5",
    )
    assert code == 0
    assert out == "exhausted-budget explored=5\n"
    _, out, _ = run(capsys, "search", "--format", "json", "--q", "2", "00", "11")
    record = json.loads(out)
    assert record["status"] == "witness"
    assert record["witness"] == "0011"
    assert record["explored"] == 28


def test_enumerate_cli_deeper_than_recursion_limit(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--q", "1", "--max-length", "1500", "--count"
    )
    assert code == 0
    assert out.splitlines()[-1] == "1500,1"


def test_enumerate_count_with_a_ceiling_past_any_list(capsys, monkeypatch):
    # A ceiling no list can be sized to: counting must read the stream, not
    # allocate for the ceiling. The stand-in stream stops with a sentinel.
    import richwords.cli as cli

    class Sentinel(Exception):
        pass

    def stream(config, workers=1):
        base = Alphabet(config.alphabet_size).word("")
        yield from (base._wrap(s) for s in ("", "0", "00", "01", "1"))
        raise Sentinel

    monkeypatch.setattr(cli, "enumerate_rich", stream)
    with pytest.raises(Sentinel):
        main(["enumerate", "--q", "2", "--max-length", str(2**63), "--count"])


def test_search_cli_deeper_than_recursion_limit(capsys):
    code, out, _ = run(
        capsys, "search", "--q", "2", "0" * 1100, "1", "--max-nodes", "5000"
    )
    assert code == 0
    assert out == "exhausted-budget explored=5000\n"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--m", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


# -- parser surface ------------------------------------------------------------

# Every argument of every subcommand, in declaration order: its flags (or
# positional name), action class, and each setting that differs from a
# plain stored option.
_PLAIN = {"default": None, "required": False, "type": None, "choices": None, "nargs": None}
HELP = "-h/--help _HelpAction default='==SUPPRESS==' nargs=0"
FORMAT = "--format _StoreAction default='plain' choices=('plain', 'json', 'csv')"
Q = "--q _StoreAction type=int"
WORD = "word _StoreAction required=True"
TARGET = "target _StoreAction required=True"
MARKERS = ["start _StoreAction required=True", "end _StoreAction required=True"]
TRACE = "--trace _StoreTrueAction default=False nargs=0"
PARSER_SURFACE = {
    "check": [HELP, FORMAT, Q, "word _StoreAction nargs='?'", "--file _StoreAction"],
    "factors": [HELP, FORMAT, Q, WORD],
    "flexed": [HELP, FORMAT, Q, WORD],
    "closure": [HELP, FORMAT, Q, WORD],
    "extend": [HELP, FORMAT, Q, WORD, "--steps _StoreAction default=1 type=int"],
    "gamma": [HELP, FORMAT, Q, WORD, TARGET],
    "parse": [HELP, FORMAT, Q, WORD, TARGET],
    "reduce": [HELP, FORMAT, Q, WORD, TARGET, TRACE],
    "eliminate": [HELP, FORMAT, Q, WORD, *MARKERS, TRACE],
    "ruo": [HELP, FORMAT, Q, WORD, *MARKERS],
    "bound": [
        HELP,
        FORMAT,
        "--m _StoreAction required=True type=int",
        "--q _StoreAction required=True type=int",
        "--digit-cap _StoreAction default=100000 type=int",
        "--exact _StoreTrueAction default=False nargs=0",
    ],
    "enumerate": [
        HELP,
        FORMAT,
        "--q _StoreAction required=True type=int",
        "--max-length _StoreAction required=True type=int",
        "--canonical _StoreTrueAction default=False nargs=0",
        "--count _StoreTrueAction default=False nargs=0",
        "--workers _StoreAction default=1 type=int",
    ],
    "search": [
        HELP,
        FORMAT,
        Q,
        "first _StoreAction required=True",
        "second _StoreAction required=True",
        "--max-length _StoreAction type=int",
        "--max-nodes _StoreAction default=1000000 type=int",
    ],
    "profile": [HELP, FORMAT, Q, WORD],
}


def _describe(action) -> str:
    settings = ["/".join(action.option_strings) or action.dest, type(action).__name__]
    for key, plain in _PLAIN.items():
        value = getattr(action, key)
        if value != plain:
            settings.append(f"{key}={value.__name__ if key == 'type' else repr(value)}")
    return " ".join(settings)


def test_parser_surface_is_pinned():
    commands = build_parser()._subparsers._group_actions[0].choices
    assert list(commands) == list(PARSER_SURFACE)
    for name, parser in commands.items():
        assert [_describe(a) for a in parser._actions] == PARSER_SURFACE[name], name


# -- pinned output bytes ------------------------------------------------------------

WORDS_FILE = object()  # stands for a q=2 word file holding 010 and NOT_RICH
REDUCE_TRACE = (
    '{"word": "123999599932239949", "target": "999", "parse": {"span": "1239995999", '
    '"forced": "32", "tail": "239949"}, "maximal": true, "case": "closure", '
    '"head": "1", "complete_return": null, "lead": null, "replacement": "3993", '
    '"closure_pick": "1239932", "reduced_prefix": "1239932", "result": "1239932239949"}\n'
)
ELIMINATE_TRACE = (
    '{"word": "000000001011", "start": "00", "end": "11", "initial": "001011", '
    '"steps": [{"before": "001011", "target": "101", "reduction": {"word": "001011", '
    '"target": "101", "parse": {"span": "00101", "forced": "", "tail": "1"}, '
    '"maximal": true, "case": "closure", "head": "00", "complete_return": null, '
    '"lead": null, "replacement": "00100", "closure_pick": "001", "reduced_prefix": "001", '
    '"result": "0011"}, "after": "0011"}], "final": "0011", "iterations": 1}\n'
)


def _bound_m2_q2() -> str:
    """The ``bound --m 2 --q 2`` JSON line. Its exact bounds 2 << 98306 and
    2 << 98305 run to 29,594 digits, so they are rendered here rather than
    spelled out. Rendering them needs the interpreter's int-to-str digit
    guard lifted; the test calls this only after the command has run, so the
    command still has to lift the guard itself."""
    ensure_printable(29_600)
    return (
        '{"marker_length": 2, "alphabet_size": 2, "flex_bound": 98304, '
        f'"length_bound": {2 << 98306}, "growth_bound": {2 << 98305}, '
        '"log10_flex_bound": 4.9925711896793805, "log10_length_bound": 29593.355783738996, '
        '"digit_cap": 100000}\n'
    )


PINNED = [
    pytest.param(
        ["flexed", "--format", "csv", "--q", "2", WF],
        "0,3,111\n010,5,11011\n00,9,101101\n001100,13,1011001101\n",
        id="flexed-csv",
    ),
    pytest.param(
        ["check", "--format", "json", "--file", WORDS_FILE],
        f'{{"word": "010", "rich": true}}\n{{"word": "{NOT_RICH}", "rich": false}}\n',
        id="check-file-json",
    ),
    pytest.param(
        ["check", "--format", "csv", "--file", WORDS_FILE],
        f"010,rich\n{NOT_RICH},not-rich\n",
        id="check-file-csv",
    ),
    pytest.param(
        ["ruo", "--format", "json", "--q", "2", "010", "0", "0"],
        '{"word": "010", "start": "0", "end": "0", "factor": "0"}\n',
        id="ruo-json",
    ),
    pytest.param(["closure", "--format", "csv", "12399"], "12399321\n", id="closure-csv"),
    pytest.param(
        ["extend", "--format", "csv", "--steps", "3", "12399"], "12399321\n", id="extend-csv"
    ),
    pytest.param(["gamma", "--format", "csv", W2, "999"], "reducible\n", id="gamma-csv"),
    pytest.param(
        ["parse", "--format", "csv", W2, "999"],
        "span 1239995999\nforced 32\ntail 239949\n",
        id="parse-csv",
    ),
    pytest.param(["reduce", "--format", "csv", W2, "999"], "1239932239949\n", id="reduce-csv"),
    pytest.param(
        ["eliminate", "--format", "csv", "--q", "2", "000000001011", "00", "11"],
        "0011\n",
        id="eliminate-csv",
    ),
    pytest.param(
        ["search", "--format", "csv", "--q", "2", "00", "11"], "witness 0011\n", id="search-csv"
    ),
    pytest.param(
        ["profile", "--format", "csv", "--q", "2", WF],
        "1,2\n2,2\n3,2\n4,2\n5,1\n6,2\n7,1\n8,2\n10,1\n",
        id="profile-csv",
    ),
    pytest.param(
        ["enumerate", "--format", "json", "--q", "2", "--max-length", "3", "--count"],
        "0,1\n1,2\n2,4\n3,8\n",
        id="enumerate-count-json",
    ),
    pytest.param(
        ["reduce", "--format", "csv", "--trace", W2, "999"], REDUCE_TRACE, id="reduce-trace-csv"
    ),
    pytest.param(["flexed", "--format", "plain", ""], "", id="flexed-empty-plain"),
    pytest.param(["flexed", "--format", "csv", ""], "", id="flexed-empty-csv"),
    pytest.param(
        ["flexed", "--format", "json", ""], '{"word": "", "flexed": []}\n', id="flexed-empty-json"
    ),
    pytest.param(
        ["eliminate", "--trace", "--q", "2", "000000001011", "00", "11"],
        ELIMINATE_TRACE,
        id="eliminate-trace",
    ),
    pytest.param(
        ["search", "--format", "json", "--q", "2", "00", "11"],
        '{"status": "witness", "witness": "0011", "explored": 28, '
        '"budget": {"max_length": 4, "max_nodes": 1000000}}\n',
        id="search-json",
    ),
    # rounds 10..17, shorter than the targets' 18-letter shortest
    # superstring, are counted, not walked; round 10 alone exhausts the budget
    pytest.param(
        ["search", "--q", "3", "202010000", "2010201101",
         "--max-length", "19", "--max-nodes", "20000"],
        "exhausted-budget explored=20000\n",
        id="search-counted-rounds-exhausted",
    ),
    # rounds 10 and 11 fit the budget: 28,080 + 63,111 rich ternary words
    pytest.param(
        ["search", "--q", "3", "202010000", "2010201101",
         "--max-length", "11", "--max-nodes", "100000"],
        "exhausted-budget explored=91191\n",
        id="search-counted-rounds-complete",
    ),
    pytest.param(
        ["bound", "--format", "json", "--m", "2", "--q", "2"], _bound_m2_q2, id="bound-json"
    ),
    # the tree walk: binary rich words up to 8 letters
    pytest.param(
        ["enumerate", "--q", "2", "--max-length", "8", "--count"],
        "0,1\n1,2\n2,4\n3,8\n4,16\n5,32\n6,64\n7,128\n8,252\n",
        id="enumerate-count-binary-8",
    ),
    # canonical ternary words up to 10 letters: the last level's candidates
    # are cut to the letters used so far, plus one
    pytest.param(
        ["enumerate", "--q", "3", "--max-length", "10", "--canonical", "--count"],
        "0,1\n1,1\n2,2\n3,5\n4,13\n5,34\n6,86\n7,212\n8,506\n9,1175\n10,2651\n",
        id="enumerate-count-canonical-ternary-10",
    ),
    # a 28-letter witness within a 20-letter budget: the palindromic closure
    # that orients the hit lengthens it
    pytest.param(
        ["search", "--q", "2", "0010010001", "1101101110"],
        "witness 0010010001110110111000100100\n",
        id="search-closed-witness",
    ),
    # the node count fixes the walk order: each round in display order
    pytest.param(
        ["search", "--q", "2", "0010010001", "1101101110", "--format", "json"],
        '{"status": "witness", "witness": "0010010001110110111000100100", '
        '"explored": 333121, "budget": {"max_length": 20, "max_nodes": 1000000}}\n',
        id="search-closed-witness-json",
    ),
    # the first trim cuts 001112 to 01112, then one rewrite follows
    pytest.param(["eliminate", "001112", "0", "2"], "0112\n", id="eliminate-trim-then-rewrite"),
    # 12 passes, in both rewrite cases
    pytest.param(["eliminate", FRAMED, "2", "3"], "20103\n", id="eliminate-framed"),
    # standard extensions: the palindromic closure cut to its period, repeated
    pytest.param(
        ["extend", "0110100", "--steps", "20"],
        "011010010110100101101001011\n",
        id="extend-period",
    ),
    # a period of 4, longer than the word, three times
    pytest.param(["extend", "012", "--steps", "9"], "012101210121\n", id="extend-long-period"),
    # a palindrome: the period is cut by its longest proper palindromic prefix
    pytest.param(["extend", "010", "--steps", "7"], "0101010101\n", id="extend-palindrome"),
]


@pytest.mark.parametrize("argv, expected", PINNED)
def test_pinned_stdout(argv, expected, tmp_path, capsys):
    path = tmp_path / "words.txt"
    path.write_text(f"q=2\n010\n\n{NOT_RICH}\n")
    argv = [str(path) if a is WORDS_FILE else a for a in argv]
    result = run(capsys, *argv)
    assert result == (0, expected() if callable(expected) else expected, "")


# Output too long to spell out, pinned by the sha256 of its bytes.
DIGESTS = [
    # every pass of the framed word's elimination
    pytest.param(
        ["eliminate", "--trace", FRAMED, "2", "3"],
        "75f34cb9b134d8cf02ec2f48fea449ceb37e7e8decfb1fb197e89cb681363521",
        id="eliminate-framed-trace",
    ),
    # the binary m = 2 bounds: two exact integers of 29,594 digits each
    pytest.param(
        ["bound", "--m", "2", "--q", "2"],
        "f1b4a2ca1ef6cb38e6b635c63ffac4d39e5d552699b9c0a94b5daef8751bbbee",
        id="bound-m2-q2",
    ),
]


@pytest.mark.parametrize("argv, digest", DIGESTS)
def test_pinned_stdout_digest(argv, digest, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")


# Domain rejections: exit status 1, one error line and no output.
REJECTED = [
    pytest.param(["gamma", W1, "999"], id="gamma-not-maximal"),
    pytest.param(["bound", "--m", "2", "--q", "2", "--digit-cap", "0"], id="bound-digit-cap-0"),
    pytest.param(
        ["enumerate", "--q", "2", "--max-length", "3", "--workers", "0"], id="enumerate-workers-0"
    ),
]


@pytest.mark.parametrize("argv", REJECTED)
def test_domain_rejection_exits_1(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# -- hostile input ---------------------------------------------------------------------

LONG = ("0" * 9 + "1") * 200
SUBCOMMANDS = sorted(build_parser()._subparsers._group_actions[0].choices)


def _argv_for(command: str, w: str) -> list[str]:
    """One invocation of ``command`` fed the word ``w`` in every word slot;
    the commands without a word get its length (-1 for a bad letter)."""
    n = str(len(w)) if w.isdigit() or not w else "-1"
    return {
        "check": ["check", w],
        "factors": ["factors", w],
        "flexed": ["flexed", w],
        "closure": ["closure", w],
        "extend": ["extend", w],
        "gamma": ["gamma", w, w[:3]],
        "parse": ["parse", w, w[:3]],
        "reduce": ["reduce", w, w[:3]],
        "eliminate": ["eliminate", w, w[:1], w[-1:]],
        "ruo": ["ruo", w, w[:1], w[-1:]],
        "bound": ["bound", "--m", n, "--q", "2"],
        "enumerate": ["enumerate", "--q", "1", "--max-length", n, "--count"],
        "search": ["search", w, w[::-1], "--max-nodes", "50"],
        "profile": ["profile", w],
    }[command]


def _with_q(argv: list[str], q: str) -> list[str]:
    if "--q" in argv:
        argv = list(argv)
        argv[argv.index("--q") + 1] = q
        return argv
    return argv[:1] + ["--q", q] + argv[1:]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_hostile_input_exits_cleanly(command, capsys):
    cases = [_argv_for(command, w) for w in ("", "0!1", LONG)]
    cases += [_with_q(_argv_for(command, "010"), q) for q in ("0", "37")]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2), argv
        assert code == 0 or err.startswith("error:"), (argv, err)
