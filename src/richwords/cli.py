"""Command-line surface for the rich-words toolkit.

One subcommand per library operation; words are written as display symbols
(0-9 then a-z). Exit status 0 means success, 1 a domain rejection or a
guarantee check that failed (the message on standard error names the
failing condition), 2 a usage error.
Structured output is line-delimited JSON so harnesses can stream it.

``@_command`` declares each handler a subcommand. Handlers get their word
arguments as ``Word``s, return their output and raise on rejection; ``main``
alone resolves the words, prints the view ``--format`` selects and picks the
exit status.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Iterable, NamedTuple

from .bounds import DEFAULT_DIGIT_CAP, ensure_printable, superword_length_bound
from .eliminate import eliminate, shortest_marked_factor
from .errors import DomainError, InternalInconsistency, NotReducible, ResourceLimit
from .extensions import std_ext
from .palindromes import is_rich, pal_closure, pal_factors
from .reduction import (
    ReductionRejection,
    check_reducible,
    flexed_palindromes,
    parse,
    reduced_word,
)
from .search import (
    DEFAULT_MAX_NODES,
    EnumConfig,
    SearchBudget,
    enumerate_rich,
    find_common_superword,
    pal_complexity_profile,
)
from .words import Alphabet, Word, infer_alphabet_size, parse_word_file

__all__ = ["main"]


def _resolve_words(q: int | None, *texts: str) -> list[Word]:
    size = q if q is not None else infer_alphabet_size(*texts)
    alphabet = Alphabet(size)
    return [alphabet.word(text) for text in texts]


class _UsageError(Exception):
    """A command line argparse accepts but the command cannot run (exit 2)."""


class _Output(NamedTuple):
    """What a handler prints: plain lines, plus JSON records and csv lines
    where the command has them. A view a command lacks falls back to plain,
    so ``--trace`` and ``--count`` give only a plain view."""

    plain: Iterable[str]
    json: Iterable[dict] | None = None
    csv: Iterable[str] | None = None


def _render(output: _Output, view: str) -> None:
    if view == "json" and output.json is not None:
        lines = map(json.dumps, output.json)
    elif view == "csv" and output.csv is not None:
        lines = output.csv
    else:
        lines = output.plain
    for line in lines:
        print(line)


_COMMANDS: dict[str, tuple] = {}  # name -> (handler, help, words, options)


def _command(help: str, words: dict[str, dict] = {}, options: dict[str, dict] = {}):
    """Declare the decorated ``_cmd_<name>`` handler as subcommand ``name``.
    ``words`` maps each positional word argument, and ``options`` each other
    argument, to its ``add_argument`` keywords; every command takes
    ``--format``, and one with words also takes ``--q``."""

    def declare(handler: Callable[..., _Output]) -> Callable[..., _Output]:
        _COMMANDS[handler.__name__.removeprefix("_cmd_")] = (handler, help, words, options)
        return handler

    return declare


_WORD = {"word": {}}
_PAIR = {"word": {}, "target": {}}
_FORMATS = ("plain", "json", "csv")


# -- subcommand handlers ---------------------------------------------------


@_command(
    "test palindromic richness",
    {"word": dict(nargs="?", help="word to test")},
    {"--file": dict(help="word file (optional q=<n> header)")},
)
def _cmd_check(args, *words: Word) -> _Output:
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(exc) from exc
        _, words = parse_word_file(text)
    verdicts = [(w.chars, is_rich(w)) for w in words]
    if args.file is not None:
        plain = (f"{c} {'rich' if v else 'not rich'}" for c, v in verdicts)
    else:
        plain = ("rich" if v else "not rich" for _, v in verdicts)
    return _Output(
        plain,
        json=({"word": c, "rich": v} for c, v in verdicts),
        csv=(f"{c},{'rich' if v else 'not-rich'}" for c, v in verdicts),
    )


@_command("distinct palindromic factors", _WORD)
def _cmd_factors(args, w: Word) -> _Output:
    pals = sorted((p.chars for p in pal_factors(w)), key=lambda c: (len(c), c))
    return _Output(
        pals,
        json=[{"word": w.chars, "palindromic_factors": pals}],
        csv=(f"{len(p)},{p}" for p in pals),
    )


@_command("flexed palindromes with positions and standard replacements", _WORD)
def _cmd_flexed(args, w: Word) -> _Output:
    records = flexed_palindromes(w)
    fields = [(r.palindrome.chars, r.position, r.replacement.chars) for r in records]
    return _Output(
        (f"{p} {i} {x}" for p, i, x in fields),
        json=[{"word": w.chars, "flexed": [r.to_record() for r in records]}],
        csv=(f"{p},{i},{x}" for p, i, x in fields),
    )


@_command("palindromic closure", _WORD)
def _cmd_closure(args, w: Word) -> _Output:
    result = pal_closure(w)
    return _Output([result.chars], json=[{"word": w.chars, "closure": result.chars}])


@_command(
    "standard extension by forced letters",
    _WORD,
    {"--steps": dict(type=int, default=1, help="letters to append (default 1)")},
)
def _cmd_extend(args, w: Word) -> _Output:
    result = std_ext(w, args.steps)
    record = {"word": w.chars, "steps": args.steps, "result": result.chars}
    return _Output([result.chars], json=[record])


@_command("test the five reducibility conditions for (word, target)", _PAIR)
def _cmd_gamma(args, w: Word, r: Word) -> _Output:
    outcome = check_reducible(w, r)
    if isinstance(outcome, ReductionRejection):
        raise NotReducible(outcome)
    record = {
        "word": w.chars,
        "target": r.chars,
        "reducible": True,
        "parse": outcome.parse.to_record(),
    }
    return _Output(["reducible"], json=[record])


@_command("split a reducible pair into span, forced run, and tail", _PAIR)
def _cmd_parse(args, w: Word, r: Word) -> _Output:
    triple = parse(w, r)
    return _Output(
        [f"span {triple.span.chars}", f"forced {triple.forced.chars}", f"tail {triple.tail.chars}"],
        json=[{"word": w.chars, "target": r.chars, **triple.to_record()}],
    )


@_command(
    "rewrite away occurrences of the target",
    _PAIR,
    {"--trace": dict(action="store_true", help="emit the full rewrite trace")},
)
def _cmd_reduce(args, w: Word, r: Word) -> _Output:
    result, trace = reduced_word(w, r)
    if args.trace:
        return _Output([json.dumps(trace.to_record())])
    record = {"word": w.chars, "target": r.chars, "result": result.chars}
    return _Output([result.chars], json=[record])


@_command(
    "remove all flexed palindromes longer than the markers",
    {
        "word": {},
        "start": dict(help="marker the word begins with, up to reversal"),
        "end": dict(help="marker the word ends with, up to reversal"),
    },
    {"--trace": dict(action="store_true", help="emit the full run trace")},
)
def _cmd_eliminate(args, w: Word, start: Word, end: Word) -> _Output:
    final, trace = eliminate(w, start, end)
    if args.trace:
        return _Output([json.dumps(trace.to_record())])
    record = {
        "word": w.chars,
        "start": start.chars,
        "end": end.chars,
        "final": final.chars,
        "iterations": trace.iterations,
    }
    return _Output([final.chars], json=[record])


@_command(
    "shortest factor carrying both markers reverse-unioccurrently",
    {"word": {}, "start": {}, "end": {}},
)
def _cmd_ruo(args, w: Word, start: Word, end: Word) -> _Output:
    result = shortest_marked_factor(w, start, end)
    record = {"word": w.chars, "start": start.chars, "end": end.chars, "factor": result.chars}
    return _Output([result.chars], json=[record])


def _format_exact(value: int | None, log10_value: float) -> str:
    if value is not None:
        return str(value)
    return f"~10^{log10_value:.2f}"


@_command(
    "exact superword length bounds",
    options={
        "--m": dict(type=int, required=True, help="maximum marker length"),
        "--q": dict(type=int, required=True, help="alphabet size"),
        "--digit-cap": dict(
            type=int,
            default=DEFAULT_DIGIT_CAP,
            help="largest exact decimal expansion to materialize (default %(default)s)",
        ),
        "--exact": dict(
            action="store_true",
            help="fail instead of approximating when a bound exceeds the digit cap",
        ),
    },
)
def _cmd_bound(args) -> _Output:
    report = superword_length_bound(
        args.m, args.q, digit_cap=args.digit_cap, require_exact=args.exact
    )
    ensure_printable(report.digit_cap)
    growth_log10 = report.log10_length_bound - 0.30102999566398120
    plain = [
        f"flex_bound {_format_exact(report.flex_bound, report.log10_flex_bound)}",
        f"length_bound {_format_exact(report.length_bound, report.log10_length_bound)}",
        f"growth_bound {_format_exact(report.growth_bound, growth_log10)}",
        f"log10_flex_bound {report.log10_flex_bound}",
        f"log10_length_bound {report.log10_length_bound}",
    ]
    return _Output(plain, json=[report.to_record()])


@_command(
    "stream all rich words up to a length",
    options={
        "--q": dict(type=int, required=True, help="alphabet size"),
        "--max-length": dict(type=int, required=True),
        "--canonical": dict(
            action="store_true",
            help="quotient by letter renaming (letters first appear in increasing order)",
        ),
        "--count": dict(action="store_true", help="emit length,count lines"),
        "--workers": dict(type=int, default=1),
    },
)
def _cmd_enumerate(args) -> _Output:
    config = EnumConfig(
        alphabet_size=args.q, max_length=args.max_length, canonical=args.canonical
    )
    stream = enumerate_rich(config, workers=args.workers)
    if args.count:
        # Each word of length n > 0 comes after its prefix of length n - 1
        # (preorder, in the shallow part or the same subtree): counts grows
        # as lengths arrive, never to the ceiling's size up front.
        counts = []
        for w in stream:
            n = len(w.chars)
            if n == len(counts):
                counts.append(0)
            counts[n] += 1
        return _Output(f"{length},{count}" for length, count in enumerate(counts))
    return _Output(
        (w.chars for w in stream),
        json=({"word": w.chars, "length": len(w.chars)} for w in stream),
    )


@_command(
    "look for a rich word containing both arguments",
    {"first": {}, "second": {}},
    {
        "--max-length": dict(type=int, help="longest word to try"),
        "--max-nodes": dict(type=int, default=DEFAULT_MAX_NODES),
    },
)
def _cmd_search(args, w1: Word, w2: Word) -> _Output:
    budget = SearchBudget(max_length=args.max_length, max_nodes=args.max_nodes)
    verdict = find_common_superword(w1, w2, budget)
    if verdict.witness is not None:
        line = f"witness {verdict.witness.chars}"
    else:
        line = f"exhausted-budget explored={verdict.explored}"
    return _Output([line], json=[verdict.to_record()])


@_command("palindromic factor counts by length", _WORD)
def _cmd_profile(args, w: Word) -> _Output:
    profile = pal_complexity_profile(w)
    return _Output(
        [f"{length},{count}" for length, count in profile.items()],
        json=[{"word": w.chars, "profile": {str(k): v for k, v in profile.items()}}],
    )


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="richwords",
        description="Palindromically rich words: analysis, rewriting, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, words, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "--format", choices=_FORMATS, default="plain", help="output format (default plain)"
        )
        if words:
            p.add_argument(
                "--q", type=int, help="alphabet size; inferred from the arguments when omitted"
            )
        for flag, keywords in {**words, **options}.items():
            p.add_argument(flag, **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, names, _ = _COMMANDS[args.command]
    try:
        # check reads one word or --file: say which before checking any letter
        if args.command == "check" and args.word is None and args.file is None:
            raise _UsageError("provide a word or --file")
        if args.command == "check" and args.word is not None and args.file is not None:
            raise _UsageError("give a word or --file, not both")
        if args.command == "check" and args.q is not None and args.file is not None:
            raise _UsageError("--file takes its alphabet from the file, not from --q")
        texts = [t for t in (getattr(args, name) for name in names) if t is not None]
        words = _resolve_words(args.q, *texts) if texts else []
        _render(handler(args, *words), args.format)
    except (_UsageError, DomainError, InternalInconsistency, ResourceLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
