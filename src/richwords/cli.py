"""Command-line surface for the rich-words toolkit.

One subcommand per library operation; words are written as display symbols
(0-9 then a-z). Exit status 0 means success, 1 a domain rejection (the
message on standard error names the failing condition), 2 a usage error.
Structured output is line-delimited JSON so harnesses can stream it.

Handlers return their output and raise on rejection; ``main`` alone prints
the view ``--format`` selects and picks the exit status.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, NamedTuple

from .bounds import DEFAULT_DIGIT_CAP, ensure_printable, superword_length_bound
from .eliminate import eliminate, shortest_marked_factor
from .errors import DomainError, NotReducible, ResourceLimit
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


def _render(output: _Output, fmt: str) -> None:
    if fmt == "json" and output.json is not None:
        lines = map(json.dumps, output.json)
    elif fmt == "csv" and output.csv is not None:
        lines = output.csv
    else:
        lines = output.plain
    for line in lines:
        print(line)


# -- subcommand handlers ---------------------------------------------------


def _cmd_check(args) -> _Output:
    if args.file is not None and args.word is not None:
        raise _UsageError("give a word or --file, not both")
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(exc) from exc
        _, words = parse_word_file(text)
    elif args.word is None:
        raise _UsageError("provide a word or --file")
    else:
        words = _resolve_words(args.q, args.word)
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


def _cmd_factors(args) -> _Output:
    (w,) = _resolve_words(args.q, args.word)
    pals = sorted((p.chars for p in pal_factors(w)), key=lambda c: (len(c), c))
    return _Output(
        pals,
        json=[{"word": w.chars, "palindromic_factors": pals}],
        csv=(f"{len(p)},{p}" for p in pals),
    )


def _cmd_flexed(args) -> _Output:
    (w,) = _resolve_words(args.q, args.word)
    records = flexed_palindromes(w)
    fields = [(r.palindrome.chars, r.position, r.replacement.chars) for r in records]
    return _Output(
        (f"{p} {i} {x}" for p, i, x in fields),
        json=[{"word": w.chars, "flexed": [r.to_record() for r in records]}],
        csv=(f"{p},{i},{x}" for p, i, x in fields),
    )


def _cmd_closure(args) -> _Output:
    (w,) = _resolve_words(args.q, args.word)
    result = pal_closure(w)
    return _Output([result.chars], json=[{"word": w.chars, "closure": result.chars}])


def _cmd_extend(args) -> _Output:
    (w,) = _resolve_words(args.q, args.word)
    result = std_ext(w, args.steps)
    record = {"word": w.chars, "steps": args.steps, "result": result.chars}
    return _Output([result.chars], json=[record])


def _cmd_gamma(args) -> _Output:
    w, r = _resolve_words(args.q, args.word, args.target)
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


def _cmd_parse(args) -> _Output:
    w, r = _resolve_words(args.q, args.word, args.target)
    triple = parse(w, r)
    return _Output(
        [f"span {triple.span.chars}", f"forced {triple.forced.chars}", f"tail {triple.tail.chars}"],
        json=[{"word": w.chars, "target": r.chars, **triple.to_record()}],
    )


def _cmd_reduce(args) -> _Output:
    w, r = _resolve_words(args.q, args.word, args.target)
    result, trace = reduced_word(w, r)
    if args.trace:
        return _Output([json.dumps(trace.to_record())])
    record = {"word": w.chars, "target": r.chars, "result": result.chars}
    return _Output([result.chars], json=[record])


def _cmd_eliminate(args) -> _Output:
    w, start, end = _resolve_words(args.q, args.word, args.start, args.end)
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


def _cmd_ruo(args) -> _Output:
    w, start, end = _resolve_words(args.q, args.word, args.start, args.end)
    result = shortest_marked_factor(w, start, end)
    record = {"word": w.chars, "start": start.chars, "end": end.chars, "factor": result.chars}
    return _Output([result.chars], json=[record])


def _format_exact(value: int | None, log10_value: float) -> str:
    if value is not None:
        return str(value)
    return f"~10^{log10_value:.2f}"


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


def _cmd_enumerate(args) -> _Output:
    config = EnumConfig(
        alphabet_size=args.q, max_length=args.max_length, canonical=args.canonical
    )
    stream = enumerate_rich(config, workers=args.workers)
    if args.count:
        counts = [0] * (args.max_length + 1)
        for w in stream:
            counts[len(w.chars)] += 1
        return _Output(f"{length},{count}" for length, count in enumerate(counts))
    return _Output(
        (w.chars for w in stream),
        json=({"word": w.chars, "length": len(w.chars)} for w in stream),
    )


def _cmd_search(args) -> _Output:
    w1, w2 = _resolve_words(args.q, args.first, args.second)
    max_length = (
        args.max_length
        if args.max_length is not None
        else len(w1.chars) + len(w2.chars)
    )
    budget = SearchBudget(max_length=max_length, max_nodes=args.max_nodes)
    verdict = find_common_superword(w1, w2, budget)
    if verdict.witness is not None:
        line = f"witness {verdict.witness.chars}"
    else:
        line = f"exhausted-budget explored={verdict.explored}"
    return _Output([line], json=[verdict.to_record()])


def _cmd_profile(args) -> _Output:
    (w,) = _resolve_words(args.q, args.word)
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

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("plain", "json", "csv"),
        default="plain",
        help="output format (default plain)",
    )
    alpha = argparse.ArgumentParser(add_help=False)
    alpha.add_argument(
        "--q",
        type=int,
        default=None,
        help="alphabet size; inferred from the arguments when omitted",
    )

    p = sub.add_parser("check", parents=[fmt, alpha], help="test palindromic richness")
    p.add_argument("word", nargs="?", default=None, help="word to test")
    p.add_argument("--file", default=None, help="word file (optional q=<n> header)")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser(
        "factors", parents=[fmt, alpha], help="distinct palindromic factors"
    )
    p.add_argument("word")
    p.set_defaults(handler=_cmd_factors)

    p = sub.add_parser(
        "flexed",
        parents=[fmt, alpha],
        help="flexed palindromes with positions and standard replacements",
    )
    p.add_argument("word")
    p.set_defaults(handler=_cmd_flexed)

    p = sub.add_parser("closure", parents=[fmt, alpha], help="palindromic closure")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser(
        "extend", parents=[fmt, alpha], help="standard extension by forced letters"
    )
    p.add_argument("word")
    p.add_argument("--steps", type=int, default=1, help="letters to append (default 1)")
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser(
        "gamma",
        parents=[fmt, alpha],
        help="test the five reducibility conditions for (word, target)",
    )
    p.add_argument("word")
    p.add_argument("target")
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser(
        "parse",
        parents=[fmt, alpha],
        help="split a reducible pair into span, forced run, and tail",
    )
    p.add_argument("word")
    p.add_argument("target")
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser(
        "reduce", parents=[fmt, alpha], help="rewrite away occurrences of the target"
    )
    p.add_argument("word")
    p.add_argument("target")
    p.add_argument("--trace", action="store_true", help="emit the full rewrite trace")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser(
        "eliminate",
        parents=[fmt, alpha],
        help="remove all flexed palindromes longer than the markers",
    )
    p.add_argument("word")
    p.add_argument("start", help="prefix marker to keep")
    p.add_argument("end", help="suffix marker to keep")
    p.add_argument("--trace", action="store_true", help="emit the full run trace")
    p.set_defaults(handler=_cmd_eliminate)

    p = sub.add_parser(
        "ruo",
        parents=[fmt, alpha],
        help="shortest factor carrying both markers reverse-unioccurrently",
    )
    p.add_argument("word")
    p.add_argument("start")
    p.add_argument("end")
    p.set_defaults(handler=_cmd_ruo)

    p = sub.add_parser(
        "bound", parents=[fmt], help="exact superword length bounds"
    )
    p.add_argument("--m", type=int, required=True, help="maximum marker length")
    p.add_argument("--q", type=int, required=True, help="alphabet size")
    p.add_argument(
        "--digit-cap",
        type=int,
        default=DEFAULT_DIGIT_CAP,
        help=f"largest exact decimal expansion to materialize (default {DEFAULT_DIGIT_CAP})",
    )
    p.add_argument(
        "--exact",
        action="store_true",
        help="fail instead of approximating when a bound exceeds the digit cap",
    )
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser(
        "enumerate", parents=[fmt], help="stream all rich words up to a length"
    )
    p.add_argument("--q", type=int, required=True, help="alphabet size")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument(
        "--canonical",
        action="store_true",
        help="quotient by letter renaming (letters first appear in increasing order)",
    )
    p.add_argument("--count", action="store_true", help="emit length,count lines")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser(
        "search",
        parents=[fmt, alpha],
        help="look for a rich word containing both arguments",
    )
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument(
        "--max-length", type=int, default=None, help="longest word to try"
    )
    p.add_argument("--max-nodes", type=int, default=1_000_000)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser(
        "profile", parents=[fmt, alpha], help="palindromic factor counts by length"
    )
    p.add_argument("word")
    p.set_defaults(handler=_cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _render(args.handler(args), args.format)
    except (_UsageError, DomainError, ResourceLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
