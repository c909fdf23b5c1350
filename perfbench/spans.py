"""The library facade the workloads call, and spans recorded around it.

``facade(None)`` returns the package's public functions untouched, so the
untraced run pays nothing. ``facade(tracer)`` wraps each one to append a
span ``(name, start_ns, end_ns, item, extra)`` to ``tracer.spans``; ``item``
is the sequence number of the benchmark item that made the call, whose own
span is named ``bench.item`` and is the parent. Spans stay in memory until
``Tracer.write`` at the end. Nothing inside ``src/`` is instrumented, so a
span covers everything its public entry point did, including calls into
other modules.
"""

from __future__ import annotations

import gzip
from time import perf_counter_ns
from types import SimpleNamespace

import richwords

# Public entry points the workloads use, by module.
CALLS = {
    "words": ("word",),
    "palindromes": ("is_rich",),
    "extensions": ("std_ext", "rich_extensions"),
    "reduction": ("flexed_palindromes", "check_reducible", "reduced_word"),
    "eliminate": ("shortest_marked_factor", "eliminate"),
    "bounds": ("superword_length_bound",),
    "search": ("enumerate_rich", "find_common_superword", "pal_complexity_profile"),
}
MODULES = tuple(CALLS)


def _extra(name, args, result):
    """The count a span carries besides its times, by entry point."""
    if name == "word":
        return len(args[0])
    if name == "reduced_word":
        return result[1].case.value
    if name == "check_reducible":
        return int(isinstance(result, richwords.ReduciblePair))
    if name == "eliminate":
        return result[1].iterations
    if name == "find_common_superword":
        return result.explored
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.item = -1

    def wrap(self, module: str, name: str, fn):
        label = f"{module}.{name}"
        spans = self.spans

        if name == "enumerate_rich":
            # A generator: the span covers the whole stream; its extra holds
            # (words, ns spent inside the library producing them).
            def traced_stream(*args, **kwargs):
                start = perf_counter_ns()
                inner = words = 0
                stream = fn(*args, **kwargs)
                item = self.item
                try:
                    while True:
                        t0 = perf_counter_ns()
                        try:
                            w = next(stream)
                        except StopIteration:
                            inner += perf_counter_ns() - t0
                            return
                        inner += perf_counter_ns() - t0
                        words += 1
                        yield w
                finally:
                    spans.append((label, start, perf_counter_ns(), item, (words, inner)))

            return traced_stream

        def traced(*args, **kwargs):
            item = self.item
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except richwords.PreconditionViolation:
                spans.append((label, start, perf_counter_ns(), item, "raised"))
                raise
            end = perf_counter_ns()
            spans.append((label, start, end, item, _extra(name, args, result)))
            return result

        return traced

    def item_span(self, start: int, end: int) -> None:
        self.spans.append(("bench.item", start, end, self.item, None))

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\titem\textra\n")
            for name, start, end, item, extra in self.spans:
                handle.write(f"{name}\t{start}\t{end}\t{item}\t{extra}\n")


def facade(tracer: Tracer | None) -> SimpleNamespace:
    fns = {}
    for module, names in CALLS.items():
        for name in names:
            fn = getattr(richwords, name)
            fns[name] = fn if tracer is None else tracer.wrap(module, name, fn)
    return SimpleNamespace(**fns)


class Aggregate:
    """Per entry point: calls, busy ns and extras, from one set of spans."""

    def __init__(self, spans):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, int] = {}
        self.extras: dict[str, list] = {}
        self.case_busy: dict[str, tuple[int, int]] = {}  # reduced_word by case
        for name, start, end, _, extra in spans:
            if name == "bench.item":
                continue
            busy = end - start
            if name == "search.enumerate_rich":
                busy = extra[1]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0) + busy
            self.extras.setdefault(name, []).append(extra)
            if name == "reduction.reduced_word":
                ns, calls = self.case_busy.get(extra, (0, 0))
                self.case_busy[extra] = (ns + busy, calls + 1)

    def module_busy(self, module: str) -> int:
        return sum(ns for name, ns in self.busy.items() if name.startswith(module + "."))

    def module_calls(self, module: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(module + "."))
