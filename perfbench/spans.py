"""Tracing of qtr from outside, for the --trace 1 runs.

install() wraps the program's public functions at every site where they are
bound.  Modules use `from .x import y`, so `qtr.rank.factor_squarefree`,
`qtr.cli.n_shape` and the like are separate bindings of one function; each
binding that holds the original object is replaced.  Nothing in the program
changes.

Spans (name, start, end, parent, request) stay in memory and are written out
when the job ends.  A span's self time is its duration minus the durations
of its child spans.  Small hot functions are counted, not spanned.

Under `--jobs N` the scan's pool workers are forked with the wrappers in
place.  Each worker folds the spans of every chunk it runs into per-layer
totals and appends them as one JSON line to a file, which the parent job
merges (merge_chunks).
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import pickle
import sys
import types
from collections import Counter
from time import perf_counter

SPANNED = (
    "qtr.ntheory.factorize",
    "qtr.quad.fundamental_unit",
    "qtr.quartic.validate",
    "qtr.quartic.validate_ell",
    "qtr.quartic.conductor",
    "qtr.quartic.defining_polynomial",
    "qtr.rank.n_shape",
    "qtr.rank.character_table",
    "qtr.rank.rank_closed",
    "qtr.rank.rank_unified",
    "qtr.classify.classify_small_rank",
    "qtr.cli.main",
    "qtr.cli.scan_rows",
    "qtr.cli.cmd_verify",
    "qtr.cli._emit_table_rows",
)
COUNTED = (
    "qtr.ntheory.is_prime",
    "qtr.ntheory.legendre",
    "qtr.ntheory.quartic_symbol",
    "qtr.quad.splitting_type",
    "qtr.rank.ram_profile",
)
VALIDATION = ("quartic.validate", "quartic.validate_ell")


def _short(qualname: str) -> str:
    return qualname.split(".", 1)[1]


class Tracer:
    def __init__(self, chunk_file: str | None = None):
        self.pid = os.getpid()
        self.chunk_file = chunk_file
        self.spans: list = []
        self.stack: list[tuple[int, str]] = []
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self.rejects: Counter = Counter()
        self.request = 0
        self.caches: dict = {}

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack
        from qtr.errors import FieldInputError

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append((index, name))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[name] += 1
                # A rejection is counted once, at the outermost validation
                # call it leaves.
                if (name in VALIDATION and isinstance(exc, FieldInputError)
                        and not (len(stack) > 1 and stack[-2][1] in VALIDATION)):
                    self.rejects[type(exc).__name__] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                parent = stack[-1][0] if stack else -1
                spans[index] = (name, start, end, parent, self.request)

        return functools.update_wrapper(wrapper, fn)

    def count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def parse(self, build_parser):
        """cli.parse spans cover building the parser and parsing argv."""
        timed_build = self.span("cli.parse", build_parser)

        def wrapper():
            parser = timed_build()
            parser.parse_args = self.span("cli.parse", parser.parse_args)
            return parser

        return functools.update_wrapper(wrapper, build_parser)

    def scan_chunk(self, scan_chunk):
        """In a pool worker, fold each chunk's spans into one record."""
        tracer = self

        def wrapper(args):
            if os.getpid() == tracer.pid:
                return scan_chunk(args)
            mark = len(tracer.spans)
            for counter in (tracer.counts, tracer.raised, tracer.rejects):
                counter.clear()
            before = tracer.cache_info()
            start = perf_counter()
            result = scan_chunk(args)
            busy = perf_counter() - start
            record = {
                "pid": os.getpid(),
                "busy_s": busy,
                "result_bytes": len(pickle.dumps(result)),
                "layers": _layers(tracer.spans, mark, tracer.raised),
                "counts": tracer.counts,
                "rejects": tracer.rejects,
                "cache": _cache_delta(before, tracer.cache_info()),
            }
            del tracer.spans[mark:]
            with open(tracer.chunk_file, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            return result

        return functools.update_wrapper(wrapper, scan_chunk)

    # -- results ------------------------------------------------------------

    def cache_info(self) -> dict:
        return {name: list(fn.cache_info()[:2]) for name, fn in self.caches.items()}

    def summary(self) -> dict:
        return {
            "layers": _layers(self.spans, 0, self.raised),
            "counts": dict(self.counts),
            "rejects": dict(self.rejects),
            "cache": self.cache_info(),
            "pool": {"chunks": 0, "result_bytes": 0, "busy_s": {}},
        }

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for span in self.spans:
                if span is not None:
                    name, start, end, parent, request = span
                    fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\n")


def _layers(spans: list, mark: int, raised: Counter) -> dict:
    """name -> [calls, total_s, self_s, raised] over spans[mark:]."""
    child = [0.0] * (len(spans) - mark)
    for span in spans[mark:]:
        if span is not None and span[3] >= mark:
            child[span[3] - mark] += span[2] - span[1]
    out: dict[str, list] = {}
    for i, span in enumerate(spans[mark:]):
        if span is None:
            continue
        name, start, end = span[0], span[1], span[2]
        row = out.setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    for name, row in out.items():
        row[3] = raised.get(name, 0)
    return out


def _cache_delta(before: dict, after: dict) -> dict:
    return {k: [a - b for a, b in zip(after[k], before[k])] for k in after}


def merge(total: dict, part: dict) -> None:
    """Add one summary (or chunk record) into another."""
    for name, row in part["layers"].items():
        acc = total["layers"].setdefault(name, [0, 0.0, 0.0, 0])
        for i, value in enumerate(row):
            acc[i] += value
    for key in ("counts", "rejects"):
        for name, value in part[key].items():
            total[key][name] = total[key].get(name, 0) + value
    for name, (hits, misses) in part["cache"].items():
        acc = total["cache"].setdefault(name, [0, 0])
        acc[0] += hits
        acc[1] += misses


def merge_chunks(summary: dict, path: str) -> None:
    if not os.path.exists(path):
        return
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            merge(summary, record)
            pool = summary["pool"]
            pool["chunks"] += 1
            pool["result_bytes"] += record["result_bytes"]
            pid = str(record["pid"])
            pool["busy_s"][pid] = pool["busy_s"].get(pid, 0.0) + record["busy_s"]
    os.remove(path)


def install(chunk_file: str) -> Tracer:
    """Wrap every binding of the traced functions; qtr.cli must be imported."""
    tracer = Tracer(chunk_file)
    qtr_modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "qtr" or name.startswith("qtr."))]

    def rebind(qualname: str, make):
        module, attr = qualname.rsplit(".", 1)
        original = getattr(sys.modules[module], attr)
        wrapped = make(original)
        for mod in qtr_modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, wrapped)
        return original

    cli = sys.modules["qtr.cli"]
    tracer.caches = {
        "fundamental_unit": sys.modules["qtr.quad"].fundamental_unit,
        "two_squares": sys.modules["qtr.ntheory"].two_squares,
    }
    for qualname in SPANNED:
        rebind(qualname, functools.partial(tracer.span, _short(qualname)))
    for qualname in COUNTED:
        rebind(qualname, functools.partial(tracer.count, _short(qualname)))
    rebind("qtr.cli.build_parser", tracer.parse)
    rebind("qtr.cli._scan_chunk", tracer.scan_chunk)
    # qtr.cli renders JSON through json.dumps; give it a traced copy.
    cli.json = types.SimpleNamespace(dumps=tracer.span("cli.json_dumps", cli.json.dumps))
    return tracer
