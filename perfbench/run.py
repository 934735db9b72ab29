"""Benchmark of qtr: four workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each exists):
  census         qtr scan --ell 37 --n-max 30000 --format csv --jobs 1
  census-j2      the same scan with --jobs 2
  panel-verify   qtr verify --ell E --n-max 3000 --format json, 12 panel ells
  field-queries  single-field requests through qtr.cli.main from one
                 closed-loop client, from a pinned pool in a seeded order

Every job is a fresh interpreter (worker.py) that imports qtr from src/ of
this checkout.  Each output is checked against reference.json, which was
pinned at the commit that defined the benchmark.  Times are in reference
seconds, corrected for the speed of the shared CPU (speed.py).  With
--trace 0 the last line of stdout is the end-to-end result; with --trace 1
it is the per-layer result of a run that alternates untraced and traced
jobs.  A full report, with provenance and every failure, goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

import queries

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

PANEL_ELLS = (5, 13, 29, 37, 53, 61, 101, 109, 149, 157, 173, 197)
WORKLOADS = {
    "census": {"ell": 37, "n_max": 30000, "jobs": 1},
    "census-j2": {"ell": 37, "n_max": 30000, "jobs": 2},
    "panel-verify": {"ells": list(PANEL_ELLS), "n_max": 3000},
    "field-queries": {"pool_size": queries.POOL_SIZE, "requests": 250, "min_sent": 1000,
                      "timeout_s": 5.0},
}
SETUP_PROBES = 7
JOB_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "fields_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
REJECTS = ("EllNotPrime", "EllNotFiveMod8", "NNotPositive", "NotSquarefree", "NotCoprime")
PER_LAYER = {
    "ntheory.factorize_calls_per_n": "calls/n",
    "ntheory.factorize_self_s": "s",
    "ntheory.quartic_symbol_calls_per_field": "calls/field",
    "ntheory.is_prime_calls_per_field": "calls/field",
    "ntheory.legendre_calls_per_field": "calls/field",
    "quad.splitting_type_calls_per_field": "calls/field",
    "quad.cache_hit_ratio": "ratio",
    "quartic.validate_self_s": "s",
    **{f"quartic.rejects_{name}": "1/op" for name in REJECTS},
    "quartic.conductor_self_s": "s",
    "rank.n_shape_calls_per_field": "calls/field",
    "rank.ram_profile_calls_per_field": "calls/field",
    "rank.n_shape_self_s": "s",
    "rank.character_table_self_s": "s",
    "rank.rank_closed_self_s": "s",
    "rank.rank_unified_self_s": "s",
    "cli.parse_s": "s",
    "cli.emit_s": "s",
    "cli.output_bytes": "B/op",
    "cli.pool_chunks": "1/op",
    "cli.pool_result_bytes": "B/op",
    "bench.trace_overhead_ratio": "ratio",
}
# Layer times that are zero by construction on some workload (no scan in
# verify, no fundamental unit in a census, ...).  They are reported in the
# layer table of every traced run but are not part of the result line.
LAYER_TABLE_ONLY = {
    "quad.fundamental_unit_self_s": "s",
    "quartic.defining_polynomial_self_s": "s",
    "classify.classify_small_rank_self_s": "s",
    "cli.scan_rows_s": "s",
    "cli.verify_s": "s",
    "cli.pool_overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- jobs ---------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # The program's defaults are what is measured.
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env.pop("QTR_DEFAULT_FORMAT", None)
    return env


_JOB_IDS = itertools.count()
ADDR_NO_RANDOMIZE = 0x0040000
_LIBC = ctypes.CDLL(None)


def _fixed_layout() -> None:
    """Start the job without address-space randomisation, as `setarch -R`
    does; it holds for this child and its pool workers only.  With a fresh
    random layout per process, the same verify job's time spread 0.04-0.10
    (IQR over median) over ten processes, and its median moved by 7-15%
    between sets; with the layout fixed it spread 0.04-0.06 and kept its
    median."""
    persona = _LIBC.personality(0xFFFFFFFF)
    if persona != -1:
        _LIBC.personality(persona | ADDR_NO_RANDOMIZE)


def worker(args: list[str], spec: dict | None = None, timeout: float = JOB_TIMEOUT_S) -> dict:
    """Run worker.py in a fresh interpreter and return its report.

    The worker leads its own process group, so a job that runs past the
    timeout is killed together with any pool processes it started.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=_env(), cwd=ROOT, start_new_session=True, preexec_fn=_fixed_layout,
    )
    try:
        out, err = proc.communicate(json.dumps(spec) if spec else "", timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"job ran past {timeout} s"}
    if proc.returncode != 0 or not out.strip():
        return {"error": f"worker exited {proc.returncode}: {err.strip()[-500:]}"}
    return json.loads(out.splitlines()[-1])


def job_spec(argvs: list[list[str]], traced: bool, **extra) -> dict:
    OUT.mkdir(exist_ok=True)
    job = f"{os.getpid()}-{next(_JOB_IDS)}"
    return {
        "src": str(SRC),
        "argvs": argvs,
        "trace": traced,
        "chunk_file": str(OUT / f"chunks-{job}.jsonl"),
        "speed_file": str(OUT / f"speed-{job}.txt"),
        **extra,
    }


class SetupProbe:
    """setup_s samples, each from a fresh interpreter.  They are taken
    between jobs, spread over the run, so that their median does not hang
    on one moment of a shared machine."""

    def __init__(self, ells: list[int]):
        self.args = ["setup", *map(str, ells)]
        self.samples: list[float] = []

    def take(self, count: int = 1) -> None:
        for _ in range(min(count, SETUP_PROBES - len(self.samples))):
            report = worker(self.args)
            if "error" in report:
                raise BenchError(f"setup probe failed: {report['error']}")
            self.samples.append(report["setup_s"])


# -- outcome accounting -------------------------------------------------------


class Outcome:
    """Operations attempted, failures by kind, and whether outputs matched."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self.correct = True

    def op(self, who: dict, kind: str | None = None, message: str = "", wrong: bool = False):
        self.attempted += 1
        if wrong:
            self.correct = False
        if kind:
            self.failures.append({"kind": kind, **who, "message": message})

    @property
    def failed(self) -> int:
        return self.attempted if not self.correct else len(self.failures)


def _exit_failure(code: str) -> str | None:
    if code == "0":
        return None
    if code == "3":
        return "exit3"
    if code == "timeout":
        return "timeout"
    if code.isdigit():
        return f"exit{code}"
    return f"exception:{code}"


# -- field-queries checks -----------------------------------------------------


def _fixed_output_ok(request: list, text: str) -> bool:
    """Independent check of a unit/poly answer that failed at the reference
    commit (there is no pinned output to compare it with)."""
    command, ell, n = request[:3]
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        obj = json.loads(text)
    except ValueError:
        return False
    finally:
        sys.set_int_max_str_digits(previous)
    if command == "unit":
        u, v = obj.get("u", 0), obj.get("v", 0)
        return obj.get("ell") == ell and u > 0 and v > 0 and u * u - ell * v * v == -4
    if command == "poly":
        c = obj.get("coefficients", [])
        if len(c) != 5 or c[:2] != [1, 0] or c[3] != 0 or c[4] != n * n * ell:
            return False
        v, rem = divmod(-c[2], n * ell)
        u2 = ell * v * v - 4
        return rem == 0 and v > 0 and isqrt(u2) ** 2 == u2
    return False


def _check_query(request: list, pinned: str, result: dict, outcome: Outcome) -> bool:
    """Check one request; return True when it was answered correctly."""
    command, ell, n, expected = request[:4]
    who = {"command": command, "ell": ell, "n": n, "expected": expected}
    code = result["exit"]
    pinned_code, pinned_digest = pinned.split(":")
    kind = _exit_failure(code)
    if code == "timeout":
        outcome.op(who, kind, result["message"])
        return False
    if code == pinned_code and result["digest"][: len(pinned_digest)] == pinned_digest:
        if expected != "valid" and code != "2":
            kind = "invalid-not-exit-2"
        elif code == "2":
            kind = None if expected != "valid" else "exit2"
        outcome.op(who, kind, result["message"])
        return kind is None
    if (code == "0" and _exit_failure(pinned_code) and expected == "valid"
            and result["text"] is not None and _fixed_output_ok(request, result["text"])):
        outcome.op(who)
        return True
    outcome.op(who, kind or "wrong-output", result["message"], wrong=True)
    return False


class QuerySet:
    """The requests every field-queries job sends, each job in its own
    seeded order.

    It is the first `requests` of the pool in the pool's own stratified
    order, so it has the pool's mix.  Every job of every run sends the same
    requests, so the latency percentiles do not hang on which requests a
    seed happened to draw.  The requests that failed at the reference commit
    are a known defect (unit/poly past Python's 4300-digit int-to-str
    limit).  They are kept out of the set, so that every timed request can
    succeed, and are sent once per run, untimed, into a separate outcome
    that the report itemises.
    """

    def __init__(self, params: dict, reference: dict):
        self.pinned = reference["queries"]["results"]
        self.pool = queries.pool(params["pool_size"])
        if queries.pool_digest(self.pool) != reference["queries"]["pool_sha256"]:
            raise BenchError("the generated request pool differs from the pinned one")
        self.failing = [i for i, r in enumerate(self.pinned) if r.split(":")[0] not in ("0", "2")]
        skip = set(self.failing)
        ordered = [i for i in queries.order(queries.POOL_SEED, self.pool) if i not in skip]
        self.requests = ordered[: params["requests"]]

    def check(self, who: dict, result: dict, outcome: Outcome) -> int:
        i = who["request"]
        answered = _check_query(self.pool[i], self.pinned[i], result, outcome)
        return int(answered and self.pool[i][3] == "valid")

    def known_defects(self, timeout_s: float, defects: Outcome) -> None:
        argvs = [queries.argv(self.pool[i]) for i in self.failing]
        report = worker(["job"], job_spec(argvs, False, timeout_s=timeout_s,
                                          keep=list(range(len(argvs)))))
        if "error" in report:
            defects.op({"command": "field-queries", "job": "known-defects"},
                       "job-error", report["error"], True)
            return
        for i, result in zip(self.failing, report["results"]):
            _check_query(self.pool[i], self.pinned[i], result, defects)


# -- jobs of a workload --------------------------------------------------------


def _commands(workload: str, params: dict, rng: random.Random,
              query_set: QuerySet | None) -> list[tuple[dict, list[str]]]:
    if workload.startswith("census"):
        argv = ["scan", "--ell", str(params["ell"]), "--n-max", str(params["n_max"]),
                "--format", "csv", "--jobs", str(params["jobs"])]
        return [({"command": "scan", "ell": params["ell"], "n_max": params["n_max"]}, argv)]
    if query_set is not None:
        requests = list(query_set.requests)
        rng.shuffle(requests)
        return [({"request": i}, queries.argv(query_set.pool[i])) for i in requests]
    ells = list(params["ells"])
    rng.shuffle(ells)
    return [({"command": "verify", "ell": ell, "n_max": params["n_max"]},
             ["verify", "--ell", str(ell), "--n-max", str(params["n_max"]), "--format", "json"])
            for ell in ells]


def _check_command(workload: str, who: dict, result: dict, reference: dict, outcome: Outcome) -> int:
    """Check one command's output; return the fields it computed."""
    if workload.startswith("census"):
        pinned = reference["census"][f"{who['ell']}:{who['n_max']}"]
        fields = result["lines"] - 1
    else:
        pinned = reference["panel"][str(who["n_max"])][str(who["ell"])]
        try:
            fields = json.loads(result["text"])["fields_checked"]
        except (TypeError, ValueError, KeyError):
            fields = 0
    kind = _exit_failure(result["exit"])
    wrong = result["sha256"] != pinned["sha256"] or fields != pinned["fields"]
    if wrong and not kind:
        kind = "wrong-output"
    outcome.op(who, kind, result["message"], wrong)
    return fields if not kind else 0


def run_jobs(workload: str, params: dict, seed: int, seconds: float, trace: bool,
             reference: dict, outcome: Outcome, setup: SetupProbe,
             query_set: QuerySet | None = None) -> dict:
    """Run jobs, each a fresh interpreter, until the next would pass the
    time and at least `min_sent` commands were sent; a traced run
    alternates untraced and traced jobs."""
    rng = random.Random(seed)
    spans_file = str(OUT / f"spans-{workload}.tsv.gz")
    extra = {"timeout_s": params["timeout_s"]} if "timeout_s" in params else {}
    jobs = []  # (traced, report, wall seconds)
    sent = 0
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if len(jobs) >= (2 if trace else 1) and sent >= params.get("min_sent", 0):
            if elapsed + statistics.median(j[2] for j in jobs) > seconds:
                break
        setup.take()
        traced = trace and len(jobs) % 2 == 1
        commands = _commands(workload, params, rng, query_set)
        argvs = [argv for _, argv in commands]
        keep = list(range(len(argvs))) if workload == "panel-verify" else []
        start = time.perf_counter()
        report = worker(["job"], job_spec(argvs, traced, keep=keep, spans_file=spans_file, **extra))
        jobs.append((traced, report, time.perf_counter() - start))
        sent += len(report.get("results", ()))
        if "error" in report:
            outcome.op({"command": workload, "job": len(jobs)}, "job-error", report["error"], True)
            break
        if query_set is not None:
            check = lambda who, result: query_set.check(who, result, outcome)
        else:
            check = lambda who, result: _check_command(workload, who, result, reference, outcome)
        report["fields"] = sum(check(who, result)
                               for (who, _), result in zip(commands, report["results"]))
    done = [(traced, r) for traced, r, _ in jobs if "error" not in r]
    plain = [r for traced, r in done if not traced]
    out = {"plain": plain, "traced": [r for traced, r in done if traced]}
    out["rates"] = [r["fields"] / sum(x["ref_seconds"] for x in r["results"]) for r in plain]
    out["latencies"] = [x["ref_seconds"] for r in plain for x in r["results"]]
    out["rss"] = [r["peak_rss_mb"] for r in plain]
    if trace and out["traced"] and plain:
        job_s = lambda r: sum(x["ref_seconds"] for x in r["results"])
        out["overhead"] = (statistics.median(map(job_s, out["traced"]))
                           / statistics.median(map(job_s, plain)))
    return out


# -- metrics ------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; the maximum when len(values) < 1/(1-q)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setup: list[float], data: dict) -> dict:
    if not data["plain"]:
        return {}
    return {
        "setup_s": statistics.median(setup),
        "fields_per_s": statistics.median(data["rates"]),
        "query_p50_ms": 1000 * statistics.median(data["latencies"]),
        "query_p99_ms": 1000 * percentile(data["latencies"], 0.99),
        "peak_rss_mb": statistics.median(data["rss"]),
    }


def layer_table(data: dict) -> dict:
    """Per-layer metrics over the traced jobs, per operation (command)."""
    from spans import merge

    traced = data["traced"]
    if not traced:
        return {}
    total = {"layers": {}, "counts": {}, "rejects": {}, "cache": {}}
    ops = output_bytes = chunks = result_bytes = pool_overhead = 0
    for report in traced:
        trace = report["trace"]
        merge(total, trace)
        ops += len(report["results"])
        output_bytes += sum(x["bytes"] for x in report["results"])
        pool = trace["pool"]
        chunks += pool["chunks"]
        result_bytes += pool["result_bytes"]
        if pool["busy_s"]:
            scan_s = trace["layers"].get("cli.scan_rows", [0, 0.0])[1]
            pool_overhead += scan_s - max(pool["busy_s"].values())
    ops = max(ops, 1)
    layers, counts = total["layers"], total["counts"]
    row = lambda name: layers.get(name, [0, 0.0, 0.0, 0])
    n_values = row("quartic.validate")[0]
    fields = n_values - row("quartic.validate")[3]
    per_n = lambda x: x / n_values if n_values else 0.0
    per_field = lambda x: x / fields if fields else 0.0
    self_s = lambda *names: sum(row(name)[2] for name in names) / ops
    total_s = lambda *names: sum(row(name)[1] for name in names) / ops
    hits = sum(h for h, _ in total["cache"].values())
    lookups = hits + sum(m for _, m in total["cache"].values())
    table = {
        "ntheory.factorize_calls_per_n": per_n(row("ntheory.factorize")[0]),
        "ntheory.factorize_self_s": self_s("ntheory.factorize"),
        "ntheory.quartic_symbol_calls_per_field": per_field(counts.get("ntheory.quartic_symbol", 0)),
        "ntheory.is_prime_calls_per_field": per_field(counts.get("ntheory.is_prime", 0)),
        "ntheory.legendre_calls_per_field": per_field(counts.get("ntheory.legendre", 0)),
        "quad.splitting_type_calls_per_field": per_field(counts.get("quad.splitting_type", 0)),
        "quad.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "quad.fundamental_unit_self_s": self_s("quad.fundamental_unit"),
        "quartic.validate_self_s": self_s("quartic.validate", "quartic.validate_ell"),
        **{f"quartic.rejects_{name}": total["rejects"].get(name, 0) / ops for name in REJECTS},
        "quartic.conductor_self_s": self_s("quartic.conductor"),
        "quartic.defining_polynomial_self_s": self_s("quartic.defining_polynomial"),
        "rank.n_shape_calls_per_field": per_field(row("rank.n_shape")[0]),
        "rank.ram_profile_calls_per_field": per_field(counts.get("rank.ram_profile", 0)),
        "rank.n_shape_self_s": self_s("rank.n_shape"),
        "rank.character_table_self_s": self_s("rank.character_table"),
        "rank.rank_closed_self_s": self_s("rank.rank_closed"),
        "rank.rank_unified_self_s": self_s("rank.rank_unified"),
        "classify.classify_small_rank_self_s": self_s("classify.classify_small_rank"),
        "cli.parse_s": total_s("cli.parse"),
        "cli.scan_rows_s": total_s("cli.scan_rows"),
        "cli.emit_s": self_s("cli._emit_table_rows") + total_s("cli.json_dumps"),
        "cli.output_bytes": output_bytes / ops,
        "cli.pool_chunks": chunks / ops,
        "cli.pool_result_bytes": result_bytes / ops,
        "cli.pool_overhead_s": pool_overhead / ops,
        "cli.verify_s": total_s("cli.cmd_verify"),
        "bench.trace_overhead_ratio": data.get("overhead", 0.0),
    }
    raw = {"ops": ops, "n_values": n_values, "fields": fields,
           "factorize_calls": row("ntheory.factorize")[0], "layers": layers,
           "counts": counts, "rejects": total["rejects"], "cache": total["cache"]}
    return {"metrics": table, "raw": raw}


# -- provenance and the run ---------------------------------------------------


def provenance(workload: str, seed: int, seconds: float, trace: bool, params: dict) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "qtr").glob("*.py")))
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "params": params, "src_qtr_lines": lines}


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool,
        params: dict | None = None, reference: dict | None = None) -> dict:
    """Run one workload; return the full report (result line under 'result')."""
    if not (SRC / "qtr" / "cli.py").is_file():
        raise BenchError(f"no qtr sources under {SRC}")
    if not REFERENCE.is_file() and reference is None:
        raise BenchError(f"missing {REFERENCE}")
    params = dict(WORKLOADS[workload], **(params or {}))
    reference = reference or load_reference()
    setup_ells = ([params["ell"]] if "ell" in params else list(params.get("ells", [])))
    setup = SetupProbe(setup_ells)
    outcome, defects = Outcome(), Outcome()
    query_set = QuerySet(params, reference) if workload == "field-queries" else None
    data = run_jobs(workload, params, seed, seconds, trace, reference, outcome, setup, query_set)
    if query_set is not None:
        query_set.known_defects(params["timeout_s"], defects)
    setup.take(SETUP_PROBES)
    e2e = end_to_end(setup.samples, data)
    layers = layer_table(data) if trace else {}
    if trace:
        wanted = {name: (layers.get("metrics", {}).get(name, 0.0), unit)
                  for name, unit in PER_LAYER.items()}
    else:
        wanted = {name: (e2e.get(name, 0.0), unit) for name, unit in END_TO_END.items()}
    result = {
        "correct": outcome.correct and defects.correct and bool(data["plain"]),
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in wanted.items()},
    }
    return {
        "provenance": provenance(workload, seed, seconds, trace, params),
        "result": result,
        "error_rate": result["failed"] / result["attempted"],
        "failures": outcome.failures,
        "known_defects": {"attempted": defects.attempted, "failures": defects.failures},
        "end_to_end": e2e,
        "samples": {"setup_s": setup.samples, "fields_per_s": data["rates"],
                    "latency_s": data["latencies"], "peak_rss_mb": data["rss"]},
        "layers": layers,
    }


def _print_report(report: dict, path: Path) -> None:
    res = report["result"]
    prov = report["provenance"]
    print(f"{prov['workload']} seed={prov['seed']} trace={prov['trace']} sha={prov['git_sha'][:12]} "
          f"python={prov['python']} nproc={prov['nproc']} src_qtr_lines={prov['src_qtr_lines']}")
    print(f"  correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
          f"error_rate={report['error_rate']:.6f} ratio")
    for label, failures in (("failures", report["failures"]),
                            ("known defects", report["known_defects"]["failures"])):
        kinds: dict[str, int] = {}
        for failure in failures:
            kinds[failure["kind"]] = kinds.get(failure["kind"], 0) + 1
        for kind, count in sorted(kinds.items()):
            print(f"  {label} {kind}: {count}")
    known = report["known_defects"]
    if known["attempted"]:
        print(f"  known defects: {len(known['failures'])} of {known['attempted']} requests "
              f"that failed at the reference commit still fail (untimed, not in attempted)")
    units = dict(END_TO_END, **PER_LAYER, **LAYER_TABLE_ONLY)
    shown = report["end_to_end"] if not prov["trace"] else report["layers"].get("metrics", {})
    for name, value in shown.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(f"  report: {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    _print_report(report, path)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
