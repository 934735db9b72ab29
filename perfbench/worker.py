"""One benchmark job in a fresh interpreter.

    python3 worker.py setup ELL...   time `import qtr.cli` plus validate_ell
    python3 worker.py job            run the job whose JSON spec is on stdin

Prints one JSON report on stdout.  The program's own output is captured per
command and returned as a digest.  Every time is given both as measured
(`seconds`) and in reference seconds (`ref_seconds`, see speed.py).  Only
time, sys and speed.py's small imports are loaded before the setup probe
imports qtr.cli, so that the probe pays for every module the program needs.
"""

import sys
import time

import speed


def setup_probe(ells: list[int]) -> dict:
    """Time the import and set-up, with the CPU's speed probed just before
    and just after."""
    before = speed.calibrate()
    start = time.perf_counter()
    import qtr.cli  # noqa: F401
    from qtr.quartic import validate_ell

    for ell in ells:
        validate_ell(ell)
    seconds = time.perf_counter() - start
    after = speed.calibrate()
    ref = seconds * speed.factor([d for _, d in before + after])
    return {"setup_s": ref, "setup_wall_s": seconds}


class QueryTimeout(BaseException):
    """Raised by SIGALRM when one request runs past its limit."""


def _call(main, argv: list[str], timeout_s: float | None):
    """Run main(argv) with stdout and stderr captured.

    Returns (exit class, stdout text, seconds, message): the exit class is the
    return code, the name of an uncaught exception, or 'timeout'.
    """
    import io
    import signal
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    message = ""
    if timeout_s:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = str(main(argv))
    except QueryTimeout:
        code, message = "timeout", f"no result after {timeout_s} s"
    except Exception as exc:  # an uncaught error is a result to report
        code, message = type(exc).__name__, str(exc)[:300]
    finally:
        seconds = time.perf_counter() - start
        if timeout_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
    if not message and code not in ("0", "2"):
        message = err.getvalue()[-300:]
    return code, out.getvalue(), seconds, message


def run_job(spec: dict) -> dict:
    import hashlib
    import os
    import resource
    import signal

    import qtr.cli

    if not os.path.realpath(qtr.cli.__file__).startswith(os.path.realpath(spec["src"])):
        raise SystemExit(f"qtr imported from {qtr.cli.__file__}, not {spec['src']}")
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.install(spec["chunk_file"])

    def on_alarm(signum, frame):
        raise QueryTimeout

    signal.signal(signal.SIGALRM, on_alarm)
    deadline = spec.get("seconds")
    keep = set(spec.get("keep", ()))
    results, intervals = [], []
    meter = speed.Meter(spec["speed_file"])
    calibration = speed.calibrate()
    meter.start()
    begin = time.perf_counter()
    for index, argv in enumerate(spec["argvs"]):
        if deadline is not None and time.perf_counter() - begin >= deadline:
            break
        if tracer:
            tracer.request += 1
        start = time.perf_counter()
        code, text, seconds, message = _call(qtr.cli.main, argv, spec.get("timeout_s"))
        intervals.append((start, start + seconds))
        data = text.encode()
        results.append({
            "exit": code,
            "seconds": seconds,
            "bytes": len(data),
            "lines": text.count("\n"),
            "digest": hashlib.sha256(code.encode() + b"\n" + data).hexdigest(),
            "sha256": hashlib.sha256(data).hexdigest(),
            "text": text if index in keep else None,
            "message": message,
        })
    samples = sorted(calibration + meter.stop() + speed.calibrate())
    for result, (start, end) in zip(results, intervals):
        result["ref_seconds"] = speed.reference_seconds(samples, start, end)
    wall = sum(x["seconds"] for x in results)
    ratio = sum(x["ref_seconds"] for x in results) / wall if wall else 1.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {"results": results, "peak_rss_mb": max(own, children) / 1024,
              "speed": {"samples": len(samples), "ref_per_wall": ratio,
                        "probe_median_s": sorted(d for _, d in samples)[len(samples) // 2]}}
    if tracer:
        summary = tracer.summary()
        spans.merge_chunks(summary, spec["chunk_file"])
        tracer.write_spans(spec["spans_file"])
        # Layer times in reference seconds, at the job's mean correction.
        for row in summary["layers"].values():
            row[1] *= ratio
            row[2] *= ratio
        report["trace"] = summary
    return report


def main() -> None:
    # json is imported only after the setup probe, which must pay for it.
    probe = setup_probe([int(x) for x in sys.argv[2:]]) if sys.argv[1] == "setup" else None
    import json

    report = probe or run_job(json.loads(sys.stdin.read()))
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
