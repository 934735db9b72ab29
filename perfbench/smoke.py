"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit on
every workload, that a corrupted reference digest makes a run report failure,
that the known defects are itemised apart from the timed requests, that the
traced census sees every factorize call, that the speed correction is exact
at the reference speed, and that the benchmark refuses to run where there is
no program to measure.
"""

import copy
import io
import json
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout

import run
import speed

TINY = {
    "census": {"n_max": 3000},
    "census-j2": {"n_max": 3000},
    "panel-verify": {"ells": [5, 13]},
    "field-queries": {"requests": 40, "min_sent": 0},
}
SECONDS = 1


def _spec() -> dict:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class Smoke(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        spec = _spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_every_metric_printed_with_its_unit(self):
        spec = _spec()
        saved = copy.deepcopy(run.WORKLOADS)
        try:
            for workload, tiny in TINY.items():
                run.WORKLOADS[workload].update(tiny)
                for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                    with self.subTest(workload=workload, trace=trace):
                        out = io.StringIO()
                        with redirect_stdout(out):
                            code = run.main(["--workload", workload, "--seed", "7",
                                             "--seconds", str(SECONDS), "--trace", str(trace)])
                        self.assertEqual(code, 0)
                        result = json.loads(out.getvalue().splitlines()[-1])
                        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                        self.assertTrue(result["correct"])
                        self.assertGreaterEqual(result["attempted"], 1)
                        printed = {k: v["unit"] for k, v in result["metrics"].items()}
                        self.assertEqual(printed, {m["name"]: m["unit"] for m in listed})
                        for name, metric in result["metrics"].items():
                            self.assertIsInstance(metric["value"], (int, float), name)
        finally:
            run.WORKLOADS.clear()
            run.WORKLOADS.update(saved)

    def test_corrupted_census_digest_fails_the_run(self):
        reference = run.load_reference()
        reference["census"]["37:3000"]["sha256"] = "0" * 64
        report = run.run("census", 1, SECONDS, False, TINY["census"], reference)
        result = report["result"]
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(report["failures"][0]["kind"], "wrong-output")

    def test_corrupted_query_digest_fails_the_run(self):
        reference = run.load_reference()
        params = dict(run.WORKLOADS["field-queries"], **TINY["field-queries"])
        first = run.QuerySet(params, reference).requests[0]
        code, digest = reference["queries"]["results"][first].split(":")
        reference["queries"]["results"][first] = f"{code}:{'0' * len(digest)}"
        result = run.run("field-queries", 3, SECONDS, False, TINY["field-queries"], reference)["result"]
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_known_defects_itemised_apart(self):
        # 65 pool requests raise the 4300-digit ValueError at the reference
        # commit.  None is timed; each run sends them once and lists them.
        report = run.run("field-queries", 5, SECONDS, False, TINY["field-queries"])
        self.assertTrue(report["result"]["correct"])
        self.assertEqual(report["result"]["failed"], 0)
        known = report["known_defects"]
        self.assertEqual(known["attempted"], 65)
        self.assertEqual({f["kind"] for f in known["failures"]}, {"exception:ValueError"})
        self.assertEqual({f["command"] for f in known["failures"]}, {"unit", "poly"})

    def test_speed_correction_is_exact_at_reference_speed(self):
        ref = speed.REF_PROBE_S
        samples = [(t / 10, ref) for t in range(100)]
        # 2.0 s holding 20 probes, all at the reference speed.
        self.assertAlmostEqual(speed.reference_seconds(samples, 1.05, 3.05), 2.0 - 20 * ref)
        # The same interval on a CPU half as fast is worth half as much.
        slow = [(t, 2 * d) for t, d in samples]
        self.assertAlmostEqual(speed.reference_seconds(slow, 1.05, 3.05), (2.0 - 40 * ref) / 2)

    def test_traced_census_sees_every_factorize_call(self):
        # ROADMAP baseline: scan_rows(37, 30000) factors 83,283 times for
        # 17,761 valid fields.
        report = run.run("census", 1, SECONDS, True)
        raw = report["layers"]["raw"]
        self.assertTrue(report["result"]["correct"])
        self.assertEqual(raw["factorize_calls"], 83_283 * raw["ops"])
        self.assertEqual(raw["fields"], 17_761 * raw["ops"])

    def test_refuses_to_run_without_the_program(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.HERE, bare / run.HERE.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "census",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
