"""Pin the outputs every benchmark run is checked against.

    python3 perfbench/make_reference.py

Run it only at the commit whose outputs are the reference: it writes
perfbench/reference.json from what the program in src/ prints now.  It pins
  * the sha256 of the census CSV (ell 37, n <= 30000, and n <= 3000 for the
    smoke test) and its number of rows;
  * the sha256 of each panel ell's verify JSON and its fields_checked;
  * the exit class and output digest of every request in the query pool.
"""

import json
import sys

import queries
import run


def _one(argv: list[str], timeout: float = 600, **extra) -> dict:
    report = run.worker(["job"], run.job_spec([argv], False, keep=[0], **extra), timeout=timeout)
    if "error" in report:
        sys.exit(f"{' '.join(argv)}: {report['error']}")
    return report["results"][0]


def main() -> None:
    census = {}
    for n_max in (30000, 3000):
        result = _one(["scan", "--ell", "37", "--n-max", str(n_max), "--format", "csv", "--jobs", "1"])
        assert result["exit"] == "0", result
        census[f"37:{n_max}"] = {"sha256": result["sha256"], "fields": result["lines"] - 1}
    panel = {}
    for ell in run.PANEL_ELLS:
        result = _one(["verify", "--ell", str(ell), "--n-max", "3000", "--format", "json"])
        summary = json.loads(result["text"])
        assert result["exit"] == "0" and not summary["failures"], result
        panel[str(ell)] = {"sha256": result["sha256"], "fields": summary["fields_checked"]}
    pool = queries.pool()
    spec = run.job_spec([queries.argv(r) for r in pool], False, timeout_s=30.0)
    report = run.worker(["job"], spec, timeout=3600)
    if "error" in report:
        sys.exit(report["error"])
    results = [f"{r['exit']}:{r['digest'][:16]}" for r in report["results"]]
    reference = {
        "census": census,
        "panel": {"3000": panel},
        "queries": {"pool_seed": queries.POOL_SEED, "pool_size": len(pool),
                    "pool_sha256": queries.pool_digest(pool), "results": results},
    }
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=0)
        fh.write("\n")
    print(f"census {census}\npanel fields {sum(p['fields'] for p in panel.values())}\n"
          f"queries {len(results)} requests, exit classes "
          f"{sorted(set(r.split(':')[0] for r in results))}")


if __name__ == "__main__":
    main()
