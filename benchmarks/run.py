"""rsperm benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload sweep --seed 42 --seconds 24 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a traced run.  The last stdout line is the result object; the line
before it holds the environment, the output digest and other details.
See benchmarks/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import SPAN_NAMES

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = (4, 5)  # fresh interpreters before and after the passes
RUNNER_TIMEOUT_S = 150

# Share of cli.main time each workload claims to spend in these spans.
STRESS = {
    "scan-n10": (("permgroup.exhaustive_permutations",), 0.90),
    "boundary-sym": (("poly.interpolate",), 0.75),
    "bigfield": (("gf.Field.tables", "permgroup.affine_group"), 0.80),
}

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from hostspeed import scale, timed_probe
before = [timed_probe() for _ in range(10)]
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from rsperm import Field
for q in sys.argv[3:]:
    Field(int(q))
wall = time.perf_counter() - start
after = [timed_probe() for _ in range(10)]
print(wall, wall * scale(before + after))
"""


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def measure_setup(fields) -> tuple[float, float]:
    """(wall, nominal-speed) seconds for a fresh interpreter to import
    rsperm and construct the fields."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(HERE), str(SRC), *map(str, fields)],
        capture_output=True, text=True, timeout=30, check=True,
    )
    wall, nominal = proc.stdout.split()
    return float(wall), float(nominal)


def run_runner(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "runner.py")],
        input=json.dumps(spec), capture_output=True, text=True,
        timeout=RUNNER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"runner exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def instance_times(passes: list[dict], key: str = "times") -> list[float]:
    """Per instance, the median of its repeats across the given passes."""
    return [statistics.median(ts) for ts in zip(*(p[key] for p in passes))]


def _check(instance, code, out) -> str | None:
    try:
        return instance.check(code, out)
    except (KeyError, IndexError, TypeError) as exc:  # output of the wrong shape
        return f"unexpected output: {exc!r}"


def check_outputs(instances, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every instance run in every pass.

    The first pass's outputs go through each instance's oracle; a later
    run fails when its exit code or output differs from the first.
    """
    first = passes[0]
    reasons = [_check(inst, code, out) for inst, code, out
               in zip(instances, first["codes"], first["outputs"])]
    attempted = failed = 0
    for p in passes:
        for i, reason in enumerate(reasons):
            attempted += 1
            if reason or p["codes"][i] != first["codes"][i] or p["hashes"][i] != first["hashes"][i]:
                failed += 1
    return attempted, failed, [f"{instances[i].argv[0]} #{i}: {r}"
                               for i, r in enumerate(reasons) if r]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(times, setups, peak_rss_kb) -> dict:
    return {
        "instances_per_s": metric(len(times) / sum(times), "1/s"),
        "latency_p50_s": metric(statistics.median(times), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_kb / 1024, "MB"),
    }


def per_layer(untraced, traced, probes) -> tuple[dict, dict]:
    """Per-layer metrics (per traced pass) and the summed span totals."""
    totals = {name: {} for name in SPAN_NAMES}
    for p in traced:
        for name, agg in p["layers"].items():
            for key, value in agg.items():
                totals[name][key] = totals[name].get(key, 0) + value
    m = {}
    for name in SPAN_NAMES:
        t = totals[name]
        m[f"{name}.calls"] = metric(t["calls"] / len(traced), "count")
        # check_theorem is not on the path of `group`, so its times would
        # read 0 there; its subtree is brute_force_perm_group's.
        if name != "permgroup.check_theorem":
            m[f"{name}.total_s"] = metric(t["total_s"] / len(traced), "s")
            m[f"{name}.self_s"] = metric(t["self_s"] / len(traced), "s")
    scan = totals["permgroup.exhaustive_permutations"]
    affine = totals["permgroup.affine_group"]
    interp = totals["poly.interpolate"]
    # Scan time is exhaustive_permutations' self time: the lazy field
    # tables it triggers are a child span.
    m["permgroup.scan_perms_per_s"] = metric(scan["work"] / scan["self_s"], "1/s")
    m["permgroup.scan_accept_ratio"] = metric(scan["accepted"] / scan["work"], "ratio")
    m["poly.interpolations_per_s"] = metric(interp["calls"] / interp["total_s"], "1/s")
    m["permgroup.affine_candidates_per_s"] = metric(
        affine["work"] / affine["total_s"], "1/s")
    m["trace_overhead_frac"] = metric(
        sum(instance_times(traced)) / sum(instance_times(untraced)) - 1, "ratio")
    for name, value in probes.items():
        m[name] = metric(value, "s" if name.endswith("_s") else "ns")
    return m, totals


def stress_check(workload: str, totals: dict) -> dict | None:
    if workload not in STRESS:
        return None
    spans, threshold = STRESS[workload]
    share = sum(totals[s]["total_s"] for s in spans) / totals["cli.main"]["total_s"]
    return {"spans": list(spans), "share_of_cli_main": share,
            "threshold": threshold, "ok": share >= threshold}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "rsperm" / "__init__.py").is_file():
        print(f"run.py: rsperm sources not found under {SRC}", file=sys.stderr)
        return 2

    instances = workloads.BUILDERS[args.workload](args.seed)
    spec = {"src": str(SRC), "argvs": [list(i.argv) for i in instances],
            "seconds": args.seconds, "trace": bool(args.trace)}
    fields = workloads.FIELDS[args.workload]
    setups = []
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spec.update(
            seed=args.seed,
            backtrack=workloads.scan_n10_inputs(args.seed),
            spans_path=str(out_dir / f"spans-{args.workload}-seed{args.seed}.json"),
        )
    else:
        setups += [measure_setup(fields) for _ in range(SETUP_REPEATS[0])]
    started = time.perf_counter()
    result = run_runner(spec)
    wall_s = time.perf_counter() - started
    if not args.trace:
        setups += [measure_setup(fields) for _ in range(SETUP_REPEATS[1])]

    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted, failed, reasons = check_outputs(instances, passes)
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "output_sha256": hashlib.sha256(
            "".join(passes[0]["outputs"]).encode()).hexdigest(),
        "failed_frac": failed / attempted,
        "failures": reasons[:5],
        "instances_per_pass": len(instances),
        "passes": len(passes),
        "runner_wall_s": wall_s,
    }
    if args.trace:
        metrics, totals = per_layer(untraced, traced, result["probes"])
        details["stress"] = stress_check(args.workload, totals)
    else:
        times = instance_times(untraced)
        # Peak RSS after the first pass, so it does not depend on how many
        # passes fit in the run.
        metrics = end_to_end(times, [n for _, n in setups], passes[0]["peak_rss_kb"])
        # The same figures from uncorrected wall times, for reference.
        wall = instance_times(untraced, "wall")
        details["wall"] = {
            "instances_per_s": len(wall) / sum(wall),
            "latency_p50_s": statistics.median(wall),
            "setup_s": statistics.median(w for w, _ in setups),
        }
        if args.workload == "sweep":
            # Only the sweep has enough instances for a tail: 280 per pass.
            details["latency_p90_s"] = statistics.quantiles(times, n=10)[-1]
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
