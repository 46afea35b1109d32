"""Runs one workload's passes in this fresh process and reports timings.

Reads a JSON spec on stdin and writes one JSON object on stdout; run.py
starts it, so that peak RSS belongs to the passes alone.  Every instance
calls rsperm.cli.main in-process with its stdout captured, one at a time
(closed loop, one client, one thread).

Spec keys: src, argvs, seconds, trace, and when trace is set: seed,
backtrack ([q, point literals, k] per instance) and spans_path.

Each instance gets two times: "wall", its wall time less the host speed
probes, and "times", the same at nominal host speed (hostspeed.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import operator
import random
import resource
import statistics
import sys
import time

from hostspeed import HostSpeed
from spans import Tracer, aggregate


def run_instance(cli, argv: list[str]) -> tuple[float, float, int | None, str]:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejecting an argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed instance, not a dead run
        print(f"runner: {argv[0]} crashed: {exc!r}", file=sys.stderr)
        code = None
    return start, time.perf_counter(), code, out.getvalue()


def run_pass(cli, argvs, keep_outputs: bool) -> dict:
    windows, codes, hashes, outputs = [], [], [], []
    for argv in argvs:
        start, end, code, out = run_instance(cli, argv)
        windows.append((start, end))
        codes.append(code)
        hashes.append(hashlib.sha256(out.encode()).hexdigest())
        if keep_outputs:
            outputs.append(out)
    return {"windows": windows, "codes": codes, "hashes": hashes, "outputs": outputs}


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_passes(cli, argvs, seconds: float, tracer: Tracer | None) -> list[dict]:
    """Whole rounds while another would end within half a round of
    `seconds`, so a run lasts `seconds` give or take half a round.

    A round is one pass, or with a tracer an untraced pass followed by a
    traced one, which keeps its spans.
    """
    passes = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        p = run_pass(cli, argvs, keep_outputs=not passes)
        p["traced"] = False
        p["peak_rss_kb"] = peak_rss_kb()
        passes.append(p)
        if tracer is not None:
            tracer.spans = []
            tracer.install()
            try:
                p = run_pass(cli, argvs, keep_outputs=False)
            finally:
                tracer.remove()
            p["traced"] = True
            p["spans"] = tracer.spans
            passes.append(p)
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 > seconds:
            return passes


def _per_op_ns(speed: HostSpeed, op, pairs, min_block_s=0.05, blocks=3) -> float:
    """Median over blocks of nominal-speed time per call, loop overhead included."""
    per_op = []
    for _ in range(blocks):
        reps = 0
        start = time.perf_counter()
        while True:
            for a, b in pairs:
                op(a, b)
            reps += 1
            end = time.perf_counter()
            if end - start >= min_block_s:
                break
        per_op.append(speed.measure(start, end)[1] / (reps * len(pairs)))
    return statistics.median(per_op) * 1e9


def field_probes(speed: HostSpeed, seed: int) -> dict[str, float]:
    from rsperm import Field

    rng = random.Random(f"gf-probe:{seed}")
    out = {}
    for q in (13, 256, 65536):
        field = Field(q)
        pairs = [(field.from_index(rng.randrange(1, q)), field.from_index(rng.randrange(1, q)))
                 for _ in range(64)]
        out[f"gf.mul_ns.q{q}"] = _per_op_ns(speed, operator.mul, pairs)
        out[f"gf.add_ns.q{q}"] = _per_op_ns(speed, operator.add, pairs)
        out[f"gf.inv_ns.q{q}"] = _per_op_ns(speed, lambda a, _: a.inverse(), pairs)
    return out


def backtrack_seconds(speed: HostSpeed, instances) -> float:
    from rsperm import EvaluationSet, Field, exhaustive_permutations, rs_code

    total = 0.0
    for q, literals, k in instances:
        field = Field(q)
        code = rs_code(EvaluationSet(field, [field.parse(s) for s in literals]), k)
        start = time.perf_counter()
        exhaustive_permutations(code, method="backtrack")
        total += speed.measure(start, time.perf_counter())[1]
    return total


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    import rsperm.cli as cli

    tracer = Tracer() if spec["trace"] else None
    result = {}
    with HostSpeed() as speed:
        passes = run_passes(cli, spec["argvs"], spec["seconds"], tracer)
        if tracer is not None:
            result["probes"] = field_probes(speed, spec["seed"])
            result["probes"]["permgroup.backtrack_s"] = backtrack_seconds(
                speed, spec["backtrack"])
    for p in passes:
        measured = [speed.measure(s, e) for s, e in p.pop("windows")]
        p["wall"] = [w for w, _ in measured]
        p["times"] = [t for _, t in measured]
        if p["traced"]:
            spans = p.pop("spans")
            roots = [i for i, span in enumerate(spans) if span[3] < 0]
            scale = {i: t / (spans[i][2] - spans[i][1]) for i, t in zip(roots, p["times"])}
            p["layers"] = aggregate(spans, scale)
            with open(spec["spans_path"], "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "root",
                                      "work", "accepted"], "spans": spans}, fh)
    result["passes"] = passes
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
