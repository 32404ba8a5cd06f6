"""Benchmark of ellreg: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  Inputs are generated from --seed (gen.py).  Every run is serial:
each benchmark process is a fresh single-threaded interpreter started one
after another by this script (worker.py), and the outputs are checked
after it has ended (checks.py).  This script generates every round
(gen.Generator) when the benchmark process asks for it, while that process
waits with its clock stopped.

--trace 0 prints the end-to-end metrics.  The host's speed drifts by tens
of percent within minutes, so times are adjusted to a reference host speed
with a fixed probe timed between pieces of work (worker.Meter):
  setup_s       median over SETUP_RUNS fresh processes and the timed one of
                the time from process start through importing ellreg and
                ingesting the first round, adjusted by probes right after it
  items_per_s   items completed per adjusted second of the timed phase
  item_tail_ms  adjusted per-item latency at the workload's TAIL_PERCENTILE
  peak_rss_mb   peak resident memory of the timed process after RSS_ROUNDS
                rounds (a fixed amount of work, whatever the speed: the
                timed process runs at least that many rounds)
The unadjusted figures go to stderr.

--trace 1 runs TRACE_ROUNDS rounds untraced, then the same rounds in a
second process with every public function of the traced modules wrapped
(spans.py), and prints the per-layer metrics: calls per item and summed
self time.  Report bytes of the two runs must be identical.

The last line of stdout is one JSON object with correct, attempted,
failed and metrics.  See README.md for what each metric should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("catalog", "high_rank", "tall_points")
SETUP_RUNS = 8
TAIL_PERCENTILE = {"catalog": 98, "high_rank": 80, "tall_points": 90}
TRACE_ROUNDS = {"catalog": 4, "high_rank": 2, "tall_points": 2}
RSS_ROUNDS = {"catalog": 16, "high_rank": 6, "tall_points": 5}
WORKER_TIMEOUT = 170

# per-layer metrics: (name, traced functions, kind); kind is "calls" (per
# item) or "s" (summed self time)
LAYER_METRICS = (
    ("weierstrass.s", "weierstrass.", "s"),
    ("weierstrass.minimal_model_calls", "weierstrass.minimal_model", "calls"),
    ("primes.factorize_calls", "primes.factorize", "calls"),
    ("heights.torsion_subgroup_s", "heights.torsion_subgroup", "s"),
    ("heights.canonical_height_s", "heights.canonical_height", "s"),
    ("heights.canonical_height_calls", "heights.canonical_height", "calls"),
    ("heights.gram_matrix_s", "heights.gram_matrix", "s"),
    ("points.add_calls", "points.add", "calls"),
    ("points.add_s", "points.add", "s"),
    ("lattice.s", "lattice.", "s"),
    ("lattice.lll_reduce_calls", "lattice.lll_reduce", "calls"),
    ("lattice.count_below_calls", "lattice.count_below", "calls"),
    ("lattice.successive_minima_s", "lattice.successive_minima", "s"),
    ("certificates.self_s", "certificates.", "s"),
    ("harness.ingest_s", "harness.ingest", "s"),
    ("harness.report_to_dict_s", "harness.report_to_dict", "s"),
    ("harness.render_entries_s", "harness.render_entries", "s"),
)


def _worker(args, out, generator, mode, **extra):
    """Run one benchmark process to its end, writing the rounds it asks for."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--mode", mode]
    for key, value in extra.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    last = ""
    with open(out / "worker.err", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True, env=env)
        watchdog = threading.Timer(WORKER_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.startswith("next "):
                    generator.write(out, int(line.split()[1]))
                    proc.stdin.write("ok\n")
                    proc.stdin.flush()
                else:
                    last = line
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read())
            raise SystemExit(f"benchmark process failed ({mode}) with status {proc.returncode}")
    result = json.loads(last)
    result["setup_raw_s"] = result["setup_end"] - start
    result["setup_s"] = result["setup_raw_s"] * result["setup_factor"]
    return result


def _check(args, out, rounds, ellreg, gen):
    from checks import Checker

    checker = Checker(ellreg)
    curves = {label: (ainvs, gens) for label, ainvs, gens in gen.TALL_CURVES}
    for r in range(rounds):
        with open(out / f"in-{r}.jsonl", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        meta = json.loads((out / f"meta-{r}.json").read_text(encoding="utf-8"))
        doc = (out / f"doc-{r}.json").read_text(encoding="utf-8")
        if args.workload == "tall_points":
            checker.tall(records, meta, doc, curves)
        else:
            checker.reports(records, meta, doc)
    for problem in checker.problems[:20]:
        print("CHECK FAILED:", problem, file=sys.stderr)
    return checker.summary()


def _end_to_end(args, out, generator):
    from checks import tail_percentile

    setups = [_worker(args, out, generator, "setup") for _ in range(SETUP_RUNS)]
    run = _worker(args, out, generator, "timed", seconds=args.seconds, rss_rounds=RSS_ROUNDS[args.workload])
    setups.append(run)
    if run["peak_rss_mb"] is None:
        raise SystemExit("the timed process ended before its fixed amount of work for peak memory")
    pct = TAIL_PERCENTILE[args.workload]
    items = len(run["latencies"])
    metrics = {
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
        "items_per_s": {"value": items / run["adjusted_s"], "unit": "1/s"},
        "item_tail_ms": {"value": 1000.0 * tail_percentile(run["adjusted_latencies"], pct), "unit": "ms"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }
    raw = {
        "setup_s": statistics.median(s["setup_raw_s"] for s in setups),
        "items_per_s": items / run["timed_s"],
        "item_tail_ms": 1000.0 * tail_percentile(run["latencies"], pct),
        "probe_ms": 1000.0 * statistics.median(run["probes"]),
    }
    print("unadjusted:", json.dumps(raw), file=sys.stderr)
    return run, metrics, True


def _per_layer(args, out, generator):
    rounds = TRACE_ROUNDS[args.workload]
    plain = _worker(args, out, generator, "fixed", rounds=rounds)
    traced = _worker(args, out, generator, "fixed", rounds=rounds, trace=1)
    same_bytes = plain["digest"] == traced["digest"]
    if not same_bytes:
        print("CHECK FAILED: report bytes differ between the traced and the untraced run", file=sys.stderr)
    summary = traced["trace"]
    items = len(traced["latencies"])
    metrics = {}
    for name, prefix, kind in LAYER_METRICS:
        picked = [rec for fn, rec in summary.items() if fn == prefix or (prefix.endswith(".") and fn.startswith(prefix))]
        if kind == "calls":
            metrics[name] = {"value": sum(rec[0] for rec in picked) / items, "unit": "count"}
        else:
            metrics[name] = {"value": sum(rec[2] for rec in picked), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced["adjusted_s"] - plain["adjusted_s"], "unit": "s"}
    return traced, metrics, same_bytes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ellreg" / "__init__.py").is_file():
        raise SystemExit(f"no ellreg sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import ellreg
    import gen

    out = HERE / "out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    generator = gen.Generator(args.workload, args.seed)
    generator.write(out, 0)

    run, metrics, same_bytes = (_per_layer if args.trace else _end_to_end)(args, out, generator)
    correct, attempted, failed = _check(args, out, run["rounds"], ellreg, gen)
    correct = correct and same_bytes and attempted == len(run["latencies"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
