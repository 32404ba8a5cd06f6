"""One benchmark process: import ellreg, ingest, then run whole rounds.

Started by run.py in a fresh interpreter, one at a time.  Modes:

  setup  import ellreg and ingest round 0, report when that was done, exit
  timed  run rounds until --seconds of timed work have been done and at
         least --rss-rounds rounds, whichever comes later
  fixed  run exactly --rounds rounds (traced or not, for the per-layer run)

The timed work of a round is its ingest (round 0 is ingested during
set-up), one piece per item, and its rendered document.  Between pieces,
once PROBE_EVERY_S of timed work has gathered and at the end of every
round, a fixed probe is timed with the clock stopped (see Meter).

The inputs are generated by run.py, not here, so this process's peak
memory is the program's and the harness's only: before each further round
this process writes "next <r>" on stdout and waits for run.py to answer
"ok" on stdin once round r is on disk.  Writing outputs also happens with
the clock stopped.  The last line of stdout is a JSON object.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402

from ellreg import errors, harness, heights, points, weierstrass  # noqa: E402

# The probe's nominal duration: adjusted times are the times the work would
# take on a host that runs the probe in exactly this long.
PROBE_REF_S = 0.02
PROBE_EVERY_S = 0.5
PROBE_WINDOW = 3


def _probe():
    """Seconds taken by a fixed piece of interpreter-bound work.

    Big-rational arithmetic, an mpmath series and a plain integer loop,
    the kinds of work the program does, so its time follows the speed the
    host gives this process at that moment.  The collector is off while it
    runs, so the size of the program's heap does not change its time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x = Fraction(3, 7)
        for k in range(1, 60):
            x = (x * x + k) / (3 * x + 1)
            x = Fraction(x.numerator % 10 ** 300, x.denominator % 10 ** 300 + 1)
        with mpmath.workprec(256):
            acc = mpmath.mpf(0)
            for k in range(1, 400):
                acc += mpmath.log(mpmath.mpf(k) / 7) / k ** 2
        s = 0
        for i in range(60000):
            s += i * i % 7
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Meter:
    """Timed work, and the same work at the probe's reference speed.

    The host's speed drifts by tens of percent over seconds and minutes.
    Work is metered in segments of about PROBE_EVERY_S, with a probe
    between each two.  Each segment's seconds and item latencies are scaled
    by PROBE_REF_S over the median of the PROBE_WINDOW probes on each side
    of it: a few seconds of host speed, so one probe caught by a short
    stall does not rescale the items of its segment alone.
    """

    def __init__(self):
        _probe()  # warm-up: the first call fills mpmath's caches
        self.probes = [_probe()]
        self.segments = []
        self.raw_s = 0.0
        self._seg_s = 0.0
        self._seg_items = []

    def add(self, seconds, item=False):
        self._seg_s += seconds
        self.raw_s += seconds
        if item:
            self._seg_items.append(seconds)

    def segment_end(self, force=False):
        if self._seg_s < PROBE_EVERY_S and not (force and self._seg_s > 0):
            return
        self.probes.append(_probe())
        self.segments.append((self._seg_s, self._seg_items))
        self._seg_s = 0.0
        self._seg_items = []

    def adjusted(self):
        """(adjusted seconds, raw latencies, adjusted latencies)."""
        adjusted_s, latencies, adjusted_latencies = 0.0, [], []
        for i, (seconds, items) in enumerate(self.segments):
            window = self.probes[max(0, i + 1 - PROBE_WINDOW): i + 1 + PROBE_WINDOW]
            factor = PROBE_REF_S / statistics.median(window)
            adjusted_s += seconds * factor
            latencies += items
            adjusted_latencies += [t * factor for t in items]
        return adjusted_s, latencies, adjusted_latencies


def _analyze_item(rec):
    try:
        return harness.report_to_dict(harness.analyze(rec))
    except errors.EllregError as exc:
        return {"label": rec.label, "error": {"type": type(exc).__name__, "message": str(exc)}}
    except ValueError as exc:
        # gram_matrix rejects a torsion generator with a bare ValueError;
        # run.py counts those rows as failed
        return {"label": rec.label, "error": {"type": "ValueError", "message": str(exc)}}


def _timed(meter, item, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    meter.add(time.perf_counter() - t0, item)
    if item:
        meter.segment_end()
    return out


def _run_reports(records, call, meter):
    entries = [_timed(meter, True, call, _analyze_item, rec) for rec in records]
    return _timed(meter, False, harness.render_entries, entries)


def _run_heights(records, call, meter):
    results = []
    for rec in records:
        c = _timed(meter, False, weierstrass.curve, rec.ainvs)
        hs = []
        for x, y in rec.gens:
            pt = _timed(meter, False, points.point, x, y)
            hv = _timed(meter, True, call, heights.canonical_height, c, pt)
            hs.append([hv.value, hv.err])
        results.append({"label": rec.label, "heights": hs})
    return json.dumps(results, sort_keys=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--rss-rounds", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    out = Path(args.out)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    records = harness.ingest(str(out / "in-0.jsonl"))
    setup_end = time.perf_counter()
    if args.mode == "setup":
        _probe()
        probe = statistics.median(_probe() for _ in range(3))
        print(json.dumps({"setup_end": setup_end, "setup_factor": PROBE_REF_S / probe}))
        return

    def direct(fn, *a):
        return fn(*a)

    call = tracer.item if tracer else direct
    run_round = _run_heights if args.workload == "tall_points" else _run_reports
    digest = hashlib.sha256()
    meter = Meter()
    peak_rss = None
    r = 0
    while True:
        if r:
            records = _timed(meter, False, harness.ingest, str(out / f"in-{r}.jsonl"))
        doc = run_round(records, call, meter)
        meter.segment_end(force=True)
        (out / f"doc-{r}.json").write_text(doc, encoding="utf-8")
        digest.update(doc.encode())
        r += 1
        if r == args.rss_rounds:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.mode == "timed" and meter.raw_s >= args.seconds and r >= args.rss_rounds:
            break
        if args.mode == "fixed" and r >= args.rounds:
            break
        print(f"next {r}", flush=True)
        if sys.stdin.readline().strip() != "ok":
            raise SystemExit(f"no input for round {r}")

    adjusted_s, latencies, adjusted_latencies = meter.adjusted()
    result = {
        "setup_end": setup_end,
        "setup_factor": PROBE_REF_S / meter.probes[0],
        "rounds": r,
        "timed_s": meter.raw_s,
        "adjusted_s": adjusted_s,
        "latencies": latencies,
        "adjusted_latencies": adjusted_latencies,
        "probes": meter.probes,
        "peak_rss_mb": peak_rss,
        "digest": digest.hexdigest(),
    }
    if tracer:
        result["trace"] = tracer.summary()
        tracer.dump(out / "spans.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
