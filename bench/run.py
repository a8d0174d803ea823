"""Benchmark of the popgraph planar-order pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The workloads (``synthesize``, ``draw``, ``verify``, ``reject``) are
described in ``bench/README.md``.  Each run:

1. imports the package and builds the workload's corpus from ``--seed``
   several times, writing the input files each time (set-up);
2. runs a closed loop, one caller on one thread: whole passes over the
   corpus, each op starting when the last returned, until the ops have taken
   ``--seconds`` seconds;
3. checks every op's answer against its known value, outside the timed
   section, and counts wrong or missing answers and escaped exceptions as
   failures;
4. prints a text report and, as its last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
half the time runs untraced and half with the span tracer of ``spans.py``
installed, and the metrics are the per-layer ones plus the tracing overhead.
Reports, the corpus manifest and the spans are written under ``bench/out``.
The exit code is 0 when every answer was right and 1 when one was not; any
other failure (for instance a checkout without ``src/popgraph``) exits with
2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("synthesize", "draw", "verify", "reject")
SETUP_REPS = 3
# Every run makes at least this many whole passes over its corpus, so the
# sample count, and with it the tail percentile, is fixed by the corpus size.
MIN_PASSES = 3
# Seconds the calibration kernel takes at the reference speed.  Every time
# the benchmark reports is scaled by CALIBRATION_REF_S over the kernel's
# time, measured every CALIBRATE_EVERY_S seconds of op time, so that a
# slower or faster host state does not read as a change of the program.  An
# op's latency is scaled by the median of the CALIBRATION_WINDOW kernel
# timings taken around it, which follows the host through a run.
CALIBRATION_REF_S = 0.002
CALIBRATE_EVERY_S = 0.25
CALIBRATION_WINDOW = 8
# Tail percentiles in per mille, highest first.  The tail is the highest one
# that has at least ten samples beyond it in a run of MIN_PASSES passes.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)

END_TO_END = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "edges_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "synthesis.synthesize_order.self_s": "s",
    "synthesis.extract_pa.self_s": "s",
    "synthesis.compare_edges.calls": "count",
    "order.order_from_conjugate.self_s": "s",
    "order.conjugate_order.self_s": "s",
    "order.validate_planar_order.self_s": "s",
    "order.validate_planar_order.calls": "count",
    "core.validate_progressive.self_s": "s",
    "core.validate_progressive.calls": "count",
    "core.adjacency.calls": "count",
    "composition.elementary_decomposition.self_s": "s",
    "composition.decompose_step.calls": "count",
    "composition.validations_per_factor": "ratio",
    "layout.layout.self_s": "s",
    "layout.render.self_s": "s",
    "layout.read_back.self_s": "s",
    "layout.check_drawing.self_s": "s",
    "layout.check_drawing.segments": "count",
    "layout.check_drawing.y_overlap_ratio": "ratio",
    "layout.check_drawing.problems": "count",
    "synthesis.count_planar_orders.self_s": "s",
    "synthesis.orders_counted": "count",
    "order.order_violations.self_s": "s",
    "order.error_bytes": "bytes",
    "synthesis.error_bytes": "bytes",
    "order.errors": "count",
    "synthesis.errors": "count",
    "ppgfile.parse_ppg.self_s": "s",
    "ppgfile.emit_ppg.self_s": "s",
    "ppgfile.bytes": "bytes",
    "cli.main.self_s": "s",
    "cli.files_written": "count",
    "cli.spawn_s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_package() -> float:
    """Import popgraph from the checkout's ``src/``; return the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import popgraph
    took = time.perf_counter() - start
    if Path(popgraph.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"popgraph was imported from {popgraph.__file__}, not {src}")
    return took


def _kernel() -> int:
    """Fixed pure-Python graph work: a seeded DAG on named vertices, its
    reachability closure in int bitsets, and exact Fraction sums, the same
    kinds of work the package does."""
    x = 12345
    names = [f"v{i}" for i in range(400)]
    succ: dict[str, list[str]] = {v: [] for v in names}
    for _ in range(3 * len(names)):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a = x % len(names)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        b = x % len(names)
        if a < b:
            succ[names[a]].append(names[b])
    index = {v: i for i, v in enumerate(names)}
    reach: dict[str, int] = {}
    for v in reversed(names):
        acc = 1 << index[v]
        for w in succ[v]:
            acc |= reach[w]
        reach[v] = acc
    total = sum(Fraction(bin(reach[v]).count("1"), 1 + len(succ[v])) for v in names)
    return len(" ".join(sorted(names, key=reach.__getitem__))) + int(total)


def calibrate() -> float:
    """Median time of three runs of the calibration kernel."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup(workload: str, seed: int, workdir: Path, calibrations: list[float]):
    """Build the corpus SETUP_REPS times; return (items, digest, build seconds)."""
    import workloads
    times, digests = [], set()
    for _ in range(SETUP_REPS):
        calibrations.append(calibrate())
        start = time.perf_counter()
        items = workloads.build(workload, seed, ROOT, workdir)
        times.append(time.perf_counter() - start)
        digests.add(workloads.digest(items))
    if len(digests) != 1:
        raise RuntimeError(f"the {workload} corpus differs between builds of one seed")
    return items, digests.pop(), times


def measure(items, seconds: float, calibrations: list[float], tracer=None, after_pass=None):
    """Closed loop over whole passes, at least MIN_PASSES of them, until the
    ops have taken ``seconds``; calibrates between ops now and then.

    Returns one (item index, latency, failure reason or None, index of the
    last calibration before the op) per op.
    """
    samples = []
    timed = 0.0
    calibrated_at = -CALIBRATE_EVERY_S
    pass_no = 0
    gc.collect()
    while True:
        for i, item in enumerate(items):
            if timed - calibrated_at >= CALIBRATE_EVERY_S:
                calibrations.append(calibrate())
                calibrated_at = timed
            if tracer is not None:
                tracer.op = len(samples)
            start = time.perf_counter()
            try:
                outcome = item.op(pass_no)
            except Exception as err:  # the check decides whether it was expected
                outcome = err
            took = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None
            try:
                reason = item.check(outcome)
            except Exception as err:
                reason = f"check raised {type(err).__name__}: {err}"
            if tracer is not None and reason is None:
                tracer.counts["cli.files_written"] += item.files
            samples.append((i, took, reason, len(calibrations) - 1))
            timed += took
        pass_no += 1
        if after_pass is not None:
            after_pass()
        if timed >= seconds and pass_no >= MIN_PASSES:
            calibrations.append(calibrate())
            return samples


def tail(latencies: list[float], planned: int) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder percentile
    with at least ten of ``planned`` samples beyond it; the maximum if none.

    ``planned`` is the sample count of the shortest run, so the percentile
    depends on the corpus, not on how fast the ops ran.
    """
    lat = sorted(latencies)
    n = len(lat)
    for permille in TAIL_LADDER:
        if min(n, planned) * (1000 - permille) >= 10 * 1000:
            rank = math.ceil(n * permille / 1000)
            return permille / 10, lat[rank - 1], n - rank
    return 100.0, lat[-1], 0


def scaled(samples, calibrations: list[float]) -> list[float]:
    """Each op's latency at the reference speed, by the calibrations around it."""
    half = CALIBRATION_WINDOW // 2
    out = []
    for _, took, _, c in samples:
        near = calibrations[max(0, c - half + 1):c + half + 1]
        out.append(took * CALIBRATION_REF_S / statistics.median(near))
    return out


def end_to_end(items, samples, lat: list[float], setup_s: float):
    """(metrics, tail percentile details, fail ratio) of an untraced run."""
    percentile, tail_s, beyond = tail(lat, len(items) * MIN_PASSES)
    edges = sum(items[i].edges for i, _, reason, _ in samples if reason is None)
    failed = sum(reason is not None for _, _, reason, _ in samples)
    metrics = {
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "edges_per_s": edges / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return metrics, {"percentile": percentile, "beyond": beyond, "samples": len(lat)}, (
        failed / len(samples))


def spawn_render(workdir: Path) -> tuple[float, str | None]:
    """``python -m popgraph render`` on the reference file in a subprocess."""
    out = workdir / "spawn.svg"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "popgraph", "render",
           str(workdir / "canonical19.ppg"), "-o", str(out)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=60)
    took = time.perf_counter() - start
    if done.returncode != 0:
        return took, f"ppg render exited with {done.returncode}"
    if out.read_text(encoding="utf-8").count("<path ") != 19:
        return took, "ppg render drew the wrong number of edges"
    return took, None


def per_layer(tracer, traced_lat, plain_lat, spawns, scale: float) -> dict:
    ops = len(traced_lat)
    counts = tracer.counts
    metrics = {name: 0.0 for name in PER_LAYER}
    for name, (self_s, calls) in tracer.self_times().items():
        metrics[name + ".self_s"] = self_s / ops
        if name + ".calls" in metrics:
            metrics[name + ".calls"] = calls / ops
    for name in ("synthesis.compare_edges.calls", "composition.decompose_step.calls",
                 "core.adjacency.calls", "layout.check_drawing.segments",
                 "layout.check_drawing.problems", "synthesis.orders_counted",
                 "order.error_bytes", "synthesis.error_bytes", "order.errors",
                 "synthesis.errors", "ppgfile.bytes", "cli.files_written"):
        metrics[name] = counts[name] / ops
    if counts["composition.factors"]:
        metrics["composition.validations_per_factor"] = (
            tracer.validations_in_decomposition() / counts["composition.factors"])
    if counts["layout.check_drawing.pairs"]:
        metrics["layout.check_drawing.y_overlap_ratio"] = (
            counts["layout.check_drawing.overlapping_pairs"]
            / counts["layout.check_drawing.pairs"])
    if spawns:
        metrics["cli.spawn_s"] = statistics.median(spawns)
    metrics["trace.overhead_ratio"] = statistics.median(traced_lat) / statistics.median(plain_lat)
    return {k: metrics[k] * (scale if PER_LAYER[k] == "s" else 1) for k in PER_LAYER}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        import_s: float, tag: str) -> dict:
    """One benchmark run; returns the full report."""
    import workloads
    calibrations: list[float] = []
    items, corpus_digest, build_times = setup(workload, seed, workdir, calibrations)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "corpus": {"inputs": len(items), "digest": corpus_digest,
                         "import_s": import_s, "build_s": build_times}}
    spawns: list[tuple[float, str | None]] = []
    if not trace:
        samples = measure(items, seconds, calibrations)
        scale = CALIBRATION_REF_S / statistics.median(calibrations)
        setup_scale = CALIBRATION_REF_S / statistics.median(calibrations[:SETUP_REPS + 1])
        setup_s = (import_s + statistics.median(build_times)) * setup_scale
        e2e, report["tail"], report["fail_ratio"] = end_to_end(
            items, samples, scaled(samples, calibrations), setup_s)
        report["metrics"] = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        import spans
        plain = measure(items, seconds / 2, calibrations)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = measure(items, seconds / 2, calibrations, tracer,
                             (lambda: spawns.append(spawn_render(workdir)))
                             if workload == "draw" else None)
        finally:
            tracer.remove()
        samples = plain + traced
        tracer.write(OUT / f"{tag}.spans.jsonl")
        scale = CALIBRATION_REF_S / statistics.median(calibrations)
        plain_lat, traced_lat = scaled(plain, calibrations), scaled(traced, calibrations)
        values = per_layer(tracer, traced_lat, plain_lat, [took for took, _ in spawns], scale)
        report["untraced_op_p50_s"] = statistics.median(plain_lat)
        report["traced_op_p50_s"] = statistics.median(traced_lat)
        report["metrics"] = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    per_input: dict[str, list[float]] = {}
    for i, took, _, _ in samples:
        per_input.setdefault(items[i].name, []).append(took)
    report["input_p50_s"] = {k: statistics.median(v) for k, v in per_input.items()}
    report["speed_scale"] = scale
    report["calibrations_s"] = calibrations
    failures = [f"{items[i].name}: {reason}" for i, _, reason, _ in samples if reason]
    failures += [f"spawn: {why}" for _, why in spawns if why]
    report["attempted"] = len(samples) + len(spawns)
    report["failed"] = len(failures)
    report["failures"] = failures[:20]
    manifest = {"workload": workload, "seed": seed, "digest": corpus_digest,
                "inputs": [workloads.properties(item) for item in items]}
    (OUT / f"{workload}-seed{seed}.manifest.json").write_text(
        json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"inputs {report['corpus']['inputs']}  digest {report['corpus']['digest'][:16]}  "
          f"ops {report['attempted']}  failed {report['failed']}")
    for name, m in report["metrics"].items():
        line = f"  {name:46s} {m['value']:.6g} {m['unit']}"
        if name == "op_tail_s":
            t = report["tail"]
            line += f"  (p{t['percentile']:g}, {t['beyond']} of {t['samples']} ops beyond)"
        print(line)
    print(f"  times scaled by {report['speed_scale']:.4g} to the reference speed "
          f"(calibration kernel median {statistics.median(report['calibrations_s']):.4g} s, "
          f"reference {CALIBRATION_REF_S} s)")
    if "fail_ratio" in report:
        print(f"  {'fail_ratio':46s} {report['fail_ratio']:.6g} ratio"
              f"  ({report['failed']} of {report['attempted']} ops)")
    else:
        print(f"  untraced op_p50_s {report['untraced_op_p50_s']:.6g} s, "
              f"traced op_p50_s {report['traced_op_p50_s']:.6g} s")
    for why in report["failures"]:
        print("  FAILED " + why)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)

    try:
        import_s = import_package()
    except ImportError as err:
        print(f"error: cannot import popgraph from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                     import_s, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print_report(report)
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # a broken benchmark, not a wrong answer: no result line
        traceback.print_exc()
        sys.exit(2)
