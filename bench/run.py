#!/usr/bin/env python3
"""framelex benchmark: one workload per run, or all three with ``--workload all``.

    python3 bench/run.py --workload cli_oneshot --seed 1 --seconds 20 --trace 0

Run from the root of a framelex checkout.  The corpus for ``--seed`` is
generated on first use into ``bench/corpus/`` (ignored by git) and reused
while its checksum holds.  With ``--trace 0`` the last line of standard
output is one JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a separate traced run, and the spans and the
layer table go to ``bench/out/``.  See bench/README.md.
"""

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS_CACHE = BENCH / "corpus"
OUT_DIR = BENCH / "out"
WORKLOADS = ("cli_oneshot", "browse_warm", "corpus_sweep")


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_framelex():
    src = ROOT / "src"
    if not (src / "framelex" / "__init__.py").is_file():
        fail(f"no framelex package under {src}; run from a framelex checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import framelex

    if Path(framelex.__file__).resolve().parent != (src / "framelex").resolve():
        fail(f"imported framelex from {framelex.__file__}, not from {src}")
    return framelex


def corpus_for(seed):
    """The generated corpus directory for ``seed``, made or repaired as needed."""
    from gencorpus import tree_digest

    target = CORPUS_CACHE / f"full-seed{seed}"
    digest_file = target / "DIGEST"
    if digest_file.is_file() and digest_file.read_text().strip() == tree_digest(target):
        return target
    CORPUS_CACHE.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(BENCH / "gencorpus.py"), "--seed", str(seed), "--out", str(target)],
        check=True, stdout=subprocess.DEVNULL,
    )
    return target


def quantile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


# A fixed nominal time for the calibration task (it takes 1.0-1.2 ms on a
# quiet 2-core Xeon); reported times are what each operation would have taken
# had the task taken exactly this long (see normalised()).
REFERENCE_CALIBRATION_S = 0.001
NEAREST_CALIBRATIONS = 5


def normalised(result, raw=False):
    """Each operation's and set-up's time scaled by REFERENCE_CALIBRATION_S
    over the median of the calibration tasks timed nearest to it.

    The speed of a shared VM drifts by a quarter within seconds; the
    calibration task, timed between operations, follows the drift, and the
    scaled times do not.  Returns ({kind: [seconds]}, [set-up seconds]).
    """
    times = [t for t, _ in result.calibration]
    values = [v for _, v in result.calibration]

    def scale(at):
        if raw:
            return 1.0
        i = bisect.bisect_left(times, at)
        half = NEAREST_CALIBRATIONS // 2
        lo = max(0, min(i - half, len(values) - NEAREST_CALIBRATIONS))
        return REFERENCE_CALIBRATION_S / statistics.median(values[lo:lo + NEAREST_CALIBRATIONS])

    by_kind = {}
    for at, kind, seconds in result.ops:
        by_kind.setdefault(kind, []).append(seconds * scale(at))
    return by_kind, [seconds * scale(at) for at, seconds in result.setup]


def end_to_end(result, raw=False):
    """The metrics every workload reports, from one untraced run.

    ``peak_rss_mb`` is the process's peak resident set less the resident set
    once the benchmark's own data was loaded (``workloads.settle``): the
    program's peak, without the manifest and expected results."""
    from workloads import max_rss

    by_kind, setup = normalised(result, raw)
    ops = [t for values in by_kind.values() for t in values]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(ops) / sum(ops), "1/s"),
        "op_p90_ms": (quantile(ops, 0.9) * 1e3, "ms"),
        "lu_ms": (statistics.median(by_kind["lu"]) * 1e3, "ms"),
        "doc_ms": (statistics.median(by_kind["doc"]) * 1e3, "ms"),
        "peak_rss_mb": ((max_rss() - result.rss_base) / 2**20, "MB"),
    }


# Per-kind figures, printed for information: they exist on some workloads
# only, so the JSON result leaves them out.
KIND_GROUPS = {
    "frame_ms": ("frame",),
    "sent_ms": ("exemplar", "sent", "annoset"),
    "scan_ms": ("lus", "fes", "relations", "exemplars", "frames"),
}


def informational(result):
    by_kind, _ = normalised(result)
    out = {}
    for name, kinds in KIND_GROUPS.items():
        values = [t for kind in kinds for t in by_kind.get(kind, [])]
        if len(values) >= 40:
            out[name] = (statistics.median(values) * 1e3, "ms")
    for name, unit in (("sents_per_s", "1/s"), ("xml_mb_per_s", "MB/s")):
        if name in result.notes:
            out[name] = (result.notes[name], unit)
    return out


def traced(workload, ctx, seconds, seed):
    """Untraced then traced halves of the run; per-layer metrics."""
    from tracer import Tracer

    plain = workload(ctx, seconds / 2)
    tracer = Tracer()
    result = workload(ctx, seconds / 2, tracer=tracer)
    ops = len(result.ops)
    metrics = {name: (value, layer_unit(name)) for name, value in tracer.layer_metrics(ops).items()}
    untraced_rate = end_to_end(plain)["ops_per_s"][0]
    traced_rate = end_to_end(result)["ops_per_s"][0]
    metrics["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1) * 100, "%")
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"trace-{workload.__name__}-seed{seed}"
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": workload.__name__, "seed": seed, "ops": ops,
        "untraced_ops_per_s": untraced_rate, "traced_ops_per_s": traced_rate,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": tracer.span_records(200_000),
    }))
    table = [f"{name:<40} {value:>14.4f} {unit}" for name, (value, unit) in metrics.items()]
    stem.with_suffix(".txt").write_text("\n".join(table) + "\n")
    return plain, result, metrics


def layer_unit(name):
    if name.endswith(".ms"):
        return "ms/op"
    if name == "xmlio.mb_per_s":
        return "MB/s"
    if name in ("store.hit_ratio", "lexicon.rows_per_result"):
        return "ratio"
    if name == "store.files_reread":
        return "count"
    if name == "store.bytes_read":
        return "B/op"
    if name == "render.chars":
        return "chars/op"
    return "count/op"


def run_one(name, seed, seconds, trace):
    import workloads

    corpus = corpus_for(seed)
    ctx = workloads.Context(corpus, seed)
    workload = workloads.WORKLOADS[name]
    if trace:
        plain, result, metrics = traced(workload, ctx, seconds, seed)
        attempted = plain.attempted + result.attempted
        failed = plain.failed + result.failed
    else:
        result = workload(ctx, seconds)
        metrics = end_to_end(result)
        attempted, failed = result.attempted, result.failed
        for key, (value, unit) in informational(result).items():
            print(f"info {key} {value:.4f} {unit}")
        for key, (value, unit) in end_to_end(result, raw=True).items():
            print(f"raw {key} {value:.6g} {unit}")
        print(f"memory_mb base={result.rss_base / 2**20:.1f} "
              f"peak_at_base={result.maxrss_base / 2**20:.1f} peak={workloads.max_rss() / 2**20:.1f}")
        if workloads.max_rss() <= result.maxrss_base:
            print("bench: the program's peak stayed under the set-up's; "
                  "peak_rss_mb understates it", file=sys.stderr)
        calibration = [v for _, v in result.calibration]
        print(f"raw calibration_ms {statistics.median(calibration) * 1e3:.4f} "
              f"n={len(calibration)}")
    for key, value in sorted(result.notes.items()):
        print(f"note {key} {value}")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} {value:.6g} {unit}")
    print(f"operations attempted={attempted} failed={failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed, seconds, trace):
    """Every workload in its own fresh interpreter, one after the other."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(f"== {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="framelex benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_framelex()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    started = time.monotonic()
    code = main()
    print(f"bench: {time.monotonic() - started:.1f}s wall", file=sys.stderr)
    sys.exit(code)
