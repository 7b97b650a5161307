"""Run one relfi benchmark workload; print its metrics, JSON on the last line.

    python3 bench/run.py --workload grid_a_1e6 --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s``,
``run_s`` (median seconds per pass) and ``peak_rss_mb``. With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, with the tracing overhead. Run it
from anywhere; it imports relfi from the ``src`` directory beside
``bench`` and writes only under ``.bench_work`` there.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Setup is timed in this process and in this many fresh ones; the
# median is reported, and each includes imports and lazy first-call work.
SETUP_CHILDREN = 4


def metric_units(section: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up once, print the seconds taken, and exit")
    return parser.parse_args(argv)


def child_setup_seconds(args) -> float:
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def measure(workload, seconds: float, tracer=None):
    """Repeat passes for ``seconds``; with a tracer, alternate plain and traced ones.

    Returns (plain pass times, traced pass times, per-pass span totals,
    outputs, peak RSS in MB through the first pass). Later passes do not
    count towards the peak: glibc keeps freed heap blocks, so the process
    high-water mark would climb with the number of passes and with how
    worker threads interleave, while one pass is what one invocation of
    the workload costs.
    """
    from spans import layer_metrics

    plain, traced, layers, outputs = [], [], [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        outputs.append(workload.run_pass())
        plain.append(time.perf_counter() - t)
        if len(plain) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.install()
            try:
                t = time.perf_counter()
                outputs.append(workload.run_pass())
                traced.append(time.perf_counter() - t)
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer.drain()))
        if time.perf_counter() - start >= seconds:
            return plain, traced, layers, outputs, peak_rss_mb


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relfi" / "__init__.py").is_file():
        print(f"error: no relfi sources at {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread per worker thread, so no workload uses more than 2 cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import relfi

    if SRC.resolve() not in Path(relfi.__file__).resolve().parents:
        print(f"error: relfi was imported from {relfi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.setup()
        workload.warm_up()
        setup = time.perf_counter() - STARTED
        if args.setup_only:
            print(repr(setup))
            return 0
        setups = [setup]
        if not args.trace:
            setups += [child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]
        tracer = Tracer(relfi) if args.trace else None
        plain, traced, layers, outputs, peak_rss_mb = measure(workload, args.seconds, tracer)
        verdict = workload.check(outputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = metric_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        values = {name: statistics.median(totals.get(name, 0.0) for totals in layers) for name in units}
        values["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        print(f"{args.workload}: {len(plain)} untraced passes, median {statistics.median(plain):.4f} s; "
              f"{len(traced)} traced passes, median {statistics.median(traced):.4f} s")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(plain),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"{args.workload}: run_s is the median of {len(plain)} passes; "
              f"setup_s the median of {len(setups)} setups")
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for note in verdict.notes:
        print(f"  failed: {note}")
    for problem in verdict.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = len(outputs) * workload.ops_per_pass
    result = {
        "correct": not verdict.problems,
        "attempted": attempted,
        "failed": len(outputs) * verdict.failed_per_pass,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
