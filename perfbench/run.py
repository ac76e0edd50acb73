"""End-to-end and per-layer benchmark of the FreewayML reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stream-mlp --seed 1 --seconds 8 --trace 0

Workloads (``BENCHMARK.json`` says why each exists): ``stream-mlp`` and
``stream-cnn`` (:mod:`stream`), ``serve-learner`` and ``serve-stacked``
(:mod:`serve`).  Inputs come from ``--seed`` and are generated before the
clock starts; the program is imported from ``src/`` of the checkout.
``--seconds`` sizes the work: each workload does what takes that long on
the reference machine, so accuracy and memory never depend on speed.
Times are scaled to the reference machine's speed (:mod:`calibrate`);
the measured ones are printed on the ``detail`` line.

``--trace 0`` times one untraced pass and prints every end-to-end metric.
``--trace 1`` times the same untraced pass, then repeats the same work over
the same inputs with spans recorded around the calls into each layer
(:mod:`tracing`), and prints every per-layer metric, including the tracing
overhead between the two passes.  Every pass is checked for correct
answers: streams against an unoptimized pass, serving by replaying every
tenant serially.

``setup_s`` runs from the first ``import repro`` through building the
system under test and its warm-up; it is the median over this run and
:data:`SETUP_PROBES` fresh interpreters.  ``peak_rss_mb`` is this process's
peak resident memory at the end of the untraced pass; each run is its own
process, so no other workload's memory enters it.

The last line of standard output is the result as one JSON object; the
lines before it record the environment and the run's sample counts.
"""

import os

# One process drives the load and its compute runs on one thread; extra
# BLAS/OpenMP threads only contend with it.  Set before numpy loads.
BLAS_THREADS = "1"
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream-mlp", "stream-cnn", "serve-learner", "serve-stacked")
#: Fresh interpreters set up per run, besides the run's own set-up; the
#: reported ``setup_s`` is the median of all of them.
SETUP_PROBES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src/``, nowhere else."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import repro

    origin = Path(repro.__file__).resolve()
    if source not in origin.parents:
        raise SystemExit(f"repro was imported from {origin}, not {source}")
    return repro


def load_workload(name):
    import serve
    import stream

    return {**stream.WORKLOADS, **serve.WORKLOADS}[name]


def environment(args, repro) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "perf_config": repro.perf.config.as_dict(),
    }


def probe_setup(args) -> float:
    """Set-up time of one fresh interpreter."""
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-probe"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def select(specs: list, values: dict, required: bool = True) -> dict:
    """The metrics ``BENCHMARK.json`` names, with their units.

    Per-layer metrics of a layer the workload never calls read 0.
    """
    return {spec["name"]: {"value": (values[spec["name"]] if required
                                     else values.get(spec["name"], 0)),
                           "unit": spec["unit"]}
            for spec in specs}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    started = time.perf_counter()
    repro = import_program()
    workload = load_workload(args.workload)
    system = workload.set_up(args.seed)
    setup_s = time.perf_counter() - started

    import calibrate
    from tracing import Probe

    setup_s *= calibrate.factor(calibrate.kernel_seconds())
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    inputs = workload.make_inputs(args.seed, args.seconds)
    count = workload.work(args.seconds)
    print("env " + json.dumps(environment(args, repro)), flush=True)
    gc.collect()
    run = workload.measure(system, inputs, count)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = workload.attempted(run)
    problems = [workload.check(run, inputs)]
    detail = workload.detail(run)

    if args.trace:
        traced_system = workload.build()
        probe = Probe(workload.recorder())
        gc.collect()
        with probe.tracer:
            traced = workload.measure(traced_system, inputs, count,
                                      probe=probe)
        problems.append(workload.check_traced(run, traced, inputs))
        values = workload.layer_metrics(traced, inputs)
        values["trace.overhead_frac"] = (
            traced.scaled_wall_s - run.scaled_wall_s) / run.scaled_wall_s
        metrics = select(spec["per_layer"], values, required=False)
    else:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
        detail["setup_s_samples"] = setups
        values = workload.end_to_end(run, inputs)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = peak_rss_mb
        metrics = select(spec["end_to_end"], values)

    problems = [problem for problem in problems if problem]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
