"""Benchmark of the spikecodec package: three workloads, one command.

    python3 bench/run.py --workload matrix --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1 --seconds 25        # every workload

One workload runs per process, with one BLAS/OpenMP thread, on the package
under ``src/`` of the checkout this file sits in.  The run repeats set-up
(inputs from ``--seed``, warm-up) and reports its median, then times whole
rounds until ``--seconds`` of timed work are done, checking each round's
outputs after its clock stops.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Results, machine facts and traces go to ``bench/out/``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# Before numpy loads: one BLAS thread, so a run's timing does not depend on
# how the thread pool is scheduled on a small shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("matrix", "infer", "codec")
# Set-up is timed this many times: once before the first round, as it must
# be, and then spread over the timed phase (between rounds, off the clock),
# so the samples meet different states of a shared host.
SETUP_REPEATS = 5

# Timings are 90th percentiles: on a shared host the same code runs in two
# speed states 1.7x apart that alternate every few seconds, so medians and
# means depend on how a run's time split between them, while the slower
# state, which every run meets, fixes the upper percentiles.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("window_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import spikecodec.cli, spikecodec.evaluation")


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import spikecodec from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "spikecodec", "__init__.py")):
        _fail(f"no package at {SRC}/spikecodec; run from a full checkout")
    # version_string() runs git; keep it from searching above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    sys.path.insert(0, SRC)
    import spikecodec

    if os.path.dirname(os.path.abspath(spikecodec.__file__)) != os.path.join(SRC, "spikecodec"):
        _fail(f"spikecodec imported from {spikecodec.__file__}, not {SRC}")


def per_layer_table():
    """(metric, unit, statistic, span, tag filter) for every per-layer
    metric; see spans.SpanStats.value for the statistics."""
    import workloads

    def fam(name):
        return lambda tag: tag is not None and workloads.family(tag) == name

    def tag(name):
        return lambda t: t == name

    rows = [(f"snn.train_s.{f}", "s", "round_incl", "snn.train", fam(f))
            for f in ("rate", "ttfs", "binary", "delta")]
    rows += [
        ("metrics.robustness_sweep_s", "s", "round_self", "metrics.robustness_sweep", None),
        ("snn.classify_batch_s", "s", "round_incl", "snn.classify_batch", None),
        ("metrics.inject_noise_s", "s", "round_incl", "metrics.inject_noise", None),
        ("evaluation.encode_dataset_s", "s", "round_incl", "evaluation.encode_dataset", None),
        ("evaluation.reconstruct_s", "s", "round_incl", "evaluation.reconstruct", None),
        ("metrics.snr_db_s", "s", "round_incl", "metrics.snr_db", None),
        ("snn.classify_batch.calls", "count", "round_calls", "snn.classify_batch", None),
        ("cli.version_string.calls", "count", "round_calls", "cli.version_string", None),
        ("dataio.read_spikes_ms", "ms", "call_ms", "dataio.read_spikes", None),
        ("snn.classify_detailed_ms", "ms", "call_ms", "snn.classify_detailed", None),
        ("snn.load_checkpoint_ms", "ms", "setup_ms", "snn.load_checkpoint", None),
        ("snn.train_s", "s", "setup_s", "snn.train", None),
    ]
    rows += [(f"encoders.encode_ms.{v}", "ms", "call_ms", "encoders.encode", tag(v))
             for v in workloads.VARIANTS]
    rows += [(f"decoders.decode_ms.{v}", "ms", "call_ms", "decoders.decode", tag(v))
             for v in workloads.VARIANTS]
    rows += [(f"metrics.inject_noise_ms.{m}", "ms", "call_ms", "metrics.inject_noise", tag(m))
             for m in ("flip-binary", "signed-perturb")]
    rows += [
        ("metrics.snr_db_ms", "ms", "call_ms", "metrics.snr_db", None),
        ("metrics.afr_ms", "ms", "call_ms", "metrics.afr", None),
        ("dataio.interpolate_linear_ms", "ms", "call_ms", "dataio.interpolate_linear", None),
        ("dataio.write_spikes_ms", "ms", "call_ms", "dataio.write_spikes", None),
        ("dataio.synth_dataset_s", "s", "any_s", "dataio.synth_dataset", None),
        ("process.minflt", "count", "process", "minflt", None),
        ("process.wait_s", "s", "process", "wait_s", None),
    ]
    return rows


def install_spans(tracer):
    """Wrap each public function at every binding its callers use."""
    from spikecodec import cli, dataio, decoders, encoders, evaluation, metrics, snn
    from workloads import variant_name

    def config_tag(args, kwargs):
        return variant_name(args[1] if len(args) > 1 else kwargs["config"])

    def mode_tag(args, kwargs):
        return (args[1] if len(args) > 1 else kwargs["spec"]).mode.value

    table = [
        ("evaluation.evaluate_scheme", [(cli, "evaluate_scheme")], lambda a, k: a[0]),
        ("cli.version_string", [(cli, "version_string")], None),
        ("dataio.synth_dataset", [(dataio, "synth_dataset"), (cli, "synth_dataset")], None),
        ("evaluation.encode_dataset",
         [(evaluation, "encode_dataset"), (cli, "encode_dataset")], None),
        ("evaluation.reconstruct", [(evaluation, "reconstruct")], None),
        ("encoders.encode", [(encoders, "encode"), (evaluation, "encode")], config_tag),
        ("decoders.decode", [(decoders, "decode"), (evaluation, "decode")], config_tag),
        ("snn.train", [(snn, "train"), (evaluation, "train"), (cli, "train")], None),
        ("metrics.robustness_sweep",
         [(metrics, "robustness_sweep"), (evaluation, "robustness_sweep")], None),
        ("metrics.inject_noise", [(metrics, "inject_noise"), (cli, "inject_noise")], mode_tag),
        ("metrics.snr_db", [(metrics, "snr_db"), (evaluation, "snr_db")], None),
        ("metrics.afr", [(metrics, "afr"), (evaluation, "afr")], None),
        ("snn.classify_batch", [(snn, "classify_batch")], None),
        ("snn.classify_detailed",
         [(snn, "classify_detailed"), (cli, "classify_detailed")], None),
        ("snn.load_checkpoint", [(snn, "load_checkpoint"), (cli, "load_checkpoint")], None),
        ("snn.save_checkpoint", [(snn, "save_checkpoint"), (cli, "save_checkpoint")], None),
        ("dataio.read_spikes", [(dataio, "read_spikes"), (cli, "read_spikes")], None),
        ("dataio.write_spikes", [(dataio, "write_spikes"), (cli, "write_spikes")], None),
        ("dataio.interpolate_linear", [(dataio, "interpolate_linear")], None),
    ]
    for name, bindings, tag_fn in table:
        tracer.wrap(name, bindings, tag_fn)


def machine_facts():
    """Cores, BLAS library and threads, interpreter and numpy versions."""
    import ctypes

    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    try:
        facts["blas"] = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        facts["blas"] = "unknown"
    # The loaded OpenBLAS reports its own configuration and thread count.
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if getter is not None and config is not None:
                getter.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                facts["blas_threads"] = getter()
                facts["blas_config"] = config().decode()
                break
        if "blas_threads" in facts:
            break
    facts.setdefault("blas_threads", os.environ["OPENBLAS_NUM_THREADS"] + " (requested)")
    return facts


def speed_probe_ms():
    """Milliseconds for a fixed pure-Python loop: on a shared host the same
    loop can take 1.6x longer from one minute to the next, and this shows
    which state a run met."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return 1000.0 * (time.perf_counter() - start)


def import_seconds():
    """Wall time of a fresh interpreter that starts and imports the package."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], check=True)
    return time.perf_counter() - start


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def run_workload(args):
    _import_package()
    import spans
    import workloads

    import_s = time.perf_counter() - _T0
    load_before = os.getloadavg()
    speed_before = speed_probe_ms()
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        tracer = spans.Tracer()
        if args.trace:
            install_spans(tracer)

        import_times, setup_times = [], []

        def set_up():
            tracer.phase, tracer.enabled = "setup", bool(args.trace)
            import_times.append(import_seconds())
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            tracer.phase, tracer.enabled = "timed", False

        set_up()
        latencies, walls, faults, waits = [], [], [], []
        attempted = failed = 0
        problems = []
        while not walls or sum(walls) < args.seconds:
            tracer.round = len(walls)
            tracer.enabled = bool(args.trace)
            flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            cpu0 = time.process_time()
            start = time.perf_counter()
            workload.run_round(latencies)
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu0
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0)
            walls.append(wall)
            waits.append(wall - cpu)
            tracer.enabled = False
            n, bad, found = workload.check_round()
            attempted += n
            failed += bad
            problems += found
            done = min(1.0, sum(walls) / max(args.seconds, 1))
            while len(setup_times) < 1 + int((SETUP_REPEATS - 1) * done):
                set_up()

        end_to_end = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "run_s": percentile(walls, 90),
            "window_ms_p90": 1000.0 * percentile(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        # Kept in the result file, not in the metrics: they move with the
        # host's speed state (see END_TO_END).
        mixed = {
            "run_s_median": statistics.median(walls),
            "windows_per_s": workload.windows_per_round * len(walls) / sum(walls),
            "window_ms_p50": 1000.0 * percentile(latencies, 50),
        }
        units = dict(END_TO_END)
        if args.trace:
            stats = spans.SpanStats(tracer.spans)
            rounds = range(len(walls))
            process = {"minflt": statistics.median(faults),
                       "wait_s": statistics.median(waits)}
            metrics = {}
            for name, unit, stat, span, tag_filter in per_layer_table():
                value = (process[span] if stat == "process"
                         else stats.value(stat, span, tag_filter, rounds))
                metrics[name] = {"value": value, "unit": unit}
        else:
            metrics = {name: {"value": value, "unit": units[name]}
                       for name, value in end_to_end.items()}
        result = {"correct": not problems, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "result": result, "end_to_end": end_to_end,
            "rounds": len(walls), "windows": len(latencies),
            "state_dependent": mixed, "import_repeats_s": import_times,
            "setup_repeats_s": setup_times, "import_s": import_s,
            "round_walls_s": walls, "round_minflt": faults, "round_wait_s": waits,
            "window_ms": [1000.0 * x for x in latencies],
            "problems": problems[:50], "facts": machine_facts(),
            "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
            "speed_probe_ms_before": speed_before,
            "speed_probe_ms_after": speed_probe_ms(),
            "elapsed_s": time.perf_counter() - _T0,
        }
        with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
        if args.trace:
            tracer.write(os.path.join(OUT, f"trace-{stem}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems[:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process; print every metric with its unit."""
    summary = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        summary[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; omit to run all three")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=int, default=25,
                        help="timed work per run, in whole rounds (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report per-layer metrics")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    os.makedirs(OUT, exist_ok=True)
    sys.path.insert(0, HERE)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
