#!/usr/bin/env python3
"""Closed-loop benchmark of rareflow's config pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload barrier --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

One client drives ``cli.parse_config -> cli.run_experiment -> cli.render_csv``
the way a CLI user does, one config at a time, at ``threads = nproc`` (the CLI
default).  Whole rounds of the workload's configs repeat until ``--seconds``
have passed; every estimate is then checked against a reference that shares
no code with the package (``checks.py``).

``--trace 0`` reports the end-to-end metrics.  Their times are rescaled to a
fixed host speed: a reference kernel (``reference.py``) is timed in short
bursts between the calls, and every time is multiplied by
``reference.NOMINAL_S`` over the kernel's median time in the run.

``--trace 1`` runs the same rounds three times: untraced at nproc threads,
untraced at one thread, and at one thread with every layer's public functions
wrapped (``tracing.py``); it reports the per-layer metrics, which are not
rescaled, and checks that data rows are identical across the three.  The
metric names and units come from ``BENCHMARK.json``; the last
line of standard output is the JSON result, and a fuller record (machine,
per-call times, data-row digests, failures) goes to ``perfbench/results/``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 3  # setup_s is the median of this many process set-ups
POOLED_Z_LIMIT = 5.0  # |sum z / sqrt(k)| over a run's seeded estimates of one config
CHILD_TIMEOUT_S = 900  # a workload child; its first run may compile bytecode
SETUP_TIMEOUT_S = 60
BURST_EVERY_S = 2.0  # seconds of calls between two reference bursts


@dataclass
class Call:
    label: str
    round: int
    params: dict
    seconds: float
    report: object = None
    error: str | None = None
    known_defect: bool = False
    digest: str | None = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import rareflow from this checkout's src/, never from site-packages."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import rareflow
    from rareflow import cli
    seconds = time.perf_counter() - start
    if not os.path.abspath(rareflow.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise ImportError(f"rareflow imported from {rareflow.__file__}, not from this checkout")
    return rareflow, cli, seconds


def data_digest(csv_text: str) -> str:
    """sha256 of the data rows; '# ' metadata lines carry wall time and are skipped."""
    rows = "\n".join(line for line in csv_text.splitlines() if not line.startswith("# "))
    return hashlib.sha256(rows.encode()).hexdigest()


def is_binomial_tail_overflow(exc: BaseException) -> bool:
    """The known defect of ROADMAP item 5: ``oracles.binomial_tail`` overflows a float."""
    oracles_py = os.path.join(ROOT, "src", "rareflow", "oracles.py")
    return isinstance(exc, OverflowError) and any(
        frame.name == "binomial_tail" and os.path.abspath(frame.filename) == oracles_py
        for frame in traceback.extract_tb(exc.__traceback__))


def execute(cli, label, doc, index, threads, tracer=None) -> Call:
    if tracer is not None:
        tracer.run += 1
    config = cli.parse_config(json.dumps(doc))
    start = time.perf_counter()
    try:
        report = cli.run_experiment(config, threads=threads)
        text = cli.render_csv(report)
    except Exception as exc:  # a failing call is a failed operation, scored later
        return Call(label, index, doc, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}",
                    known_defect=is_binomial_tail_overflow(exc))
    return Call(label, index, doc, time.perf_counter() - start, report, None, data_digest(text))


def run_round(cli, base, workload, seed, index, threads, tracer=None):
    calls = [execute(cli, label, doc, index, threads, tracer)
             for label, doc in workloads.round_configs(base, workload, seed, index)]
    return calls, sum(c.seconds for c in calls)


def run_pass(cli, base, workload, seed, threads, budget, ref):
    """Whole rounds until ``budget`` seconds have passed.

    A reference burst runs before the first call, after every ``BURST_EVERY_S``
    seconds of calls and after the last call.
    """
    calls = []
    ref.burst()
    since_burst = 0.0
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < budget:
        for label, doc in workloads.round_configs(base, workload, seed, index):
            calls.append(execute(cli, label, doc, index, threads))
            since_burst += calls[-1].seconds
            if since_burst >= BURST_EVERY_S:
                ref.burst()
                since_burst = 0.0
        index += 1
    if since_burst:
        ref.burst()
    return calls


def round_seconds(calls) -> list[float]:
    totals: dict[int, float] = {}
    for call in calls:
        totals[call.round] = totals.get(call.round, 0.0) + call.seconds
    return [totals[i] for i in sorted(totals)]


def run_traced(cli, base, workload, seed, threads, budget, tracer):
    """Rounds until ``budget``, each run untraced at nproc threads, untraced at
    one thread, then traced at one thread; interleaving keeps drift in machine
    speed out of the 1-thread versus traced comparison."""
    passes = {"nproc": ([], []), "one": ([], []), "traced": ([], [])}
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < budget:
        for name, n_threads in (("nproc", threads), ("one", 1), ("traced", 1)):
            if name == "traced":
                tracer.install()
            try:
                batch, seconds = run_round(cli, base, workload, seed, index, n_threads,
                                           tracer if name == "traced" else None)
            finally:
                tracer.uninstall()
            passes[name][0].extend(batch)
            passes[name][1].append(seconds)
        index += 1
    return passes


def warm_up(rareflow, cli, base, workload, seed, threads) -> float:
    """One call of each config at a small replication count; returns its time."""
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _, doc in workloads.warmup_configs(base, workload, seed):
            config = cli.parse_config(json.dumps(doc))
            try:
                cli.render_csv(cli.run_experiment(config, threads=threads))
            except rareflow.RareflowError:
                pass  # e.g. too few hits to fit a ladder at the warm-up size
    return time.perf_counter() - start


def setup_samples(args, own: float) -> list[float]:
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def score(calls, workload):
    """(attempted, failed, correct, failure reasons) of one pass.

    Every estimate counts once; a miss counts as a failed operation.  A call
    that raises makes the run incorrect, unless it is the large-n Bernoulli
    probe failing in the known ``oracles.binomial_tail`` overflow.  On the
    committed-config workloads every check is deterministic, so any miss, or a
    data row that changes between identical rounds, makes the run incorrect.
    On short-configs single 4-SE misses happen by chance, so ``correct`` there
    rests on the pooled z of each config over the run.
    """
    deterministic = workload in workloads.COMMITTED
    attempted = failed = 0
    correct = True
    reasons = []
    pooled: dict[str, list[float]] = {}
    digests: dict[str, set] = {}
    for call in calls:
        expected = checks.expected_estimates(call.params)
        attempted += expected
        if call.error is not None:
            failed += expected
            correct = correct and call.label == workloads.PROBE and call.known_defect
            reasons.append(f"{call.label} round {call.round}: {call.error}")
            continue
        digests.setdefault(call.label, set()).add(call.digest)
        for est in checks.check_report(call.params, call.report):
            if not est.ok:
                failed += 1
                correct = correct and not deterministic
                reasons.append(f"{call.label} round {call.round}: {est.reason}")
            if est.z is not None:
                pooled.setdefault(call.label, []).append(est.z)
    if deterministic:
        for label, seen in digests.items():
            if len(seen) > 1:
                correct = False
                reasons.append(f"{label}: data rows differ between identical rounds")
    else:
        for label, zs in pooled.items():
            z = sum(zs) / math.sqrt(len(zs))
            if abs(z) > POOLED_Z_LIMIT:
                correct = False
                reasons.append(f"{label}: pooled z {z:+.2f} over {len(zs)} estimates")
    return attempted, failed, correct, reasons


def time_x_re2(calls, speed) -> float:
    """Geometric mean over configs of median call seconds x median RE^2 of the
    rarest rung, with the seconds rescaled by ``speed`` as ``wall_s`` is."""
    seconds: dict[str, list[float]] = {}
    re2: dict[str, list[float]] = {}
    for call in calls:
        seconds.setdefault(call.label, []).append(call.seconds * speed)
        if call.error is None and call.label != workloads.PROBE:
            re = checks.rarest_relative_error(call.params, call.report)
            if math.isfinite(re):
                re2.setdefault(call.label, []).append(re * re)
    logs = [math.log(statistics.median(seconds[label]) * statistics.median(v)) for label, v in re2.items()]
    return math.exp(sum(logs) / len(logs)) if logs else math.nan


def compare_digests(reference, *others):
    """Indices of calls whose data rows differ from the reference pass."""
    return [i for i, call in enumerate(reference)
            if any(other[i].digest != call.digest for other in others)]


def machine_record(rareflow, threads) -> dict:
    import numpy
    import scipy

    record = {"nproc": os.cpu_count(), "threads": threads, "mc_batch_size": rareflow.mc.BATCH_SIZE,
              "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
              "platform": platform.platform(), "cpu_model": platform.processor(), "caches": {}}
    try:
        with open("/proc/cpuinfo") as handle:
            record["cpu_model"] = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, index, key)) as handle:
                    fields[key] = handle.read().strip()
            record["caches"][f"L{fields['level']}{fields['type'][0].lower()}"] = fields["size"]
    except OSError:
        pass
    return record


def declared_metrics(trace: int) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def emit(args, metrics, attempted, failed, correct, reasons, record) -> int:
    units = declared_metrics(args.trace)
    missing = [name for name in units if name not in metrics or not math.isfinite(metrics[name])]
    if missing:
        print(f"perfbench: could not measure {missing}", file=sys.stderr)
        for reason in reasons[:20]:
            print(f"  {reason}", file=sys.stderr)
        return 1
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()}}
    record.update(result)
    record["failures"] = reasons
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=1)
    for name, unit in units.items():
        print(f"{args.workload:14s} {name:40s} {metrics[name]:.6g} {unit}")
    print(f"{args.workload:14s} {'fail_frac':40s} {failed / attempted:.6g} ({failed} of {attempted} estimates)")
    for reason in reasons[:10]:
        print(f"{args.workload:14s}   failure: {reason}")
    print(json.dumps(result))
    return 0


def call_records(calls, threads):
    return [{"label": c.label, "round": c.round, "threads": threads, "seconds": c.seconds,
             "rarest_rel_error": None if c.error else checks.rarest_relative_error(c.params, c.report),
             "digest": c.digest, "error": c.error} for c in calls]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(ROOT, "src", "rareflow", "__init__.py")):
        print("perfbench: no rareflow source at src/rareflow beside perfbench/", file=sys.stderr)
        return 2
    rareflow, cli, import_s = import_package()
    # the benchmark's own modules load after the package, so import_s is the package's alone
    global checks, reference, tracing, workloads
    import checks
    import reference
    import tracing
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.NAMES} or all", file=sys.stderr)
        return 2
    threads = os.cpu_count() or 1
    base = workloads.load_committed(ROOT)
    warm_s = warm_up(rareflow, cli, base, args.workload, args.seed, threads)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - PROCESS_START}))
        return 0
    lazy_s = warm_s - warm_up(rareflow, cli, base, args.workload, args.seed, threads) if args.trace else 0.0
    own_setup = time.perf_counter() - PROCESS_START
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(rareflow, threads)}

    if not args.trace:
        ref = reference.Reference(threads)
        try:
            calls = run_pass(cli, base, args.workload, args.seed, threads, args.seconds, ref)
        finally:
            ref.close()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = setup_samples(args, own_setup)
        attempted, failed, correct, reasons = score(calls, args.workload)
        speed = ref.speed()
        rounds = round_seconds(calls)
        metrics = {"wall_s": statistics.median(rounds) * speed, "time_x_re2": time_x_re2(calls, speed),
                   "setup_s": statistics.median(setups) * speed, "peak_rss_mb": peak_rss_mb}
        record.update(rounds=rounds, reference_bursts=ref.bursts, speed=speed, setup_samples=setups,
                      calls=call_records(calls, threads))
        return emit(args, metrics, attempted, failed, correct, reasons, record)

    tracer = tracing.Tracer("rareflow")
    passes = run_traced(cli, base, args.workload, args.seed, threads, args.seconds, tracer)
    (calls_n, rounds_n), (calls_1, rounds_1), (calls_t, rounds_t) = passes.values()
    attempted, failed, correct, reasons = score(calls_n, args.workload)
    for i in compare_digests(calls_1, calls_n, calls_t):
        call = calls_1[i]
        failed += checks.expected_estimates(call.params)
        correct = False
        reasons.append(f"{call.label} round {call.round}: data rows differ between 1 and {threads} threads or under tracing")
    metrics = tracing.summarize(tracer)
    metrics.update({
        "mc.scaling_eff": sum(rounds_1) / (threads * sum(rounds_n)),
        "trace.overhead_frac": (sum(rounds_t) - sum(rounds_1)) / sum(rounds_1),
        "setup.import_s": import_s,
        "setup.lazy_s": lazy_s,
    })
    record.update(rounds={"nproc": rounds_n, "one": rounds_1, "traced": rounds_t},
                  calls=call_records(calls_n, threads) + call_records(calls_1, 1))
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.spans.jsonl"), "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(dict(zip(("id", "parent", "name", "start", "end", "run"), span))) + "\n")
    return emit(args, metrics, attempted, failed, correct, reasons, record)


def run_all(args) -> int:
    """Run every workload in a fresh process and print its metrics."""
    import workloads

    for name in workloads.NAMES:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write("\n".join(out.stdout.strip().splitlines()[:-1]) + "\n")
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
