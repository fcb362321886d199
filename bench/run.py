"""paradoxlab benchmark: the CLI end to end, and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload loops --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 25
    python3 bench/run.py --workload all --seed 1 --seconds 25 --repeat 10

One process is one closed-loop client: it drives ``cli.parse`` +
``cli.execute`` in-process, one invocation at a time, and checks every
output against an independent reference (``check.py``). A workload is a
seeded round of invocations (``inputs.py``), replayed until ``--seconds``
are used up. The process is pinned to one CPU, and a probe thread samples
that CPU's speed (``speed.py``), so that every latency can be rescaled to
one reference host speed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one round
untraced and the same round traced, checks that every traced output is
byte-identical to its untraced twin, and prints per-layer calls, self time
and counters (``spans.py``). ``--workload all`` runs every workload in its
own process. ``--repeat N`` is the steadiness mode: N untraced runs per
workload on seeds seed..seed+N-1 with each metric's median and quartiles,
then two traced runs on one seed whose counts must repeat exactly.

The last line of stdout is one JSON object. Without the paradoxlab
sources next to this directory the benchmark exits non-zero before
printing it.
"""

import os

# One BLAS/OpenMP thread in this process and every process it starts; set
# before numpy loads. Two threads on two cores doubled the run-to-run spread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("verified_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Cold starts per run; one more runs first, untimed, to fill file caches.
COLD_STARTS = 7
COLD_START_TIMEOUT_S = 170
# A whole run, traced or not, in --workload all and --repeat.
RUN_TIMEOUT_S = 900
# The tail is the highest of these percentiles with at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def load_program() -> dict:
    """Import paradoxlab from ``src/`` next to this directory, nowhere else."""
    package = SRC / "paradoxlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: paradoxlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import paradoxlab
    from paradoxlab import circuit, cli, ctc, descriptor, epr, errors, qmath, szilard

    if Path(paradoxlab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported paradoxlab from {paradoxlab.__file__}")
    return {"qmath": qmath, "circuit": circuit, "descriptor": descriptor, "epr": epr,
            "szilard": szilard, "ctc": ctc, "cli": cli, "errors": errors}


def environment() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"python {platform.python_version()} | numpy {numpy.__version__} | "
            f"BLAS {blas} | nproc {os.cpu_count()} "
            f"(affinity {len(os.sched_getaffinity(0))}) | {threads}")


# -- one workload ------------------------------------------------------------------


class Outcome:
    """One attempted invocation: its latency and whether it verified."""

    def __init__(self, spec, start, latency, text, code, error):
        self.spec, self.start, self.latency, self.text = spec, start, latency, text
        if error:
            self.status, self.reason = "raised", error
        elif code:
            self.status, self.reason = "exit", f"exit code {code}"
        else:
            reason = check.check(spec, text)
            self.status, self.reason = ("ok", None) if reason is None else ("wrong", reason)

    @property
    def wrong(self) -> bool:
        """A wrong answer, as opposed to the known defect its spec expects."""
        expected = self.spec.get("expected_failure")
        return self.status != "ok" and not (
            expected and self.status == "raised" and self.reason.startswith(expected + ":"))


def attempt(spec, program, tracer=None, index=0) -> Outcome:
    """Run one invocation; only the invocation itself is timed."""
    cli, errors = program["cli"], program["errors"]
    start = time.perf_counter()
    if tracer is None:
        text, code, error = check.invoke(cli, errors, spec["argv"])
    else:
        with tracer.invocation(index, spec["argv"]):
            text, code, error = check.invoke(cli, errors, spec["argv"])
    return Outcome(spec, start, time.perf_counter() - start, text, code, error)


def play(round_, program, keep_text=True):
    """Run a round once, untraced; ``keep_text=False`` drops checked outputs."""
    outcomes = [attempt(spec, program) for spec in round_]
    if not keep_text:
        for out in outcomes:
            out.text = None
    return outcomes


def cold_start(spec) -> tuple:
    """(start, seconds, ok) from spawning a fresh interpreter to its first verified output."""
    cmd = [sys.executable, str(BENCH / "coldstart.py"), str(SRC), json.dumps(spec)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], COLD_START_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=COLD_START_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return start, elapsed, line.strip() == "ok" and proc.returncode == 0


def self_test(outcomes) -> tuple:
    """Corrupt one verified output of each kind and format; all must be rejected."""
    seen, caught, missed = set(), 0, []
    for out in outcomes:
        spec = out.spec
        key = (spec["kind"], spec.get("family"), spec.get("demo"), spec["format"])
        if out.status != "ok" or key in seen:
            continue
        seen.add(key)
        for name, text in check.corruptions(out.text).items():
            if check.check(spec, text) is None:
                missed.append(f"{name} corruption of {' '.join(spec['argv'])}")
            else:
                caught += 1
    return caught, missed


def tail(latencies) -> tuple:
    """(value, percentile, samples beyond it) for the highest qualifying percentile."""
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return ordered[rank - 1], p, len(ordered) - rank
    return ordered[-1], 100.0, 0


def short_argv(spec) -> str:
    return " ".join(os.path.basename(a) if os.sep in a else a for a in spec["argv"])


def run_workload(args) -> int:
    program = load_program()
    cpu = speed.pin_to_one_cpu()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        round_ = inputs.make_round(args.workload, args.seed, str(workdir),
                                   program["qmath"].save_unitary)
        print(f"paradoxlab benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds} s, trace {args.trace}")
        print(f"environment: {environment()} | pinned to CPU {cpu}")
        if args.trace:
            return traced_run(args, program, round_)
        return timed_run(args, program, round_)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def timed_run(args, program, round_) -> int:
    with speed.SpeedProbe() as probe:
        cold = [cold_start(round_[0]) for _ in range(COLD_STARTS + 1)][1:]
        play(round_[:1], program)  # warm-up, untimed
        passes, elapsed = play_passes(args.seconds, program, round_)
    # Every play of invocation k, in pass order.
    replay = [k for k, spec in enumerate(round_) if not spec.get("once")]
    plays = [[passes[0][k]] for k in range(len(round_))]
    for replayed in passes[1:]:
        for k, out in zip(replay, replayed):
            plays[k].append(out)

    setup_s = statistics.median(probe.rescale(start, t) for start, t, _ in cold)
    # An invocation's latency is the median of its plays, each rescaled to
    # the reference host speed.
    latency = [statistics.median(probe.rescale(o.start, o.latency) for o in p) for p in plays]
    verified = sum(all(o.status == "ok" for o in p) for p in plays)
    outcomes = [o for p in plays for o in p]
    tail_s, tail_p, beyond = tail(latency)
    caught, missed = self_test(passes[0])
    correct = all(ok for _, _, ok in cold) and not missed and not any(o.wrong for o in outcomes)

    metrics = {
        "ops_per_s": verified / sum(latency),
        "latency_p50_ms": statistics.median(latency) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "verified_frac": verified / len(round_),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = sorted(len(p) for p in plays)
    print(f"closed loop, 1 client: {len(passes)} pass(es) over a round of {len(round_)} "
          f"invocations, {counts[0]}..{counts[-1]} plays each, {len(outcomes)} attempted, "
          f"{sum(o.latency for o in outcomes):.3f} s in invocations, {elapsed:.3f} s measured")
    print(f"speed probe: {len(probe)} samples, median {probe.median_s() * 1e3:.4f} ms CPU, "
          f"reference {speed.REFERENCE_S * 1e3:g} ms")
    slowest = max(range(len(round_)), key=latency.__getitem__)
    print(f"slowest invocation: {latency[slowest] * 1e3:.6g} ms at reference speed, "
          f"{statistics.median(o.latency for o in plays[slowest]) * 1e3:.6g} ms wall "
          f"[{short_argv(round_[slowest])}]")
    notes = {
        "latency_tail_ms": f"p{tail_p:g}, {beyond} of {len(latency)} invocations beyond",
        "setup_s": f"median of {COLD_STARTS} cold starts, wall: "
                   + " ".join(f"{t:.3f}" for _, t, _ in cold),
    }
    for name, unit in END_TO_END:
        print(f"  {name:<16} {metrics[name]:.6g} {unit}  {notes.get(name, '')}".rstrip())
    print(f"  {'failed_frac':<16} {1 - verified / len(round_):.6g} frac  "
          f"({len(round_) - verified} of {len(round_)} invocations raised, exited non-zero "
          f"or failed their check in some play)")
    report_failures(outcomes)
    print(f"self-test: {caught} corrupted outputs rejected, {len(missed)} accepted")
    for line in missed:
        print(f"  accepted: {line}")
    emit(correct, len(outcomes), sum(o.wrong for o in outcomes),
         {name: (metrics[name], unit) for name, unit in END_TO_END})
    return 0


def play_passes(seconds, program, round_) -> tuple:
    """The first pass plays the whole round; later passes skip the "once"
    invocations. Stops at the pass boundary nearest to ``seconds``."""
    start = time.perf_counter()
    passes = [play(round_, program)]
    first_s = time.perf_counter() - start
    replay = [spec for spec in round_ if not spec.get("once")]
    while replay:
        elapsed = time.perf_counter() - start
        if len(passes) > 1:
            per_pass = (elapsed - first_s) / (len(passes) - 1)
        else:
            per_pass = sum(o.latency for o in passes[0] if not o.spec.get("once"))
        if elapsed + per_pass / 2 >= seconds:
            break
        passes.append(play(replay, program, keep_text=False))
    return passes, time.perf_counter() - start


def traced_run(args, program, round_) -> int:
    play(round_[:1], program)  # warm-up, untimed
    tracer = spans.Tracer(program["errors"].NoConvergence)
    layers = {k: v for k, v in program.items() if k != "errors"}
    plain, traced = [], []
    # Each invocation runs untraced and then traced, back to back, and both
    # are rescaled to the reference speed, so that a change in the host's
    # speed does not pass for tracing overhead.
    with speed.SpeedProbe() as probe:
        for index, spec in enumerate(round_):
            plain.append(attempt(spec, program))
            tracer.install(layers)
            try:
                traced.append(attempt(spec, program, tracer, index))
            finally:
                tracer.uninstall()
    differ = [t for p, t in zip(plain, traced) if p.text != t.text]
    untraced_s = sum(probe.rescale(o.start, o.latency) for o in plain)
    traced_s = sum(probe.rescale(o.start, o.latency) for o in traced)
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "frac")
    caught, missed = self_test(plain)
    correct = not differ and not missed and not any(o.wrong for o in plain + traced)

    TRACE_OUT.mkdir(exist_ok=True)
    path = TRACE_OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(str(path))
    print(f"one round of {len(round_)} invocations, each untraced then traced, at the "
          f"reference speed: {untraced_s:.3f} s untraced, "
          f"{traced_s:.3f} s traced; {len(tracer)} spans written to "
          f"{path.relative_to(ROOT)}")
    print(f"stdout byte-identical with tracing on: {len(round_) - len(differ)} of {len(round_)}")
    for out in differ:
        print(f"  differs: {short_argv(out.spec)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    report_failures(traced)
    print(f"self-test: {caught} corrupted outputs rejected, {len(missed)} accepted")
    emit(correct, len(traced), sum(o.wrong for o in traced), metrics)
    return 0


def report_failures(outcomes) -> None:
    counts = {}
    for out in outcomes:
        if out.status != "ok":
            key = ("failed" if out.wrong else "known defect",
                   f"{out.reason} [{short_argv(out.spec)}]")
            counts[key] = counts.get(key, 0) + 1
    for (kind, what), n in sorted(counts.items()):
        print(f"  {kind} x{n}: {what}")


def emit(correct, attempted, failed, metrics) -> None:
    """The result line. ``failed`` counts wrong plays only: the known defect
    a spec names in ``expected_failure`` is printed above, not counted."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


# -- several runs in child processes -------------------------------------------------


def child(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"error: {' '.join(cmd[1:])} exited {proc.returncode}\n{proc.stderr}")
    return {"lines": lines[:-1], "result": json.loads(lines[-1])}


def run_all(args) -> int:
    results = {}
    for workload in inputs.WORKLOADS:
        out = child(workload, args.seed, args.seconds, args.trace)
        print("\n".join(out["lines"]))
        print()
        results[workload] = out["result"]
    emit(all(r["correct"] for r in results.values()),
         sum(r["attempted"] for r in results.values()),
         sum(r["failed"] for r in results.values()),
         {f"{w}.{name}": (m["value"], m["unit"])
          for w, r in results.items() for name, m in r["metrics"].items()})
    return 0


def run_steady(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    summary, steady = {}, True
    for workload in workloads:
        runs = [child(workload, args.seed + i, args.seconds, 0)["result"]
                for i in range(args.repeat)]
        print(f"{workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/median':>10} {'bound':>6}")
        summary[workload] = {}
        for name, _ in END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread <= bounds[name] / 3
            steady &= ok
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {name:<16} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>10.4f} {bounds[name]:>6}{'' if ok else '  WIDE'}")
        fracs = sorted({r["metrics"]["verified_frac"]["value"] for r in runs})
        correct = all(r["correct"] for r in runs)
        steady &= len(fracs) == 1 and correct
        print(f"  verified_frac over the runs: {fracs}; all correct: {correct}")
        traced = [child(workload, args.seed, args.seconds, 1)["result"] for _ in range(2)]
        counts = [{k: m["value"] for k, m in r["metrics"].items()
                   if not k.endswith(".self_s") and k != "trace.overhead_frac"}
                  for r in traced]
        same = counts[0] == counts[1]
        steady &= same and all(r["correct"] for r in traced)
        print(f"  per-layer counts repeat exactly over two traced runs of seed "
              f"{args.seed}: {same}; trace overhead "
              + ", ".join(f"{r['metrics']['trace.overhead_frac']['value']:.4f}" for r in traced))
    print(json.dumps({"steady": steady, "workloads": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: this many runs per workload (at least 10)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if args.repeat:
        if args.repeat < 10:
            parser.error("--repeat needs at least 10 runs")
        load_program()
        return run_steady(args)
    if args.workload == "all":
        load_program()
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
