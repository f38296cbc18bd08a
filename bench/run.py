"""Benchmark of the algebroids command line, run in process.

    python3 bench/run.py --workload dims_grid --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32 --trace 1

One client in a closed loop calls ``algebroids.cli.main(argv)`` and sends
the next query only when the previous one has returned.  Queries are drawn
from ``--seed`` in whole rounds of a fixed make-up (see workloads.py) until
``--seconds`` of querying have passed.  Every answer is checked by the
oracles in oracles.py after the timed loop.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the untraced loop gets half of
``--seconds``, each round is sent a second time with every layer wrapped
(tracer.py), each query must print the same bytes both times, and the last
line holds the per-layer metrics.  ``--workload all`` runs every workload
in its own child process, one after the other.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

PROCESS_START = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 7  # the first, then one each time a seventh of the run has passed

sys.path.insert(0, BENCH_DIR)

import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_cli():
    """Import the program from this checkout's src/, dropping any copy
    imported before, so every call measures a fresh import."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "algebroids" or m.startswith("algebroids.")]:
        del sys.modules[name]
    import algebroids.cli

    where = os.path.dirname(os.path.abspath(algebroids.cli.__file__))
    if where != os.path.join(SRC, "algebroids"):
        raise RuntimeError(f"imported algebroids from {where}, not from {SRC}")
    return algebroids.cli


def call(cli, argv):
    """One query: (exit code, stdout, stderr, seconds spent in main)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(list(argv))
        dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


class Log:
    """Outcome of a sequence of rounds."""

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.rounds = []  # per round: [(case, [stdout ...], all exit codes 0)]
        self.failures = []  # (argv, stderr) of the first failed queries

    def run_round(self, cli, cases, tracer=None):
        t0 = time.perf_counter()
        done = []
        for case in cases:
            outs, ok = [], True
            for argv in case.argvs:
                if tracer is not None:
                    tracer.begin_query(argv[0])
                code, out, err, dt = call(cli, argv)
                if tracer is not None:
                    tracer.end_query()
                self.attempted += 1
                self.times.append(dt)
                if code != 0:
                    self.failed += 1
                    ok = False
                    if len(self.failures) < 5:
                        self.failures.append((argv, err.strip()))
                outs.append(out)
            done.append((case, outs, ok))
        self.wall += time.perf_counter() - t0
        self.rounds.append(done)


def generate(workload, i):
    """Round i's cases, after deleting the input files of round i - 1,
    which no query reads any more."""
    prefix = f"r{i - 1}_"
    for name in os.listdir(workload.inputs):
        if name.startswith(prefix):
            os.remove(os.path.join(workload.inputs, name))
    return workload.round(i)


def check_answers(log: Log) -> list:
    """Oracle verdicts on every case whose queries all exited 0."""
    errors = []
    for done in log.rounds:
        for case, outs, ok in done:
            if not ok:
                continue
            try:
                case.check(outs)
            except oracles.OracleError as exc:
                errors.append(f"{case.kind}: {exc}")
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                # an answer missing a field the oracle reads is a wrong answer
                errors.append(f"{case.kind}: malformed answer: {exc!r}")
    return errors


def check_repeat(first: Log, again: Log) -> list:
    """Each query of ``again`` must print what it printed in ``first``."""
    errors = []
    for done_a, done_b in zip(first.rounds, again.rounds):
        for (case, outs_a, _), (_, outs_b, _) in zip(done_a, done_b):
            for a, b in zip(outs_a, outs_b):
                try:
                    oracles.check_repeat(a, b)
                except oracles.OracleError as exc:
                    errors.append(f"{case.kind}: {exc}")
    return errors


def set_up(workload, t0: float):
    """Import, warm-up inputs and one warm-up query per command; returns
    the fresh CLI module and the seconds since ``t0``."""
    cli = load_cli()
    for argv in workload.warmup_argvs():
        code, _, err, _ = call(cli, argv)
        if code != 0:
            raise RuntimeError(f"warm-up query {argv} failed: {err.strip()}")
    return cli, time.perf_counter() - t0


def run_workload(args) -> dict:
    cls = WORKLOADS[args.workload]
    inputs = os.path.join(OUT_DIR, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(inputs)
    try:
        workload = cls(args.seed, inputs)
        cli, first = set_up(workload, PROCESS_START)
        setups = [first]
        budget = args.seconds / 2 if args.trace else args.seconds
        log, again = Log(), Log()
        tracer = Tracer()
        i = 0
        while log.wall < budget:
            cases = generate(workload, i)
            log.run_round(cli, cases)
            if args.trace:
                # each round is sent again traced right away, so that both
                # sides of trace.overhead_ratio see the same machine state
                tracer.install()
                try:
                    again.run_round(cli, cases, tracer)
                finally:
                    tracer.uninstall()
            i += 1
            # further set-ups are spread over the run, so that their median,
            # like the query metrics, samples the whole run and not its start
            if len(setups) < SETUP_REPEATS and log.wall >= len(setups) * budget / SETUP_REPEATS:
                cli, seconds = set_up(workload, time.perf_counter())
                setups.append(seconds)
        errors = check_answers(log)
        if args.trace:
            errors += check_repeat(log, again)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        metrics = tracer.metrics(again.times, log.times)
        attempted = log.attempted + again.attempted
        failed = log.failed + again.failed
        q = max(tracer.queries, 1)
        detail = {
            "share_sum": sum(v for k, (v, _) in metrics.items()
                             if k.endswith(".self_share") or k == "trace.hook_share"),
            "spans": {k: {"calls": c / q, "s": ns / 1e9 / q} for k, (c, ns) in sorted(tracer.spans.items()) if c},
            "calls_per_query_by_command": tracer.calls_per_query(),
        }
    else:
        done = log.attempted - log.failed
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "queries_per_s": (done / log.wall, "1/s"),
            "query_p50_s": (statistics.median(log.times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        attempted, failed = log.attempted, log.failed
        detail = {"setup_runs_s": setups, "query_times_s": log.times, "timed_wall_s": log.wall}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=i, errors=errors, detail=detail)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for argv, err in log.failures + again.failures:
        print(f"failed: {' '.join(argv)}: {err}", file=sys.stderr)
    for e in errors[:20]:
        print(f"oracle: {e}", file=sys.stderr)
    print(f"{args.workload}: {attempted} queries attempted, {failed} failed, "
          f"{'correct' if not errors else f'{len(errors)} wrong answers'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return result


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "algebroids", "cli.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
