"""Benchmark of the wreathcert CLI, end to end and per layer.

    python3 bench/run.py --workload cert-factor --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, one after another

A run imports wreathcert from ``src/`` of the checkout it sits in and
repeats passes over the workload's ops for about ``--seconds`` seconds,
always at least two passes.  Each pass runs in a fresh, single-threaded
worker process, because a CLI user starts from empty program caches on
every call.  The worker builds the inputs from the seed, then makes
each op in-process, as a ``wreathcert.cli.main(argv)`` call or a
library call, and checks its exit code and output.

With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: median over fresh processes of the time from starting
  the interpreter to the first op (imports plus input generation);
* ``pass_s``: median over passes of the seconds spent in the ops;
* ``verify_ms``: median milliseconds of one ``verify`` call;
* ``peak_rss_mb``: the largest peak resident memory of a pass process.

With ``--trace 1`` half of the time runs untraced passes and half runs
passes under the tracer of ``tracer.py``, and it reports the per-layer
metrics per traced pass, with ``trace.overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give every metric by name and unit, fail_frac, provenance,
per-op medians, every failure, and whether each known defect of
``workloads.py`` is still present; the known-defect probes are not
counted as attempted or failed ops.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer, layer_metrics, merge, time_breakdown
from workloads import WORKLOADS, Op, OpTimeout, Outcome, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"

OP_TIMEOUT_S = 60  # an op still running after this fails
RUN_LIMIT_S = 150  # no pass starts after this many seconds
KILL_AFTER_S = 175  # a pass process still running then is killed, so a run ends within 180 s
SETUP_SAMPLES = 9  # fresh processes timed for setup_s, after one warm-up
# A cert-factor pass takes about half of a 30 s run; two passes put the
# verify calls in two time windows and let pass_s be a median of two.
MIN_PASSES = 2

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "verify_ms": "ms", "peak_rss_mb": "MB"}


def import_program():
    """Import wreathcert from this checkout's src/, and nowhere else."""
    package = SRC / "wreathcert" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"bench: {package.relative_to(ROOT)} is missing; there is no program to measure")
    sys.path.insert(0, str(SRC))
    import wreathcert.certificate
    import wreathcert.cli
    import wreathcert.congruence

    if Path(wreathcert.__file__).resolve() != package.resolve():
        raise SystemExit(f"bench: imported wreathcert from {wreathcert.__file__}, not from {SRC}")
    return wreathcert


# -- the worker: one pass in a fresh process ------------------------------


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_ops(ops: list[Op], tracer: Tracer | None) -> dict:
    """Make every op once; time, check and record each."""
    signal.signal(signal.SIGALRM, _on_alarm)
    rec = {"seconds": 0.0, "op_s": {}, "verify_s": [], "attempted": 0, "failures": []}
    for op_id, op in enumerate(ops):
        rec["attempted"] += 1
        try:
            if op.prepare is not None:
                op.prepare()
        except (OSError, ValueError, KeyError) as exc:
            rec["failures"].append(f"{op.name}: {exc}")
            continue
        if tracer is not None:
            tracer.op = op_id
        rec["op_s"][op.name] = 0.0
        problems = []
        for _ in range(op.calls):
            gc.collect()
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            t0 = perf_counter()
            try:
                outcome = op.run()
            except OpTimeout:
                outcome = Outcome(error=f"still running after {OP_TIMEOUT_S} s")
            finally:
                elapsed = perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
            rec["seconds"] += elapsed
            rec["op_s"][op.name] += elapsed
            if op.verify:
                rec["verify_s"].append(elapsed)
            problems.append(outcome.error or op.check(outcome))
            if outcome.error is not None:
                break
        problem = next((p for p in problems if p is not None), None)
        if problem is not None:
            rec["failures"].append(f"{op.name}: {problem}")
    return rec


def worker(args) -> int:
    wreathcert = import_program()
    workdir = WORK_ROOT / f"bench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = Workload(args.workload, args.seed, workdir, wreathcert)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        rec = run_ops(workload.ops, tracer)
        rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            rec["trace"] = tracer.summary()
        elif args.probe_defects:
            probed = run_ops(workload.defect_probes, None)
            rec["defects"] = {op.name: None for op in workload.defect_probes}
            rec["defects"].update(f.split(": ", 1) for f in probed["failures"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(rec), flush=True)
    return 0


def spawn_worker(args, trace: int, setup_only: bool, timeout: float, probe: bool = False) -> tuple[float, dict | None]:
    """Run one worker; return its set-up seconds and its pass record.

    With ``probe`` the worker runs the known-defect probes after its pass.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    if probe:
        argv.append("--probe-defects")
    t0 = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], timeout)
            first = proc.stdout.readline() if ready else b""
            setup = perf_counter() - t0
            rest, _ = proc.communicate(timeout=max(1.0, timeout - setup))
        except subprocess.TimeoutExpired:
            rest = b""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if first.strip() != b"ready":
        raise SystemExit(f"bench: {args.workload} worker failed during set-up (exit {proc.returncode})")
    lines = rest.decode().strip().splitlines()
    if setup_only:
        return setup, None
    if proc.returncode != 0 or not lines:
        return setup, {"seconds": None, "attempted": 1, "failures": [f"pass process ended with exit {proc.returncode}"]}
    return setup, json.loads(lines[-1])


# -- the parent: passes, metrics, report ---------------------------------


def passes(args, trace: int, seconds: float, started: float) -> list[dict]:
    """MIN_PASSES passes; another only while it is expected to fit in `seconds`.

    The first untraced pass also runs the known-defect probes.
    """
    start = perf_counter()
    done, walls = [], []
    while True:
        timeout = max(1.0, KILL_AFTER_S - (perf_counter() - started))
        t0 = perf_counter()
        done.append(spawn_worker(args, trace, False, timeout, probe=not trace and not done)[1])
        walls.append(perf_counter() - t0)
        if done[-1]["seconds"] is None:
            return done
        if len(done) >= MIN_PASSES and perf_counter() - start + statistics.median(walls) > seconds:
            return done
        if perf_counter() - started > RUN_LIMIT_S:
            return done


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it, or None."""
    xs = sorted(values)
    if len(xs) < 11:
        return None
    rank = len(xs) - 11
    return {"pct": math.floor(100 * (rank + 1) / len(xs)), "value": xs[rank], "n": len(xs)}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, samples: dict, overhead: float | None) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "op_timeout_s": OP_TIMEOUT_S,
        "samples": samples,
        "trace_overhead_frac": overhead,
    }


def op_medians(records: list[dict]) -> dict[str, float]:
    names = sorted({name for r in records for name in r.get("op_s", {})})
    return {n: statistics.median(r["op_s"][n] for r in records if n in r.get("op_s", {})) for n in names}


def run_workload(args) -> int:
    import_program()  # fail before any timing when the program is missing
    started = perf_counter()
    setups = [spawn_worker(args, 0, True, OP_TIMEOUT_S)[0] for _ in range(SETUP_SAMPLES + 1)][1:]
    plain = passes(args, 0, args.seconds / 2 if args.trace else args.seconds, started)
    traced = passes(args, 1, args.seconds / 2, started) if args.trace else []
    records = plain + traced

    attempted = sum(r["attempted"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    pass_s = [r["seconds"] for r in plain if r["seconds"] is not None]
    verify_s = [v for r in records for v in r.get("verify_s", ())]
    samples = {"passes": len(plain), "setup": len(setups), "verify_calls": len(verify_s)}
    overhead = None
    if args.trace:
        traced_s = [r["seconds"] for r in traced if r["seconds"] is not None]
        overhead = statistics.median(traced_s) / statistics.median(pass_s) - 1
        samples["traced_passes"] = len(traced_s)
        summary = merge([r["trace"] for r in traced if "trace" in r])
        metrics = layer_metrics(summary, len(traced_s), overhead)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(pass_s),
            "verify_ms": 1000 * statistics.median(verify_s),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain if "peak_rss_mb" in r),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12} {name:44} {value:14.6g} {unit}")
    print(f"{args.workload:12} {'fail_frac':44} {len(failures) / attempted:14.6g} ratio ({len(failures)}/{attempted} ops)")
    print(json.dumps({"pass_s_each": pass_s, "tails": {"pass_s": tail(pass_s), "verify_ms": tail([1000 * v for v in verify_s])}}))
    print(json.dumps({"provenance": provenance(args, samples, overhead)}))
    print(json.dumps({"op_median_s": op_medians(plain)}))
    if args.trace:
        print(json.dumps({"per_traced_pass": time_breakdown(summary, len(traced_s)), "not_found": summary["missing"]}))
    print(json.dumps({"failures": sorted(set(failures))}))
    defects = next((r["defects"] for r in plain if "defects" in r), {})
    if defects:
        print(json.dumps({"known_defects": defects}))
        for name, problem in defects.items():
            if problem is not None:
                print(f"bench: known defect still present: {name}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in turn, each through its own run of this command."""
    rc = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rc = rc or subprocess.run(argv, cwd=ROOT).returncode
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="the workload to run (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-defects", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return worker(args) if args.worker else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
