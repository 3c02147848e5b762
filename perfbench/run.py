"""Benchmark of the qms checks: one workload per call, from the repository root.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py):

* ``sweep-small``  n = 2, 3 scenarios, 1-3 of the eight non-Fock suites each,
  sources alternating between jumps and a raw generator: per-call Python
  overhead in numkernel, modular, lindblad and bimodule;
* ``gram-heavy``   n = 4 scenarios running the three Gram suites, plus n = 5
  three-route library jobs: the n^4 Gram assembly and its eigendecomposition;
* ``fock-layers``  fock-commutant and scalar free Araki-Woods scenarios: the
  only workload that builds Fock layers.

Each workload runs in fresh Python processes with BLAS pinned to one thread
(set in the environment before numpy is imported), one closed-loop client
and no extra threads.  The benchmark writes the scenario files in set-up;
qms receives only those files, through ``qms.cli.main(["run", ...])`` or, for
n = 5, ``qms.cli.parse_scenario`` and library calls.  Every op is checked:
exit code, ``overall_pass``, the expected check names, residual <= tolerance
(library jobs: the suites' own gates).  Garbage is collected between ops,
outside the timed region, as if each op were its own ``qms run`` process.

--trace 0 reports, with tracing off:
  wall_s       time of the workload's fixed op list: the sum over its ops of
               each op's median time over the passes of the run
  op_s.p50     median over the op list of each op's median time
  setup_s      median over three processes of process start -> first timed
               op (imports, scenario files, warm-up ops)
  peak_rss_mb  ru_maxrss of the timing process
--trace 1 alternates untraced and traced passes and reports per-layer calls
and self time per traced pass (see tracer.py), and trace.overhead_frac.

The line before the last one holds details (pass and sample counts,
failed_frac, op_s.p90 where at least ten samples lie beyond it, the BLAS
setting, a digest of the reports); the last line is the result.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("sweep-small", "gram-heavy", "fock-layers")
SETUP_RUNS = 3
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
HERE = os.path.dirname(os.path.abspath(__file__))


class WorkerError(RuntimeError):
    pass


def _spawn(args, root, workdir, index, setup_only):
    out = os.path.join(workdir, f"result-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", os.path.join(root, "src"),
           "--workdir", os.path.join(workdir, f"ops-{index}"), "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        cmd += ["--spans", os.path.join(
            root, ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.csv.gz")]
    env = dict(os.environ, **BLAS_ENV)
    timeout = 60 if setup_only else args.seconds + 100
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.DEVNULL,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def _p90(samples):
    """90th percentile when at least ten samples lie beyond it, else None."""
    if len(samples) < 2:
        return None
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8]
    return p90 if sum(x > p90 for x in samples) >= 10 else None


def _op_medians(passes):
    """Each op's median time over the passes (passes: list of per-op times)."""
    return [statistics.median(times) for times in zip(*passes)]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, root, workdir):
    runs = [] if args.trace else [
        _spawn(args, root, workdir, i, setup_only=True)
        for i in range(SETUP_RUNS - 1)]
    main_run = _spawn(args, root, workdir, len(runs), setup_only=False)
    runs.append(main_run)

    failures = [f for r in runs for f in r["failures"]]
    attempted = sum(r["attempted"] for r in runs)
    samples = [t for times in main_run["op_s"] for t in times]
    p90 = _p90(samples)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "blas_threads": main_run["blas_threads"],
        "pass_s": [sum(times) for times in main_run["op_s"]],
        "ops_per_pass": len(main_run["op_s"][0]),
        "op_samples": len(samples),
        "failed_frac": _metric(len(failures) / attempted, "ratio"),
        "op_s.p90": None if p90 is None else _metric(p90, "s"),
        "setup_s.samples": [r["setup_s"] for r in runs],
        "report_digest": hashlib.sha256(
            "".join(sorted(set(main_run["digests"]))).encode()).hexdigest(),
        "failures": failures[:10],
    }
    op_med = _op_medians(main_run["op_s"])
    if args.trace:
        details["traced_passes"] = len(main_run["traced_op_s"])
        details["spans"] = main_run["spans"]
        metrics = dict(main_run["layers"])
        overhead = sum(_op_medians(main_run["traced_op_s"])) / sum(op_med) - 1.0
        metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
    else:
        metrics = {
            "wall_s": _metric(sum(op_med), "s"),
            "op_s.p50": _metric(statistics.median(op_med), "s"),
            "setup_s": _metric(statistics.median(details["setup_s.samples"]), "s"),
            "peak_rss_mb": _metric(main_run["peak_rss_mb"], "MB"),
        }
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return details, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qms", "__init__.py")):
        print("error: src/qms not found; run from the repository root",
              file=sys.stderr)
        return 2
    work_parent = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(work_parent, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    if args.trace:
        os.makedirs(os.path.join(root, ".perfbench_out"), exist_ok=True)
    try:
        details, result = measure(args, root, workdir)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_parent)
        except OSError:
            pass
    for failure in details["failures"]:
        print(f"failed op: {failure}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
