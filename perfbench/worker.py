"""One workload process: set up, warm up, then time passes over the op list.

Started by ``run.py`` with the BLAS thread count already fixed in the
environment, so numpy is imported under it.  Writes its result as JSON to
``--out``; the op reports and scenario files live in ``--workdir``.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was spawned")
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="where --trace 1 writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import qms
    if not os.path.abspath(qms.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"qms imported from {qms.__file__}, not from {args.src}")
    import workloads

    failures = []
    digests = []

    def run_checked(op):
        t = time.perf_counter()
        try:
            result = workloads.run_op(op)
            error = None
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if error is None:
            ok, digest, why = workloads.check_op(op, result)
        else:
            ok, digest, why = False, "", error
        digests.append(digest)
        if not ok:
            failures.append(f"{op['name']}: {why}")
        # ops are independent jobs: free one op's cyclic garbage before the
        # next op starts, outside the timed region
        gc.collect()
        return dt

    warm, ops = workloads.write_ops(args.workload, args.seed, args.workdir)
    for op in warm:
        run_checked(op)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "warmup_ops": len(warm),
           "blas_threads": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}}
    if not args.setup_only:
        out.update(_timed(args, ops, run_checked))
    out["attempted"] = len(digests)
    out["failures"] = failures
    out["digests"] = digests
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w") as fh:
        json.dump(out, fh)


def _timed(args, ops, run_checked):
    """Passes over the op list within --seconds.

    A pass starts only if at least half of it is expected to fit within
    --seconds (taking the last pass as the estimate), except that the first
    pass, and with --trace 1 the first traced pass, always run.  With --trace 1, untraced and traced
    passes alternate, so that the tracing overhead is measured in the same
    process.
    """
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    plain, traced = [], []      # per pass: the time of each op
    op_id = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        tracing = tracer is not None and len(traced) < len(plain)
        if tracing:
            tracer.install()
        times = []
        for op in ops:
            if tracing:
                tracer.op = op_id
            op_id += 1
            times.append(run_checked(op))
        if tracing:
            tracer.uninstall()
            traced.append(times)
        else:
            plain.append(times)
        now = time.perf_counter()
        if (now - start) + 0.5 * (now - pass_start) > args.seconds and \
                (tracer is None or traced):
            break
    out = {"op_s": plain}
    if tracer is not None:
        out["traced_op_s"] = traced
        out["layers"] = tracer.summary(len(traced))
        out["spans"] = len(tracer.spans)
        tracer.write(args.spans)
    return out


if __name__ == "__main__":
    main()
