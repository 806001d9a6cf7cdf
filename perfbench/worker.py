"""One benchmark process: set up a workload, run its cases, print a JSON
result as the last line of standard output.  Started by run.py.

The worker prints "ready" once set-up is done (run.py times set-up from
process start to that line), then, by --mode:

  setup   exit (one more set-up sample)
  timed   run whole rounds until the cases' own wall time reaches --seconds
  rounds  run the workload's fixed trace rounds (one when --quick), the
          case set of a traced comparison

With --trace the tracer is installed right after `import trapsurf`, before
the workload builds anything.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from layers import KEY_COUNTERS

ROOT = Path(__file__).resolve().parents[1]


def import_trapsurf():
    """Import trapsurf from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import trapsurf

    if not Path(trapsurf.__file__).resolve().is_relative_to(src):
        raise ImportError(f"trapsurf imported from {trapsurf.__file__}, not {src}")


def run_case(case, tracer, workloads):
    """Time one case, then check it; a raise or a failed check is recorded."""
    covered0 = tracer.covered_s if tracer else 0.0
    counts0 = [tracer.stats.get(k, (0,))[0] for k in KEY_COUNTERS] if tracer else None
    error = None
    t0 = time.perf_counter()
    try:
        outputs = case.run()
    except Exception as exc:  # a failing case is counted, the run goes on
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    wall = time.perf_counter() - t0
    record = {"name": case.name, "kind": case.kind, "nodes": case.nodes,
              "wall_s": wall, "props": case.props}
    if tracer:
        record["covered_s"] = tracer.covered_s - covered0
        record["calls"] = {k: tracer.stats.get(k, (0,))[0] - c0
                           for k, c0 in zip(KEY_COUNTERS, counts0)}
    values = None
    if error is None:
        try:
            values = case.check(outputs)
        except workloads.CheckFailed as exc:
            error = f"CheckFailed: {exc}"
        except Exception as exc:
            error = f"{type(exc).__name__} in check: {exc}"
            traceback.print_exc(file=sys.stderr)
    record["error"] = error
    record["digest"] = None if values is None else workloads.digest(values)
    return record


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "sympy": metadata.version("sympy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "rounds"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    import_trapsurf()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOAD_CLASSES[args.workload](
            args.seed, args.quick, str(workdir))
        workload.setup()
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        rounds = 1 if args.quick else workload.trace_rounds
        records = []
        index = 0
        case_time = 0.0
        while True:
            for case in workload.round(index):
                record = run_case(case, tracer, workloads)
                records.append(record)
                case_time += record["wall_s"]
            index += 1
            if args.mode == "rounds" and index >= rounds:
                break
            if args.mode == "timed" and case_time >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another worker's directory is still there
            pass
    result = {
        "rounds": index,
        "records": records,
        "setup_refs": [list(r) for r in getattr(workload, "setup_refs", ())],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer:
        result["trace"] = {
            "stats": tracer.stats,
            "instantiate_distinct": len(tracer.instantiated),
            "grid_nodes_returned": tracer.grid_nodes_returned,
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
