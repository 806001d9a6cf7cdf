"""trapsurf benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every workload runs in fresh worker
processes (worker.py), one closed-loop client each, starting no threads of
its own; BLAS threads stay at the library default.

--trace 0 prints the end-to-end metrics.  Set-up time is the median over
five fresh processes (four set-up-only probes and the timed one); the timed
process then runs whole rounds of cases until their wall time reaches
--seconds.

--trace 1 prints the per-layer metrics.  It runs a fixed set of rounds
three times: untraced, traced, traced again.  The checked outputs of all
three must agree digest for digest, and the two traced runs must make
exactly the same calls.

The last line of standard output is the result object; the line before it
holds the run's settings, input properties and any failing cases.  The exit
code is 0 when every case passed its reference check, 1 when one did not,
and 2 when the benchmark could not run at all.
"""

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify_horizon", "variation_oracle", "pointwise_identity",
             "catalog_build")
SETUP_PROBES = 4
DEADLINE_S = 170.0  # the whole run, all workers included
TAIL_BEYOND = 10    # the tail percentile keeps at least this many cases above it
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark itself could not run (as opposed to a failing case)."""


def spawn(worker_args, deadline):
    """Run one worker; return (set-up seconds to its 'ready' line, result)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + worker_args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    chunks, ready_at = [], None
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchmarkError(f"worker {' '.join(worker_args)} ran out of time")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
            if ready_at is None and b"\n" in chunk:
                ready_at = time.perf_counter() - t0
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = b"".join(chunks).decode().splitlines()
    if code != 0 or not lines or lines[0] != "ready":
        raise BenchmarkError(f"worker {' '.join(worker_args)} failed with exit code {code}")
    return ready_at, json.loads(lines[-1]) if len(lines) > 1 else None


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "trapsurf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine():
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "blas_threads": {v: os.environ.get(v, "unset (library default, at most nproc)")
                         for v in BLAS_THREAD_VARS},
    }


def settings(args, worker_env):
    return dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, quick=args.quick, commit=git_commit(),
        source_sha256=source_digest(),
        benchmark_versions={"python": worker_env["python"], "numpy": worker_env["numpy"],
                            "sympy": worker_env["sympy"]},
        blas=worker_env["blas"], **machine())


def input_properties(result):
    """What the cases share: kinds and grid sizes, the mix of dimensions,
    derivative modes and horizon sides, and how often catalog refs repeat."""
    records = result["records"]
    kinds = {}
    for rec in records:
        entry = kinds.setdefault(rec["kind"], {"cases": 0, "nodes_per_case": rec["nodes"]})
        entry["cases"] += 1
    mix = {}
    for rec in records:
        for label, count in rec["props"].get("counts", {}).items():
            mix[label] = mix.get(label, 0) + count
    refs = [tuple(map(str, r)) for r in result["setup_refs"]]
    refs += [tuple(map(str, r)) for rec in records for r in rec["props"].get("refs", ())]
    return {
        "cases": len(records),
        "rounds": result["rounds"],
        "nodes": sum(r["nodes"] for r in records),
        "kinds": kinds,
        "mix": mix,
        "catalog_refs": len(refs),
        "catalog.instantiate.distinct_frac": len(set(refs)) / len(refs) if refs else 0.0,
    }


def kind_p50_ms(records):
    walls = {}
    for rec in records:
        walls.setdefault(rec["kind"], []).append(rec["wall_s"])
    return {kind: 1e3 * statistics.median(w) for kind, w in sorted(walls.items())}


def failures(records):
    return [{"name": r["name"], "error": r["error"]} for r in records if r["error"]]


def end_to_end(result, setup_samples):
    walls = sorted(r["wall_s"] for r in result["records"])
    n = len(walls)
    tail_index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "cases_per_s": (n / sum(walls), "1/s"),
        "case_p50_ms": (1e3 * statistics.median(walls), "ms"),
        "case_tail_ms": (1e3 * walls[tail_index], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }
    tail = {"percentile": 100.0 * (tail_index + 1) / n, "samples": n,
            "cases_beyond": n - 1 - tail_index}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, tail


def run_end_to_end(args, deadline):
    worker = ["--workload", args.workload, "--seed", str(args.seed)]
    worker += ["--quick"] if args.quick else []
    samples = [spawn(worker + ["--mode", "setup"], deadline)[0]
               for _ in range(1 if args.quick else SETUP_PROBES)]
    ready, result = spawn(worker + ["--mode", "timed", "--seconds", str(args.seconds)],
                          deadline)
    samples.append(ready)
    metrics, tail = end_to_end(result, samples)
    records = result["records"]
    failed = failures(records)
    details = {
        "settings": settings(args, result["environment"]),
        "inputs": input_properties(result),
        "tail": tail,
        "kind_p50_ms": kind_p50_ms(records),
        "setup_samples_s": samples,
        "failed_frac": len(failed) / len(records),
        "failures": failed,
    }
    return metrics, len(records), failed, details


def run_traced(args, deadline):
    worker = ["--workload", args.workload, "--seed", str(args.seed), "--mode", "rounds"]
    worker += ["--quick"] if args.quick else []
    _, plain = spawn(worker, deadline)
    _, traced = spawn(worker + ["--trace"], deadline)
    _, again = spawn(worker + ["--trace"], deadline)
    records = traced["records"]
    failed = failures(records)
    mismatched = sorted({r["name"] for other in (plain, again)
                         for r, o in zip(records, other["records"])
                         if o["digest"] != r["digest"]})
    if any(len(o["records"]) != len(records) for o in (plain, again)):
        mismatched.append("(case lists differ)")
    counts = {k: v[0] for k, v in traced["trace"]["stats"].items()}
    counts_again = {k: v[0] for k, v in again["trace"]["stats"].items()}
    counts_repeat = (counts == counts_again
                     and traced["trace"]["instantiate_distinct"]
                     == again["trace"]["instantiate_distinct"]
                     and traced["trace"]["grid_nodes_returned"]
                     == again["trace"]["grid_nodes_returned"])
    failed += [{"name": name, "error": "digest differs between traced and untraced runs"}
               for name in mismatched]
    if not counts_repeat:
        failed.append({"name": "(trace)",
                       "error": "call counts differ between traced runs"})
    by_kind = {}
    for rec in records:
        entry = by_kind.setdefault(rec["kind"], {"nodes": 0, "calls": {}})
        entry["nodes"] += rec["nodes"]
        for key, count in rec["calls"].items():
            entry["calls"][key] = entry["calls"].get(key, 0) + count
    calls_per_node = {
        kind: {k: c / e["nodes"] for k, c in e["calls"].items() if c}
        for kind, e in by_kind.items() if e["nodes"]}
    self_by_layer = {}
    for key, (_, _, self_s) in traced["trace"]["stats"].items():
        layer = layers.layer_of(key)
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + self_s
    details = {
        "settings": settings(args, traced["environment"]),
        "inputs": input_properties(traced),
        "trace_rounds": traced["rounds"],
        "digests_match": not mismatched,
        "counts_repeat": counts_repeat,
        "calls_per_node_by_kind": calls_per_node,
        "self_s_by_layer": self_by_layer,
        "failed_frac": len(failed) / len(records),
        "failures": failed,
    }
    return layers.compute(traced, plain), len(records), failed, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a handful of small cases per workload, for the tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "trapsurf" / "__init__.py").is_file():
        print(f"perfbench: no trapsurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        runner = run_traced if args.trace else run_end_to_end
        metrics, attempted, failed, details = runner(args, deadline)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for item in failed:
        print(f"perfbench: FAILED {item['name']}: {item['error']}", file=sys.stderr)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
