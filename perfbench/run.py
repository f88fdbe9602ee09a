"""Run one benchmark workload of cpsfds and print its metrics.

    python3 perfbench/run.py --workload sweep1d --seed 1 --seconds 40 --trace 0

Run from anywhere: the library is imported from the `src` directory next
to this one, never from an installed copy.  The run repeats whole rounds of
the workload's operations until the next round would pass `--seconds`,
then checks the first round's outputs against independent references and
the later rounds' outputs for bit-identity with the first.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1`
alternates plain and traced rounds and reports the per-layer metrics.  The
last line of standard output is one JSON object; a copy, with per-round
figures and the traced call tree, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5                # at least this many set-up samples


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this fresh process, print "
                             "it in seconds and exit")
    return parser.parse_args(argv)


def import_library():
    """Import cpsfds from SRC; fail if it is missing or comes from
    elsewhere."""
    if not (SRC / "cpsfds" / "__init__.py").is_file():
        raise SystemExit(f"cpsfds sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import cpsfds
    import cpsfds.cli
    if Path(cpsfds.__file__).resolve().parent != SRC / "cpsfds":
        raise SystemExit(f"imported cpsfds from {cpsfds.__file__}")


def timed_setup(workload, seed):
    """Seconds to import cpsfds and build every grid and initial state the
    workload uses, in this process."""
    t0 = perf_counter()
    import_library()
    t_import = perf_counter() - t0
    import workloads
    ops = workloads.WORKLOADS[workload](seed, OUT).ops()
    t0 = perf_counter()
    for op in ops:
        op.setup()
    return t_import + perf_counter() - t0


def setup_sample(workload, seed):
    """One set-up, timed inside a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-probe"],
        check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def solve_targets(captured):
    """Spans on the two marchers, kept on in every round: they time the
    solve for cell_steps_per_s and hand its output to the checks."""
    from spans import Target

    def count(args, kwargs, result):
        U, log = result
        captured.append((U, log))
        cells = U[0].size
        return {"steps": log.steps, "cell_steps": cells * log.steps}

    return [Target("cpsfds.solver1d", "advance", "solver1d.advance", count),
            Target("cpsfds.euler2d", "advance_2d", "euler2d.advance_2d",
                   count)]


def layer_targets():
    """Spans of the traced rounds, one per layer boundary."""
    from spans import Target

    def faces_1d(args, kwargs, result):
        return {"faces": len(args[1])}

    def faces_2d(args, kwargs, result):
        grid = args[1]
        return {"faces": (grid.ni + 1) * grid.nj + grid.ni * (grid.nj + 1)}

    def output_bytes(args, kwargs, result):
        out = args[0].out
        return {"bytes": os.path.getsize(out) if out else 0}

    return [
        Target("cpsfds.state", "cons_to_prim_arrays",
               "state.cons_to_prim_arrays"),
        Target("cpsfds.fds1d", "interface_flux_batch",
               "fds1d.interface_flux_batch", faces_1d),
        Target("cpsfds.solver1d", "compute_dt", "solver1d.compute_dt"),
        Target("cpsfds.solver1d", "muscl_reconstruct",
               "solver1d.muscl_reconstruct"),
        Target("cpsfds.bench1d", "reference_profile",
               "bench1d.reference_profile"),
        Target("cpsfds.bench1d", "error_norms", "bench1d.error_norms"),
        Target("cpsfds.euler2d", "cons_to_prim_fields",
               "euler2d.cons_to_prim_fields"),
        Target("cpsfds.euler2d", "compute_dt_2d", "euler2d.compute_dt_2d"),
        Target("cpsfds.euler2d", "residual_2d", "euler2d.residual_2d",
               faces_2d),
        Target("cpsfds.euler2d", "cartesian_grid", "euler2d.grid"),
        Target("cpsfds.euler2d", "ramp_grid", "euler2d.grid"),
        Target("cpsfds.euler2d", "half_cylinder_grid", "euler2d.grid"),
        Target("cpsfds.euler2d", "run_case_2d", "euler2d.run_case_2d"),
        Target("cpsfds.cli", "run", "cli.output", output_bytes),
    ]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(res, path=None):
    h = hashlib.blake2b(digest_size=16)
    for U, log in res.solves:
        h.update(U.tobytes())
        h.update(repr((log.steps, log.t)).encode())
    if res.error is not None:
        h.update(res.error.encode())
    if path is not None and os.path.exists(path):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_round(ops, captured):
    from workloads import OpResult
    results = {}
    wall = 0.0
    for op in ops:
        captured.clear()
        res = OpResult()
        t0 = perf_counter()
        try:
            res.value = op.fn()
        except Exception as err:     # a failed operation is counted, not fatal
            res.error = f"{type(err).__name__}: {err}"
        wall += perf_counter() - t0
        res.solves = list(captured)
        results[op.id] = res
    return wall, results


def add_spans(total, tracer):
    """Add one round's span statistics to the running totals."""
    for key, table in (("spans", tracer.by_name), ("edges", tracer.by_edge)):
        for name, stats in table.items():
            acc = total[key].setdefault(name, {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0})
            acc["calls"] += stats.calls
            acc["total_s"] += stats.total_s
            acc["self_s"] += stats.self_s
            for counter, value in stats.counters.items():
                acc[counter] = acc.get(counter, 0) + value


def per_round(table, rounds):
    """Totals over the traced rounds as per-round values; counts that
    divide evenly stay whole numbers."""
    def share(v):
        if isinstance(v, int) and v % rounds == 0:
            return v // rounds
        return v / rounds
    return {name: {k: share(v) for k, v in stats.items()}
            for name, stats in table.items()}


def layer_value(metric, by_name, extra):
    if metric in extra:
        return extra[metric]
    span, _, field = metric.rpartition(".")
    stats = by_name.get(span)
    if stats is None:
        return 0.0 if field.endswith("_s") else 0
    value = stats.get(field)
    if value is None:
        raise KeyError(f"span {span!r} records no {field!r}")
    return value


def main(argv=None):
    args = parse_args(argv)
    # Each workload runs single-threaded, whatever the machine offers; set
    # before numpy is first imported here or in a set-up probe.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "cpsfds" / "__init__.py").is_file():
        print(f"cpsfds sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(timed_setup(args.workload, args.seed)))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {names}")
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")

    import_library()
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    ops = workload.ops()
    csv_path = getattr(workload, "path", None)
    captured = []
    plain = spans.Tracer(solve_targets(captured))
    traced = spans.Tracer(layer_targets() + solve_targets(captured))

    # set-up samples are spread over the run, one before each round, so
    # that their median does not hang on the machine's speed at one moment
    setup_times = []
    rounds = []
    first = reference = None
    mismatched = []
    span_totals = {"spans": {}, "edges": {}}
    start = perf_counter()
    while True:
        # plain and traced rounds alternate; round 1 is plain
        is_traced = args.trace == 1 and len(rounds) % 2 == 1
        tracer = traced if is_traced else plain
        if args.trace == 0:
            setup_times.append(setup_sample(args.workload, args.seed))
        tracer.reset()
        with tracer:
            wall, results = run_round(ops, captured)
        solves = [tracer.by_name[n] for n in ("solver1d.advance",
                                              "euler2d.advance_2d")
                  if n in tracer.by_name]
        if is_traced:
            add_spans(span_totals, tracer)
        digests = {k: digest(r, csv_path) for k, r in results.items()}
        if first is None:
            first, reference = results, digests
        else:
            mismatched.append([k for k in digests
                               if digests[k] != reference[k]])
        rounds.append({"traced": is_traced, "wall_s": wall,
                       "solve_s": sum(s.total_s for s in solves),
                       "cell_steps": sum(s.counters["cell_steps"]
                                         for s in solves),
                       "peak_rss_mb": peak_rss_mb(),
                       "raised": [k for k, r in results.items()
                                  if r.error is not None]})
        elapsed = perf_counter() - start
        if len(rounds) >= 1 + args.trace and \
                elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    while args.trace == 0 and len(setup_times) < SETUP_SAMPLES:
        setup_times.append(setup_sample(args.workload, args.seed))

    # checks: round 1 against the oracles, later rounds against round 1
    check_failures = workload.check(first)
    known = workload.known_faults
    failed_checks = {op_id for op_id, _ in check_failures}
    failed = 0
    for k, rnd in enumerate(rounds):
        failed += len(failed_checks.union(rnd["raised"],
                                          mismatched[k - 1] if k else []))
    attempted = len(rounds) * len(ops)
    correct = failed_checks <= set(known) and not any(mismatched)
    for op_id, msg in check_failures:
        tag = "KNOWN FAULT" if op_id in known else "CHECK FAILED"
        print(f"{tag} {op_id}: {msg}")
    for op_id in sorted(set(known) - failed_checks):
        print(f"KNOWN FAULT NOT SEEN {op_id}: {known[op_id]}")
    for op_id in rounds[0]["raised"]:
        print(f"RAISED {op_id}: {first[op_id].error}")
    for k, ids in enumerate(mismatched, start=2):
        for op_id in ids:
            print(f"NOT REPRODUCED in round {k}: {op_id}")

    plain_rounds = [r for r in rounds if not r["traced"]]
    metrics = {}
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "rounds": rounds, "setup_times_s": setup_times,
              "check_failures": check_failures}
    if args.trace == 0:
        # averages over the rounds: the machine's speed drifts by up to
        # 2x over tens of seconds, and the mean of a run's rounds spreads
        # less from run to run than their median or minimum
        values = {
            "wall_s": statistics.mean(r["wall_s"] for r in rounds),
            "cell_steps_per_s": sum(r["cell_steps"] for r in rounds)
            / sum(r["solve_s"] for r in rounds),
            "setup_s": statistics.median(setup_times),
            # the first round is one job in a fresh process, as a user
            # runs it; later rounds only add the allocator's reuse pattern
            "peak_rss_mb": rounds[0]["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    else:
        traced_rounds = [r for r in rounds if r["traced"]]
        n = len(traced_rounds)
        by_name = per_round(span_totals["spans"], n)
        mean_wall = sum(r["wall_s"] for r in traced_rounds) / n
        extra = {
            "trace.overhead_s": mean_wall - statistics.mean(
                r["wall_s"] for r in plain_rounds),
            "trace.wall_s": mean_wall,
            "trace.unattributed_s":
                mean_wall - sum(s["self_s"] for s in by_name.values()),
        }
        values = {m["name"]: layer_value(m["name"], by_name, extra)
                  for m in spec["per_layer"]}
        wanted = spec["per_layer"]
        detail["spans"] = by_name
        detail["call_tree"] = [
            {"parent": parent, "span": name, **stats}
            for (parent, name), stats in sorted(
                per_round(span_totals["edges"], n).items(),
                key=lambda kv: -kv[1]["total_s"])]
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail["result"] = result
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1, default=str) + "\n",
                        encoding="utf-8")
    print(f"{args.workload}: {len(rounds)} rounds, details in "
          f"{out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
