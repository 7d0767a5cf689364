"""twistcheck benchmark: four closed-loop workloads driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are generated from ``--seed`` (see workloads.py) and written as
scenario files under ``perfbench/_work/<workload>-<seed>/``.  The files are
left in place: on a disk mounted with online discard, deleting a thousand
written files can take longer than the run itself.  One process drives
``twistcheck.cli.main`` one item at a time: the next item starts when the
previous verdict is back (a closed loop with one client).
The loop runs whole passes over the workload's fixed item list and starts
a new pass while fewer than ``--seconds`` have elapsed.  Every verdict is
checked against its known answer; a nonzero exit, an exception or a wrong
answer counts as a failed item.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, untraced:

* per-item time: the median of the item's times over the passes;
* items_per_s: items / sum of per-item times;
* item_p50_ms, item_p90_ms: nearest-rank percentiles of per-item times;
* largest_item_s: median per-item time over the items marked largest;
* setup_s: median over fresh interpreters (setup_probe.py) of the time to
  import twistcheck.cli and run the warm-up item;
* peak_rss_mib: ru_maxrss of this process.

``--trace 1`` alternates untraced and traced passes (tracing.py) and
reports the per-layer metrics of BENCHMARK.json.  Counts and seconds are
per traced pass over the item list.  ``trace.span_coverage`` is the share of
item wall time inside spans, ``trace.overhead`` the untraced items_per_s
over the traced one.

The last line of standard output is the JSON result; the lines before it
give the metrics as a table, ``failed_ratio``, and the environment (nproc,
Python and numpy versions, seed).
"""

import os

# Fixed before numpy is imported: one BLAS/OpenMP thread per run.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import scenario_gen  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, verdict  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
FAILURES_SHOWN = 5


def import_program():
    """twistcheck.cli from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from twistcheck import cli, fileformat
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import twistcheck from {src}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: twistcheck was imported from {cli.__file__}, "
                 f"not from {src}")
    return cli, fileformat


def run_item(cli, item, tracer=None, item_id=None):
    """(seconds to verdict, reason the item failed or None)."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin_item(item_id)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            status = cli.main(item.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed item
            status = exc
        dt = perf_counter() - t0
    if tracer is not None:
        tracer.end_item(dt)
    if isinstance(status, BaseException):
        return dt, f"{type(status).__name__}: {status}"
    why = verdict(status, out.getvalue(), item)
    if why and err.getvalue():
        why += f" ({err.getvalue().strip()})"
    return dt, why


def closed_loop(cli, items, seconds, tracer=None):
    """Whole passes over items until `seconds` have elapsed."""
    samples = [[] for _ in items]
    failures = []
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for idx, item in enumerate(items):
            dt, why = run_item(cli, item, tracer, idx)
            samples[idx].append(dt)
            if why:
                failures.append(f"{item.label}: {why}")
        passes += 1
    return samples, failures, passes


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def timing_metrics(items, samples):
    per_item = [statistics.median(s) for s in samples]
    return {
        "items_per_s": len(items) / sum(per_item),
        "item_p50_ms": 1000 * nearest_rank(per_item, 0.5),
        "item_p90_ms": 1000 * nearest_rank(per_item, 0.9),
        "largest_item_s": statistics.median(
            t for t, item in zip(per_item, items) if item.largest),
    }


def setup_seconds(warmup):
    """Median wall time of fresh interpreters running setup_probe.py, and
    the reasons any of them failed."""
    times, failures = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *warmup.argv],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            failures.append(f"set-up probe {warmup.label}: exit status "
                            f"{proc.returncode} "
                            f"{proc.stderr.decode(errors='replace').strip()}")
    return statistics.median(times), failures


def layer_value(name, totals, passes, n_items):
    """One per-layer metric, per pass over the item list."""
    layer, _, kind = name.rpartition(".")
    calls, self_s, size, _ = totals.get(layer, (0, 0.0, 0, 0.0))
    if kind == "calls":
        return calls / passes
    if kind == "self_s":
        return self_s / passes
    if kind in ("entries", "darts"):
        return size / passes
    if name == "pipeline.cuts_per_item":
        return totals.get("surface.cut_along", (0,))[0] / passes / n_items
    if name == "modelgeo.samples_per_s":
        spans = [totals[f"modelgeo.{v}"] for v in tracing.MODEL_VERIFIERS
                 if f"modelgeo.{v}" in totals]
        busy = sum(t[3] for t in spans)
        return sum(t[2] for t in spans) / busy if busy else 0.0
    raise KeyError(f"no rule computes the per-layer metric {name!r}")


def end_to_end(cli, items, warmup, seconds):
    """Untraced end-to-end metrics, plus (attempted, failures, passes).

    The set-up probes and the warm-up count as attempted items."""
    values = {}
    values["setup_s"], failures = setup_seconds(warmup)
    _, warm_failure = run_item(cli, warmup)
    samples, more, passes = closed_loop(cli, items, seconds)
    values.update(timing_metrics(items, samples))
    values["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
    if warm_failure:
        failures.append(f"warm-up {warmup.label}: {warm_failure}")
    attempted = SETUP_PROBES + 1 + sum(len(s) for s in samples)
    return values, attempted, failures + more, passes


def per_layer(cli, items, warmup, seconds, declared):
    """Per-layer metrics from alternating untraced and traced passes."""
    _, warm_failure = run_item(cli, warmup)
    plain = [[] for _ in items]
    traced = [[] for _ in items]
    failures = []
    passes = 0
    tracer = tracing.Tracer()
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        samples, more, _ = closed_loop(cli, items, 0)
        failures += more
        for acc, new in zip(plain, samples):
            acc.extend(new)
        undo = tracing.install(tracer)
        try:
            samples, more, _ = closed_loop(cli, items, 0, tracer)
        finally:
            tracing.restore(undo)
        failures += more
        for acc, new in zip(traced, samples):
            acc.extend(new)
        passes += 1
    values = {}
    for name in (m["name"] for m in declared):
        if name == "trace.span_coverage":
            values[name] = tracer.covered_s / tracer.item_wall_s
        elif name == "trace.overhead":
            values[name] = (timing_metrics(items, plain)["items_per_s"]
                            / timing_metrics(items, traced)["items_per_s"])
        else:
            values[name] = layer_value(name, tracer.totals, passes,
                                       len(items))
    if warm_failure:
        failures.append(f"warm-up {warmup.label}: {warm_failure}")
    attempted = 1 + sum(len(s) for s in plain + traced)
    return values, attempted, failures, passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    cli, fileformat = import_program()
    import numpy

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    items, specs = WORKLOADS[args.workload](args.seed, workdir)
    mismatches = [why for why in (scenario_gen.round_trip(
        s, fileformat.parse_text) for s in specs) if why]
    warmup = next(item for item in items if item.warmup)
    if args.trace:
        values, attempted, failures, passes = per_layer(
            cli, items, warmup, args.seconds, declared)
    else:
        values, attempted, failures, passes = end_to_end(
            cli, items, warmup, args.seconds)

    for line in mismatches + failures[:FAILURES_SHOWN]:
        print(f"perfbench: {line}", file=sys.stderr)
    env = {"workload": args.workload, "seed": args.seed,
           "trace": args.trace, "passes": passes, "items": len(items),
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__,
           "threads": {v: os.environ[v] for v in THREAD_VARS}}
    print("# env " + json.dumps(env, sort_keys=True))
    for m in declared:
        print(f"# {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"# {'failed_ratio':<40} {len(failures) / attempted:>14.6g} "
          f"ratio ({len(failures)} of {attempted} items)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": not failures and not mismatches,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
