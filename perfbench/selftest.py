"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that a deliberately wrong known
answer is counted as a failed item on every workload, that the scenario
generator round-trips through the parser (and that a corrupted spec does
not), that tracing patches and restores every binding without changing
report bytes, that self time is computed from nested spans, and that
BENCHMARK.json and layer_map.json agree.  Exits 1 on the first failure.
"""

import contextlib
import copy
import io
import json
import random
import re
import sys
from pathlib import Path

import run  # sets the thread variables before numpy is imported
import scenario_gen
import tracing
from workloads import CORPUS, WORKLOADS

HERE = Path(__file__).resolve().parent


def check(cond, what):
    if not cond:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def cheapest(items, workload):
    """A quick item of the workload, with a small sample count for models."""
    item = copy.deepcopy(next(i for i in items if i.warmup))
    if workload == "model-geometry":
        item.argv[item.argv.index("--samples") + 1] = "2000"
    return item


def wrong(expect):
    """The same known answer with one value changed."""
    bad = copy.deepcopy(expect)
    key = sorted(bad)[0]
    value = bad[key]
    if isinstance(value, dict):
        value[sorted(value)[0]] += 1
    elif isinstance(value, list):
        value.append(value[-1])
    else:
        bad[key] = value + 1
    return bad


def workdir(name):
    """A directory per workload and seed, as run.py uses: rewriting a
    thousand flushed files can be slow on disks mounted with discard."""
    path = HERE / "_work" / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def known_answers(cli):
    for name, build in sorted(WORKLOADS.items()):
        items, _ = build(7, workdir(f"{name}-7"))
        item = cheapest(items, name)
        _, failures, _ = run.closed_loop(cli, [item], 0)
        check(not failures, f"{name}: right known answer passes "
              f"({item.label})")
        item.expect = wrong(item.expect)
        samples, failures, _ = run.closed_loop(cli, [item], 0)
        check(len(failures) == len(samples[0]) == 1,
              f"{name}: wrong known answer is counted as a failure "
              f"({failures[0] if failures else 'not counted'})")


def generator(parse_text):
    rng = random.Random(11)
    specs = [scenario_gen.grid_torus(4, 1, "grid"),
             scenario_gen.torus_les(-3, "les")]
    specs += [scenario_gen.re_presentation(base, rng, "rep")
              for base in CORPUS for _ in range(5)]
    check(all(scenario_gen.round_trip(s, parse_text) is None
              for s in specs),
          f"{len(specs)} generated scenario files round-trip")
    bad = copy.deepcopy(specs[-1])
    bad.faces[0] = bad.faces[0][1:] + bad.faces[0][:1]
    check(scenario_gen.round_trip(bad, parse_text) is not None,
          "a spec that disagrees with its text fails the round trip")
    bad = copy.deepcopy(specs[-1])
    sym = next(iter(bad.involution))
    bad.involution[sym] = sym
    check(scenario_gen.round_trip(bad, parse_text) is not None,
          "a wrong involution image fails the round trip")


def bindings():
    """Every (namespace, key, value) of the twistcheck modules, including
    the values of module-level dicts."""
    out = []
    for name, mod in list(sys.modules.items()):
        if not (name == "twistcheck" or name.startswith("twistcheck.")):
            continue
        for key, value in vars(mod).items():
            out.append((name, key, value))
            if type(value) is dict:
                out += [(f"{name}.{key}", k, v) for k, v in value.items()]
    return out


def patching(cli):
    from twistcheck import floer, gf2, scenarios, surface
    layers = {"surface": surface, "gf2": gf2}

    def methods():
        return [getattr(layers[layer], cls).__dict__[attr]
                for layer, cls, attr, _ in tracing.METHODS]

    originals = {id(fn) for _, fn in tracing.targets()}
    plain_methods = methods()
    before = bindings()
    items, _ = WORKLOADS["theorem-a-batch"](7, workdir("theorem-a-batch-7"))
    plain = run_report(cli, items[0])

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        left = [f"{ns}.{k}" for ns, k, v in bindings() if id(v) in originals]
        check(not left, f"no binding keeps an unwrapped function {left}")
        check(floer.cut_along is surface.cut_along
              and hasattr(floer.cut_along, "__traced_original__"),
              "floer's from-import of cut_along is patched")
        check(all(hasattr(fn, "__traced_original__")
                  for fn in scenarios.BUILDERS.values()),
              "scenarios.BUILDERS dispatches through spans")
        check(hasattr(surface.Curve.is_contractible, "__traced_original__"),
              "Curve.is_contractible is patched on the class")
        tracer.begin_item(0)
        traced = run_report(cli, items[0])
        tracer.end_item(1.0)
    finally:
        tracing.restore(undo)
    check(traced == plain, "tracing leaves the report bytes unchanged")
    check(tracer.totals["gf2.rref"][0] > 0
          and tracer.totals["cli.main"][0] == 1,
          "spans were recorded for gf2.rref and cli.main")
    after = bindings()
    check([(ns, k, id(v)) for ns, k, v in after]
          == [(ns, k, id(v)) for ns, k, v in before],
          "restore puts every module binding back")
    check(all(a is b for a, b in zip(methods(), plain_methods)),
          "restore puts every class method back")


def run_report(cli, item):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(item.argv)
    return out.getvalue()


def self_time():
    # item 0: root [0, 10] with children [1, 4] and [5, 9]; [5, 9] has a
    # child [6, 7].  Item 1 reuses span ids and must not mix with item 0.
    spans = [(0, 0, -1, "root", 0.0, 10.0), (0, 1, 0, "a", 1.0, 4.0),
             (0, 2, 0, "b", 5.0, 9.0), (0, 3, 2, "a", 6.0, 7.0),
             (1, 0, -1, "root", 20.0, 22.0), (1, 1, 0, "a", 20.5, 21.0)]
    got = tracing.self_times(spans)
    check(got == {"root": (2, 4.5, 12.0), "a": (3, 4.5, 4.5),
                  "b": (1, 3.0, 4.0)},
          f"self time from nested spans of one item {got}")


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def declarations():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    check(all(NAME.match(n) for n in names) and len(set(names))
          == len(names), "names are valid and unique")
    check(all(len(w["why"]) <= 200 for w in spec["workloads"]),
          "every why fits in 200 characters")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
          "bounds are at most 0.25")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json lists the workloads of workloads.py")
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    mapped = set()
    for entry in layer_map["layers"]:
        mapped |= set(entry["metrics"])
        check(set(entry["metrics"]) <= per_layer,
              f"layer {entry['layer']} names declared per-layer metrics")
        for claim in entry["should_move"]:
            check(claim["metric"] in e2e and claim["workload"] in WORKLOADS,
                  f"layer {entry['layer']} claim {claim}")
        check(set(entry["should_not_move"]) <= set(WORKLOADS),
              f"layer {entry['layer']} no-change workloads")
    check(per_layer - mapped <= {"trace.span_coverage", "trace.overhead"},
          "every per-layer metric belongs to a layer")


def main():
    cli, fileformat = run.import_program()
    known_answers(cli)
    patching(cli)
    generator(fileformat.parse_text)
    self_time()
    declarations()
    print("selftest passed")


if __name__ == "__main__":
    main()
