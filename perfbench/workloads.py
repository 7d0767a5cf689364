"""The four benchmark workloads: seeded inputs and known answers.

Every item is one ``twistcheck`` command line.  Its known answer comes
from topology or from the slope law, never from running the program:

* closed torus: cohomology ranks (1, 2, 1), Euler characteristic 0;
* torus cut along a row: one annulus, ranks (1, 1);
* genus 3 cut along the separating S: two pieces, ranks {0: 2, 1: 6},
  under any refinement;
* torus LES at power k: with Q, N parallel (0,1) curves and S the (1,0)
  curve, rank HF(Q, tau^j N) = |j| for j != 0 and 2 for j = 0, and
  r1 = rank HF(S, N) * rank HF(Q, S) = 1;
* re-presented corpus: A is the all-ones vector on the components of the
  cut, c* fixes it, and the ranks and the degree-0 action are those of the
  base scenario (see scenario_gen.CORPUS);
* model geometry: every identity holds within the default tolerances.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from scenario_gen import CORPUS, grid_torus, re_presentation, torus_les


@dataclass
class Item:
    """One command line and the answer it must give.

    ``largest`` marks the workload's largest input; ``warmup`` the item
    run once, untimed, before measuring.
    """

    label: str
    argv: list
    check: object          # check(report dict, expect) -> reason or None
    expect: dict = field(default_factory=dict)
    largest: bool = False
    warmup: bool = False


def verdict(rc, stdout, item):
    """Why the item's outcome is wrong, or None when it is right."""
    if rc != 0:
        return f"exit status {rc}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"unreadable report: {exc}"
    if not report.get("passed"):
        return "a verdict failed"
    return item.check(report, item.expect)


def _check_cohomology(report, expect):
    data = report["data"]
    if data["ranks"] != expect["ranks"] or data["euler"] != expect["euler"]:
        return f"cohomology {data['ranks']}, expected {expect['ranks']}"
    return None


def _check_hf(report, expect):
    data = report["data"]
    if (data["ranks"] != expect["ranks"]
            or data["components"] != expect["components"]):
        return (f"hf ranks {data['ranks']} on {data['components']} "
                f"components, expected {expect['ranks']} on "
                f"{expect['components']}")
    return None


def _check_les(report, expect):
    data = report["data"]
    if data["rank_sequence"] != expect["rank_sequence"]:
        return (f"rank sequence {data['rank_sequence']}, expected "
                f"{expect['rank_sequence']}")
    if data["r1"] != expect["r1"] or data["twist_power"] != expect["k"]:
        return f"r1 {data['r1']} at power {data['twist_power']}"
    if not all(report["verdicts"].values()):
        return "an exactness verdict failed"
    return None


def _check_theorem_a(report, expect):
    data = report["data"]
    n = expect["components"]
    if data["components"] != n or data["a"] != [1] * n:
        return f"A = {data['a']}, expected all-ones on {n} components"
    if data["ranks"] != expect["ranks"]:
        return f"ranks {data['ranks']}, expected {expect['ranks']}"
    c0 = data["c_star"]["0"]
    if c0 != expect["c0"]:
        return f"degree-0 c* {c0}, expected {expect['c0']}"
    image = [sum(row[j] * data["a"][j] for j in range(n)) % 2 for row in c0]
    if image != data["a"]:
        return "c* does not fix A"
    return None


def _check_model(report, expect):
    if report["data"]["checks"] != expect["checks"]:
        return f"checks {report['data']['checks']}"
    for res in report["residuals"]:
        if not res.get("passed"):
            return f"{res['name']} residual above tolerance"
    if not all(report["verdicts"].values()):
        return "a model verdict failed"
    return None


def _write(workdir, name, spec):
    """Write the scenario file unless an identical one is already there."""
    path = Path(workdir) / name
    if not path.exists() or path.read_text(encoding="utf-8") != spec.text:
        path.write_text(spec.text, encoding="utf-8")
    return str(path)


def cohomology_refined(seed, workdir):
    rng = random.Random(seed)
    items, specs = [], []
    for n in (10, 12, 14):
        row = rng.randrange(n)
        spec = grid_torus(n, row, f"grid torus n={n}, S = row {row}")
        specs.append(spec)
        path = _write(workdir, f"grid{n}.tc", spec)
        items.append(Item(
            f"cohomology grid{n}", ["cohomology", path, "--format",
                                    "structured"],
            _check_cohomology, {"ranks": {"0": 1, "1": 2, "2": 1},
                                "euler": 0},
            largest=n == 14))
        items.append(Item(
            f"hf grid{n}", ["hf", path, "--format", "structured"],
            _check_hf, {"ranks": {"0": 1, "1": 1}, "components": 1},
            warmup=n == 10))
    items.append(Item(
        "hf genus3 x2", ["hf", "genus3", "--subdivide", "2", "--format",
                         "structured"],
        _check_hf, {"ranks": {"0": 2, "1": 6}, "components": 2}))
    return items, specs


def les_twist(seed, workdir):
    rng = random.Random(seed)
    items, specs = [], []
    for size in (10, 20, 30):
        k = size * rng.choice((1, -1))
        spec = torus_les(k, f"torus LES triple at power {k}")
        specs.append(spec)
        path = _write(workdir, f"les{size}.tc", spec)
        items.append(Item(
            f"les-check k={k}", ["les-check", path, "--format",
                                 "structured"],
            _check_les, {"rank_sequence": [2] + list(range(1, size + 1)),
                         "r1": 1, "k": k},
            largest=size == 30, warmup=size == 10))
    return items, specs


THEOREM_A_ITEMS = 1000


def theorem_a_batch(seed, workdir):
    rng = random.Random(seed)
    largest = max(sum(len(w) for w in b.faces) for b in CORPUS)
    items, specs = [], []
    for i in range(THEOREM_A_ITEMS):
        base = CORPUS[rng.randrange(len(CORPUS))]
        spec = re_presentation(base, rng, f"re-presentation {i} of "
                               f"{base.name}")
        specs.append(spec)
        path = _write(workdir, f"rep{i}.tc", spec)
        items.append(Item(
            f"theorem-a rep{i} ({base.name})",
            ["verify-theorem-a", path, "--format", "structured"],
            _check_theorem_a,
            {"components": base.components, "ranks": base.ranks,
             "c0": [list(r) for r in base.c0]},
            largest=sum(len(w) for w in base.faces) == largest,
            warmup=i == 0))
    return items, specs


MODEL_SAMPLES = 100000


def model_geometry(seed, workdir):
    checks = ["twist", "lemma", "handle", "suspension", "splitting"]
    items = [Item(f"verify-model kind={kind}",
                  ["verify-model", "--check", "all", "--dim", "3",
                   "--samples", str(MODEL_SAMPLES), "--kind", kind,
                   "--seed", str(seed), "--format", "structured"],
                  _check_model, {"checks": checks},
                  largest=True, warmup=kind == "id")
             for kind in ("id", "r")]
    return items, []


WORKLOADS = {
    "cohomology-refined": cohomology_refined,
    "les-twist": les_twist,
    "theorem-a-batch": theorem_a_batch,
    "model-geometry": model_geometry,
}
