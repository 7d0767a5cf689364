"""Command line interface.

Surface verbs take an INPUT that is either the name of a built-in
scenario (see twistcheck.scenarios.BUILDERS) or the path of a scenario
file in the format of twistcheck.fileformat.  verify-model runs the
numerical certification of the local model instead and takes no INPUT.

Exit status: 0 when every requested verdict passes, 1 when a verdict
fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import fileformat as ff
from . import floer as fl
from . import modelgeo as mg
from . import pipeline as pl
from . import surface as sf
from .report import VerificationReport, emit_report, graded, matrix
from .scenarios import BUILDERS, TwistScenario

SURFACE_VERBS = ("hf", "element-a", "involution", "verify-theorem-a",
                 "les-check", "twist", "cohomology", "cut")
INVOLUTION_VERBS = ("involution", "verify-theorem-a")
MODEL_CHECKS = ("twist", "lemma", "handle", "suspension", "splitting")
MODEL_TOLERANCES = {"twist": 1e-5, "lemma": 1e-9, "handle": 1e-9,
                    "suspension": 1e-9, "splitting": 1e-5}


class CliError(ValueError):
    pass


def _load_scenario(source: str) -> TwistScenario:
    if source in BUILDERS:
        return BUILDERS[source]()
    return ff.load(source).scenario()


def _subdivided(scenario: TwistScenario, rounds: int) -> TwistScenario:
    """Transport a scenario through global refinement.

    Involutions are dropped: transporting an involution through
    refinement is not implemented yet (ROADMAP item 3), so involution
    verbs refuse --subdivide.
    """
    new, parts = scenario.surface.refined(rounds)

    def move(c):
        return None if c is None else c.mapped(new, parts)

    return TwistScenario(
        new, scenario.description + f" (subdivided x{rounds})",
        move(scenario.s_curve), None,
        q_curve=move(scenario.q_curve), n_curve=move(scenario.n_curve),
        twist_power=scenario.twist_power,
        curves={k: move(c) for k, c in scenario.curves.items()})


def _run_hf(scenario, args) -> VerificationReport:
    dims, cut = pl.hf_inverse_twist(scenario)
    return VerificationReport(
        "hf ranks", scenario.description,
        data={"ranks": graded(dims), "total": dims.total(),
              "components": len(cut.components)})


def _run_element_a(scenario, args) -> VerificationReport:
    a = pl.distinguished_element(scenario)
    return VerificationReport(
        "distinguished element A", scenario.description,
        data={"a": a.as_list()},
        verdicts={"a_nonzero": bool(a.vector.any())})


def _run_involution(scenario, args) -> VerificationReport:
    ind = pl.involution_action(scenario)
    verdicts = {
        "degree0_is_permutation": pl._is_permutation(ind[0]),
        "squares_to_identity": pl._squares_to_identity(ind),
    }
    return VerificationReport(
        "involution action", scenario.description,
        data={"c_star": {str(k): matrix(m) for k, m in sorted(ind.items())}},
        verdicts=verdicts)


def _run_cohomology(scenario, args) -> VerificationReport:
    dims = sf.cellular_cohomology(sf.cut_along(scenario.surface, []))
    return VerificationReport(
        "cellular cohomology", scenario.description,
        data={"ranks": graded(dims), "euler": dims.euler()})


def _run_cut(scenario, args) -> VerificationReport:
    cut = sf.cut_along(scenario.surface, [scenario.s_curve])
    comps = [{"euler": c.euler(), "annulus": c.is_annulus(),
              "boundary_circles": len(c.boundary)}
             for c in cut.components]
    return VerificationReport(
        "cut along S", scenario.description,
        data={"components": comps, "count": len(comps)})


def _run_twist(scenario, args) -> VerificationReport:
    pl.cut_along_s(scenario)  # rejects a contractible S before the twist
    table = dict(scenario.curves)
    for c in (scenario.s_curve, scenario.q_curve, scenario.n_curve):
        if c is not None and c.name:
            table.setdefault(c.name, c)
    name = args.curve
    if name is None:
        if scenario.n_curve is None:
            raise CliError("no curve to twist: pass --curve NAME or "
                           "provide an n curve in the scenario")
        target = scenario.n_curve
    elif name in table:
        target = table[name]
    else:
        raise CliError(f"unknown curve {name!r}; available: "
                       + ", ".join(sorted(table)))
    k = args.power if args.power is not None else scenario.twist_power
    out = fl.dehn_twist(scenario.surface, scenario.s_curve, k, [target])
    return VerificationReport(
        f"dehn twist tau^{k}", scenario.description,
        data={"curve": list(target.symbols()),
              "twisted": list(out.twisted[0].symbols()),
              "power": k})


_VERB_RUNNERS = {
    "hf": _run_hf,
    "element-a": _run_element_a,
    "involution": _run_involution,
    "verify-theorem-a": lambda s, a: pl.verify_theorem_A(s),
    "les-check": lambda s, a: pl.les_rank_check(s),
    "twist": _run_twist,
    "cohomology": _run_cohomology,
    "cut": _run_cut,
}


def _model_profile(args) -> mg.ProfileFunction:
    if args.lam is not None:
        return mg.ProfileFunction("admissible", args.epsilon, args.lam)
    return mg.ProfileFunction("dehn", args.epsilon)


def _run_model(args) -> VerificationReport:
    if args.samples < 1:
        raise CliError("--samples must be at least 1")
    if args.tolerance is not None and not 0 <= args.tolerance < float("inf"):
        raise CliError("--tolerance must be a finite number >= 0")
    # the verifiers square sample norms of up to 3 epsilon, which
    # overflows past about 4.5e153
    if not 0 < args.epsilon <= 1e150:
        raise CliError("--epsilon must be a number > 0 and <= 1e150")
    checks = MODEL_CHECKS if args.check == "all" else (args.check,)
    nu = _model_profile(args)
    reports = []
    for check in checks:
        tol = (args.tolerance if args.tolerance is not None
               else MODEL_TOLERANCES[check])
        if check == "twist":
            rep = mg.verify_model_twist(nu, args.dim, args.samples,
                                        seed=args.seed, tolerance=tol)
        elif check == "lemma":
            rep = mg.verify_lemma_identities(args.kind, args.dim,
                                             args.samples, seed=args.seed,
                                             tolerance=tol)
        elif check == "handle":
            rep = mg.verify_handle_symmetry(args.kind, nu, args.dim,
                                            args.samples, seed=args.seed,
                                            tolerance=tol)
        elif check == "suspension":
            rep = mg.verify_suspension_symmetry(args.kind, nu, args.dim,
                                                args.samples,
                                                seed=args.seed,
                                                tolerance=tol)
        else:
            rep = mg.verify_involution_splitting(args.kind, nu, args.dim,
                                                 args.samples,
                                                 seed=args.seed,
                                                 tolerance=tol)
        reports.append((check, rep))
    return VerificationReport(
        "model geometry checks",
        f"T*S^{args.dim}, kind={args.kind}, profile={nu.kind}, "
        f"samples={args.samples}, seed={args.seed}",
        data={"checks": [c for c, _ in reports]},
        verdicts={c: r.passed for c, r in reports},
        residuals=[r.as_dict() for _, r in reports])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    main() call: parse_args leaves it unchanged and returns a fresh
    namespace each time."""
    parser = argparse.ArgumentParser(
        prog="twistcheck",
        description="verification toolkit for Dehn twists, involutions "
                    "and Floer rank bookkeeping on surfaces")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "structured"),
                       default="table", help="output rendering")
        p.add_argument("--out", default=None,
                       help="write the report to this path instead of "
                            "stdout")

    for verb in SURFACE_VERBS:
        p = sub.add_parser(verb)
        p.add_argument("input",
                       help="built-in scenario name ("
                            + ", ".join(sorted(BUILDERS))
                            + ") or scenario file path")
        p.add_argument("--subdivide", type=int, default=0, metavar="N",
                       help="globally refine the surface N times first")
        if verb == "twist":
            p.add_argument("--curve", default=None,
                           help="name of the curve to twist (defaults "
                                "to the scenario's n curve)")
            p.add_argument("--power", type=int, default=None,
                           help="twist power (defaults to the "
                                "scenario's twist setting)")
        common(p)

    p = sub.add_parser("verify-model")
    p.add_argument("--check", choices=MODEL_CHECKS + ("all",),
                   default="all")
    p.add_argument("--kind", choices=("id", "r"), default="id",
                   help="base involution kind")
    p.add_argument("--dim", type=int, default=2,
                   help="sphere dimension n of T*S^n")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--epsilon", type=float, default=1.0,
                   help="profile support radius")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="use an admissible profile with this nu(0) "
                        "instead of the Dehn profile")
    p.add_argument("--tolerance", type=float, default=None,
                   help="override the per-check default tolerance")
    p.add_argument("--seed", type=int, default=0,
                   help="random seed of the sampled checks")
    common(p)
    return parser


# argparse takes a value such as "-inf" or "-1e5" for an option: only
# "-1" or "-.5" look to it like negative numbers
_FLOAT_OPTIONS = ("--epsilon", "--lambda", "--tolerance")


def _glue_float_values(argv):
    """argv with each "--opt -x" of a float option written "--opt=-x", so
    that the range checks, not argparse, judge the value."""
    out = []
    for arg in argv:
        if out and out[-1] in _FLOAT_OPTIONS and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _glue_float_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.verb == "verify-model":
            report = _run_model(args)
        else:
            scenario = _load_scenario(args.input)
            if args.subdivide < 0:
                raise CliError("--subdivide must be nonnegative")
            if args.subdivide > 0:
                if args.verb in INVOLUTION_VERBS:
                    raise CliError(
                        f"{args.verb} cannot be combined with "
                        "--subdivide: cell involutions do not transport "
                        "through refinement")
                scenario = _subdivided(scenario, args.subdivide)
            report = _VERB_RUNNERS[args.verb](scenario, args)
    except (CliError, ff.FileFormatError, sf.SurfaceError,
            fl.NonTransverseError, pl.PipelineError, mg.ModelError,
            OSError) as exc:
        print(f"twistcheck: error: {exc}", file=sys.stderr)
        return 2

    text = emit_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
