"""Command-line driver.

Subcommands:
  phi     minimum-cost representation value with primal/dual certificates
  fan     linearity or normal fans of a generator set, optionally smoothed
  verify  closure-identity verification of a graded system file

Exit codes: 0 success/verified, 1 domain failure (target outside the cone,
falsified identity, failed linearity check), 2 usage, validation, or
budget errors and MemoryError, 3 internal error (a failed consistency
check or any other unexpected exception, never a verdict).  fan --check
is exact and takes no seed.  verify checks the valuation chain for every
weight w >= 0 at once, so its --seed is recorded in the report but
decides no verdict.  JSON reports are byte-identical for identical
inputs and seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from .errors import ConefanError, InputError, InternalError, NotInConeError
from .fans import Fan, cone_from_generators, every_cost_linear_on, linearity_fan, normal_fan, smooth_refine
from .graded import GradedSystem, MonomialIdeal, verify_closure_identity
from .lp import duality_check, price_polyhedron, representation_cost
from .rational import fmt, fmt_vec, ivec, vec


def _parse_json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"cannot parse {what} as JSON: {exc}") from exc


def _parse_vector(text: str, what: str):
    data = _parse_json_arg(text, what)
    if not isinstance(data, list):
        raise InputError(f"{what} must be a JSON array")
    return vec(data)


def _parse_vectors(text: str, what: str):
    data = _parse_json_arg(text, what)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise InputError(f"{what} must be a JSON array of arrays")
    return [vec(r) for r in data]


def _cmd_phi(args) -> int:
    generators = _parse_vectors(args.generators, "--generators")
    costs = _parse_vector(args.alpha, "--alpha")
    target = _parse_vector(args.v, "--v")
    try:
        result = representation_cost(generators, costs, target)
        check = duality_check(generators, costs, target)
    except NotInConeError:
        print("v not in cone", file=sys.stderr)
        return 1
    print(
        f"phi = {fmt(result.value)}, witness = {fmt_vec(result.witness)}, "
        f"dual max = {fmt(check.dual_value)} at {fmt_vec(check.maximizer)}"
    )
    if not check.gap_zero:
        print("duality gap detected", file=sys.stderr)
        return 1
    return 0


def _print_fan(fan: Fan) -> None:
    print("rays:")
    for r in fan.rays():
        print(f"  {fmt_vec(r)}")
    print(f"maximal cones ({len(fan.maximal_cones)}):")
    for c in fan.maximal_cones:
        print("  " + ", ".join(fmt_vec(r) for r in c.rays))


def _cmd_fan(args) -> int:
    generators = _parse_vectors(args.generators, "--generators")
    if args.normal_fan_alpha is not None:
        costs = _parse_vector(args.normal_fan_alpha, "--normal-fan-alpha")
        if any(c < 0 for c in costs):
            raise InputError("--normal-fan-alpha entries must be nonnegative")
        fan = normal_fan(price_polyhedron(generators, costs))
    elif args.linearity:
        fan = linearity_fan(generators)
    else:
        cone = cone_from_generators(generators)
        fan = Fan.make([cone], cone.ambient_dim)
    if args.smooth:
        fan = smooth_refine(fan)
    _print_fan(fan)
    if args.check:
        cones = len(fan.maximal_cones)
        failures = sum(
            not every_cost_linear_on(generators, c) for c in fan.maximal_cones
        )
        if failures:
            print(f"linearity check: FAIL ({failures}/{cones} cones)")
            return 1
        print(f"linearity check: PASS ({cones} cones)")
    return 0


def load_system(data: dict) -> GradedSystem:
    """Build a graded system from its JSON description.

    Schema: {"ambient_dim": n, "grading_rank": s, "generators":
    [{"degree": [...], "ideal": [[...], ...]}, ...], "caps": {...}}.
    Duplicate degrees are merged by ideal sum.
    """
    if not isinstance(data, dict):
        raise InputError("system file must be a JSON object")
    try:
        n, s, raw_gens = data["ambient_dim"], data["grading_rank"], data["generators"]
    except KeyError as exc:
        raise InputError(f"malformed system file: {exc}") from exc
    for key, value in (("ambient_dim", n), ("grading_rank", s)):
        # true, 2.7 or "2" would otherwise pass for an integer, as in caps
        if type(value) is not int:
            raise InputError(f"{key} must be an integer, got {json.dumps(value)}")
    if not isinstance(raw_gens, list) or not raw_gens:
        raise InputError("system file needs a nonempty generators list")
    merged: dict[tuple, MonomialIdeal] = {}
    for entry in raw_gens:
        try:
            degree, exponents = entry["degree"], entry["ideal"]
            # a string would be read as a list of digits, "10" as (1, 0)
            if not all(isinstance(x, list) for x in (degree, exponents, *exponents)):
                raise TypeError("degree, ideal and exponents must be JSON arrays")
            # ivec would read "1" as 1; it refuses every other non-integer
            if any(isinstance(x, str) for row in (degree, *exponents) for x in row):
                raise TypeError("degree and exponent entries must be JSON integers")
            degree = ivec(degree)
            ideal = MonomialIdeal.from_exponents(n, exponents)
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed generator entry: {exc}") from exc
        if degree in merged:
            from .graded import ideal_sum

            merged[degree] = ideal_sum(merged[degree], ideal)
        else:
            merged[degree] = ideal
    degrees = sorted(merged)
    return GradedSystem.create(s, n, degrees, [merged[d] for d in degrees])


def _cmd_verify(args) -> int:
    if args.system == "-":
        raw = sys.stdin.read().encode()
    else:
        try:
            with open(args.system, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read system file: {exc}") from exc
    data = _parse_json_arg(raw.decode(), "system file")
    system = load_system(data)
    caps = data.get("caps", {})
    if not isinstance(caps, dict):
        raise InputError("caps must be a JSON object")

    def cap(name, default):
        # a flag wins over the file; a file value must be a JSON integer,
        # as true, 2.7 or "2" would otherwise pass for one
        value = getattr(args, name)
        value = caps.get(name, default) if value is None else value
        if type(value) is not int:
            raise InputError(f"cap {name} must be an integer, got {json.dumps(value)}")
        return value

    if args.json:
        _check_report_path(args.json)
    report = verify_closure_identity(
        system,
        power_bound=cap("p_bound", 4),
        exponent_cap=cap("d_cap", 64),
        power_checks=cap("L", 8),
        smooth=not args.no_smooth,
        refine=not args.no_refine,
        seed=cap("seed", 0),
    )
    verdict = "VERIFIED" if report.verified else "FALSIFIED"
    print(f"{verdict} (d = {report.exponent}, {len(report.cones)} cones)")
    for cone_check in report.cones:
        status = "pass" if cone_check.passed else "FAIL"
        print(
            f"  cone {', '.join(fmt_vec(r) for r in cone_check.rays)}: {status}"
        )
        if not cone_check.passed:
            for t in cone_check.checks:
                if not (t.closure_ok and t.chain_ok):
                    where = (
                        f"weight {fmt_vec(t.witness_weight)} gives "
                        f"{fmt(t.left_value)} vs {fmt(t.right_value)}"
                        if t.witness_weight is not None
                        else (t.chain_note or "valuation chain failed")
                    )
                    print(
                        f"    tuple {t.powers} (degree {fmt_vec(t.degree)}): {where}"
                    )
                    break
    if args.json:
        payload = {
            "command": _echo_args(args),
            "input_digest": "sha256:" + hashlib.sha256(raw).hexdigest(),
            "report": report.to_dict(),
            "status": "verified" if report.verified else "falsified",
            "exit_code": 0 if report.verified else 1,
        }
        with open(args.json, "w") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if report.verified else 1


def _check_report_path(path: str) -> None:
    """Open the report path for appending before the run, so that an
    unwritable one is a usage error rather than a traceback after the
    verdict.  An existing file is left as it is, and a file made here is
    removed again, so a run that fails leaves no report behind."""
    made = not os.path.exists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise InputError(f"cannot write report: {exc}") from exc
    if made:
        os.remove(path)


def _echo_args(args) -> list[str]:
    echo = ["verify", args.system]
    for name in ("p_bound", "d_cap", "L", "seed"):
        value = getattr(args, name)
        if value is not None:
            echo.append(f"--{name.replace('_', '-')}={value}")
    if args.no_smooth:
        echo.append("--no-smooth")
    if args.no_refine:
        echo.append("--no-refine")
    return echo


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conefan",
        description=(
            "Exact rational cones, fans, Newton polyhedra, and closure "
            "verification for graded monomial-ideal systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_phi = sub.add_parser(
        "phi", help="minimum-cost representation value with certificates"
    )
    p_phi.add_argument("--generators", required=True, help="JSON list of vectors")
    p_phi.add_argument("--alpha", required=True, help="JSON list of nonnegative costs")
    p_phi.add_argument("--v", required=True, help="JSON target vector")

    p_fan = sub.add_parser("fan", help="fans attached to a generator set")
    p_fan.add_argument("--generators", required=True, help="JSON list of vectors")
    mode = p_fan.add_mutually_exclusive_group()
    mode.add_argument(
        "--linearity",
        action="store_true",
        help="fan on which every nonnegative-cost value function is linear",
    )
    mode.add_argument(
        "--normal-fan-alpha",
        metavar="ALPHA",
        help="normal fan of the price polyhedron for these costs",
    )
    p_fan.add_argument(
        "--smooth", action="store_true", help="apply the smooth refinement"
    )
    p_fan.add_argument(
        "--check",
        action="store_true",
        help="exact test that every cost is linear on each maximal cone (each "
        "basis cone contains it or meets it in lower dimension)",
    )

    p_ver = sub.add_parser("verify", help="verify the closure identity of a system")
    p_ver.add_argument("system", help="system JSON file, or - for stdin")
    p_ver.add_argument(
        "--p-bound",
        dest="p_bound",
        type=int,
        default=None,
        help="caps the tuple route, which only --no-refine reaches: a cone "
        "certified by its sign vector passes every exponent tuple at once",
    )
    p_ver.add_argument("--d-cap", dest="d_cap", type=int, default=None)
    p_ver.add_argument("--L", dest="L", type=int, default=None)
    p_ver.add_argument(
        "--seed",
        type=int,
        default=None,
        help="recorded in the report; decides no verdict, since the "
        "valuation chain is checked for every weight w >= 0 at once",
    )
    p_ver.add_argument(
        "--no-smooth", action="store_true", help="skip the smooth refinement"
    )
    p_ver.add_argument(
        "--no-refine",
        action="store_true",
        help="debug: use the single degree cone instead of the linearity fan",
    )
    p_ver.add_argument("--json", metavar="PATH", help="write a JSON report")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "phi":
            return _cmd_phi(args)
        if args.command == "fan":
            return _cmd_fan(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise InputError(f"unknown command {args.command}")
    except InternalError as exc:
        # a failed consistency check is a bug, never a verdict on the input
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except NotInConeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConefanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # running out of memory says nothing about the input's mathematics,
        # so it must not exit 1, the FALSIFIED code
        print("error: out of memory", file=sys.stderr)
        return 2
    except Exception as exc:
        # any other exception is a bug, never a verdict: it must not escape
        # with a traceback and exit 1, the FALSIFIED code
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
