"""Command-line interface.

    agstab build      --curve hermitian --q 2 --a 3 --a-prime 1 --out triple.json
    agstab expand     --in triple.json --out pair.json
    agstab steane     --d pair.json --out fcode.json
    agstab verify     --code fcode.json --exact-distance --budget 67108864
    agstab bounds     --type envelope --step 0.001 --out curve.csv
    agstab pipeline   --m 1 --curve hermitian --q 2 --a 3 --a-prime 1 --out report.json
    agstab pauli-check --code fcode.json --max-n 16 --all-mu

Exit status is 0 only when every certificate checked by the subcommand
verifies exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import artifacts
from .bounds import DELTA_2, ag_curve, delta_grid, emit_csv, envelope, gv_curve
from .curves import build_dual_chain, enumerate_curve
from .errors import CertificationError
from .expansion import ExpansionMap, expand_chain
from .fields import self_dual_basis
from .linear import DEFAULT_BUDGET
from .pauli import (
    StabilizerSpec,
    all_mu_traces,
    detectability_check,
    stabilizer_projector,
)
from .pipeline import PipelineConfig, pipeline_build
from .symplectic import compose_pair, quantum_params, unpack_gf4


def _cmd_build(args: argparse.Namespace) -> int:
    curve = enumerate_curve(args.curve, args.q)
    triple = build_dual_chain(
        curve, args.a, args.a_prime, allow_extended=args.allow_extended_a
    )
    obj = artifacts.triple_to_obj(triple)
    obj["provenance"]["flags"] = _flag_echo(args)
    artifacts.save_json(obj, args.out)
    print(
        f"wrote {args.out}: C=[{triple.n},{triple.c.k_dim}] "
        f"C'=[{triple.n},{triple.c_prime.k_dim}] ({triple.regime})"
    )
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    triple = artifacts.triple_from_obj(artifacts.load_json(args.infile))
    field = triple.field
    emap = ExpansionMap(field=field, basis=self_dual_basis(field))
    pair = expand_chain(triple, emap)
    obj = artifacts.pair_to_obj(pair)
    obj["provenance"]["flags"] = _flag_echo(args)
    artifacts.save_json(obj, args.out)
    print(f"wrote {args.out}: D=[{pair.d.n},{pair.d.k_dim}] D'=[{pair.d_prime.n},{pair.d_prime.k_dim}]")
    return 0


def _cmd_steane(args: argparse.Namespace) -> int:
    pair = artifacts.pair_from_obj(artifacts.load_json(args.d))
    fcode = compose_pair(pair, budget=args.budget)
    obj = artifacts.fcode_to_obj(
        fcode,
        provenance={"source_pair": args.d, "flags": _flag_echo(args)},
    )
    artifacts.save_json(obj, args.out)
    print(f"wrote {args.out}: k_F={fcode.k_dim}, large={fcode.is_large}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    fcode = artifacts.fcode_from_obj(artifacts.load_json(args.code))
    budget = args.budget if args.exact_distance else 0
    report = quantum_params(fcode, budget=budget)
    obj = artifacts.report_to_obj(
        report, provenance={"source_code": args.code, "flags": _flag_echo(args)}
    )
    text = json.dumps(obj, indent=2, sort_keys=True)
    if args.out:
        artifacts.save_json(obj, args.out)
    print(text)
    return 0


# --type: (the default --max-delta, the curve on a delta grid for --m)
_BOUND_CURVES = {
    "gv4": (Fraction(19, 100), lambda grid, m: gv_curve(grid)),
    "agq": (DELTA_2, lambda grid, m: ag_curve(m, grid)),
    "envelope": (DELTA_2, lambda grid, m: envelope(grid)),
}


def _cmd_bounds(args: argparse.Namespace) -> int:
    step = Fraction(args.step)
    if args.type == "agq" and args.m is None:
        print("--m is required for --type agq", file=sys.stderr)
        return 2
    default_stop, curve_of = _BOUND_CURVES[args.type]
    curve = curve_of(delta_grid(step, Fraction(args.max_delta) if args.max_delta else default_stop), args.m)
    emit_csv([curve], args.out)
    print(
        json.dumps(
            {"written": str(args.out), "samples": len(curve), "flags": _flag_echo(args)},
            sort_keys=True,
        )
    )
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = PipelineConfig(
        m=args.m,
        curve_kind=args.curve,
        q=args.q,
        a=args.a,
        a_prime=args.a_prime,
        distance_budget=args.budget,
        allow_extended=args.allow_extended_a,
    )
    run = pipeline_build(cfg)
    obj = artifacts.report_to_obj(
        run.report,
        provenance={
            "config": {
                "m": cfg.m,
                "curve": cfg.curve_kind,
                "q": cfg.q,
                "a": cfg.a,
                "a_prime": cfg.a_prime,
                "budget": cfg.distance_budget,
                "allow_extended": cfg.allow_extended,
            },
            "flags": _flag_echo(args),
        },
    )
    artifacts.save_json(obj, args.out)
    print(f"wrote {args.out}: {run.report.params()}")
    return 0


def _cmd_pauli_check(args: argparse.Namespace) -> int:
    fcode = artifacts.fcode_from_obj(artifacts.load_json(args.code))
    n = fcode.n
    if n > args.max_n:
        print(f"FAIL: n={n} exceeds --max-n {args.max_n}", file=sys.stderr)
        return 1
    if fcode.is_isotropic:
        stab_space = fcode.space
    elif fcode.is_large:
        stab_space = fcode.dual_space
    else:
        print("FAIL: code is neither isotropic nor dual-containing", file=sys.stderr)
        return 1
    basis = [unpack_gf4(r, n) for r in stab_space.bit_rows]
    k = len(basis)
    failures: list[str] = []
    try:
        proj = stabilizer_projector(StabilizerSpec.plus(basis), n=n, max_n=args.max_n)
    except CertificationError as exc:
        failures.append(f"P is not an orthogonal projector: {exc}")
        proj = None
    if args.all_mu:
        if k > 8:
            failures.append("--all-mu limited to k <= 8")
        else:
            try:
                all_mu_traces(basis, max_n=args.max_n)
            except CertificationError as exc:
                failures.append(f"a sign pattern's P is not an orthogonal projector: {exc}")

    dmax = args.dmax
    if dmax is None:
        dmax = quantum_params(fcode, budget=args.budget).d_q
    det = None
    if proj is not None and dmax is not None and dmax >= 1:
        det = detectability_check(proj, dmax)
        if not det.passed:
            failures.append(
                f"detectability violated below dmax={dmax}: {list(det.violations)}"
            )

    result = {
        "code": args.code,
        "n": n,
        "k_stabilizer": k,
        "trace": [str(t) for t in proj.trace()] if proj is not None else None,
        "dmax_checked": dmax,
        "errors_checked": det.checked if det is not None else 0,
        "passed": not failures,
        "failures": failures,
        "flags": _flag_echo(args),
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0 if not failures else 1


def _flag_echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agstab",
        description="Construct and verify quantum stabilizer codes from "
        "algebraic-geometry dual-containing chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a certified dual chain C' > C >= C^perp")
    p.add_argument("--curve", choices=["line", "hermitian"], required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--a-prime", dest="a_prime", type=int, required=True)
    p.add_argument("--allow-extended-a", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("expand", help="binary descent of a dual chain")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("steane", help="enlarge a binary pair into a symplectic code")
    p.add_argument("--d", required=True, help="binary pair artifact")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_steane)

    p = sub.add_parser("verify", help="recompute certificates and quantum parameters")
    p.add_argument("--code", required=True)
    p.add_argument("--exact-distance", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="emit rate-distance bound curves as CSV")
    p.add_argument("--type", choices=_BOUND_CURVES, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--step", required=True)
    p.add_argument("--max-delta", dest="max_delta")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("pipeline", help="full run: chain, descent, enlargement, report")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--curve", choices=["line", "hermitian"], required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--a-prime", dest="a_prime", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--allow-extended-a", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("pauli-check", help="operator-level projector verification")
    p.add_argument("--code", required=True)
    p.add_argument("--max-n", dest="max_n", type=int, default=6)
    p.add_argument("--all-mu", action="store_true")
    p.add_argument("--dmax", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_pauli_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface certification/usage failures as exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
