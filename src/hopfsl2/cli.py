"""Command-line front end: axiom suites, module construction, fusion and
relation verification, with machine-readable JSON reports.

Exit codes: 0 all requested checks pass, 1 a check failed (an ArithmeticError
of the library included: its report carries "error": {class, message}),
2 usage error.

Scalar grammar (see README for the label EBNF):
    scalar  := 'cyc(M; c0, c1, ...)' | rational | power
    power   := ['-'] base ['^' integer]
    base    := 'q' | 'sq'              (q and its canonical square root)
             | 'z' integer             (z8 = primitive 8th root of unity)
    label   := kind '(' scalar ',' scalar ',' scalar ';' i [';r=' r]
               [';k=' scalar] ')'      with kind in {V0, VI, VII, Vr}
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .algebra import AlgebraParams, PreconditionViolated, QuotientParams
from .cyclo import CycScalar, ParseError, parse_scalar, rational, root_of_unity
from .fusion import fuse, fusion_table
from .grothendieck import (
    SUITES,
    GelakiContext,
    compare_fusion_rings,
    default_suite_instances,
    radford_context,
    verify_relation,
)
from .modules import SimpleLabel, build_simple, verify_module

SCHEMA = "hopfsl2/report-v1"


def parse_scalar_expr(text: str, p: AlgebraParams | None = None) -> CycScalar:
    s = text.strip()
    if s.startswith("cyc("):
        return parse_scalar(s)
    neg = False
    if s.startswith("-") and not s[1:].lstrip("-").isdigit() and "/" not in s:
        neg = True
        s = s[1:]
    base = None
    exp = 1
    if "^" in s:
        s, etxt = s.split("^", 1)
        exp = int(etxt)
    if s == "q":
        if p is None:
            raise ParseError("q needs algebra parameters")
        base = p.q
    elif s == "sq":
        if p is None:
            raise ParseError("sq needs algebra parameters")
        base = p.sqrt_q
    elif s.startswith("z") and s[1:].isdigit():
        base = root_of_unity(int(s[1:]), 1)
    else:
        try:
            val = rational(Fraction(text.strip()))
            return val
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"cannot parse scalar {text!r}") from None
    out = base**exp
    return -out if neg else out


def parse_label(text: str, p: AlgebraParams) -> SimpleLabel:
    s = text.strip()
    open_idx = s.index("(")
    kind = s[:open_idx]
    r = None
    if kind not in ("V0", "VI", "VII", "Vr"):
        # V2, V3, ... are sugar for Vr with the dimension pinned
        if kind.startswith("V") and kind[1:].isdigit() and int(kind[1:]) >= 2:
            r = int(kind[1:])
            kind = "Vr"
        else:
            raise ParseError(f"unknown module kind {kind!r}")
    if not s.endswith(")"):
        raise ParseError(f"bad label {text!r}")
    body = s[open_idx + 1 : -1]
    segments = [seg.strip() for seg in body.split(";")]
    scalars = [seg.strip() for seg in segments[0].split(",")]
    if len(scalars) != 3:
        raise ParseError("labels need three scalars g1, gamma2, gamma3")
    g1, gamma2, gamma3 = (parse_scalar_expr(t, p) for t in scalars)
    i = int(segments[1]) if len(segments) > 1 and segments[1] else 0
    kseed = None
    for seg in segments[2:]:
        if seg.startswith("r="):
            r = int(seg[2:])
        elif seg.startswith("k="):
            kseed = parse_scalar_expr(seg[2:], p)
        elif seg:
            raise ParseError(f"unknown label segment {seg!r}")
    return SimpleLabel(kind, g1, gamma2, gamma3, i, r=r, kseed=kseed)


def _beta_tuple(text: str):
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 3:
        raise ParseError("--beta wants three comma-separated scalars")
    return parts


def make_params(args) -> AlgebraParams:
    extra = tuple(args.extra_orders or ())
    if getattr(args, "N", None):
        extra = extra + (args.N,)
    beta_parts = _beta_tuple(args.beta)
    # betas may reference q: parse in two passes
    p0 = AlgebraParams(args.n, args.n1, beta=(0, 0, 0), extra_orders=extra)
    beta = tuple(parse_scalar_expr(t, p0) for t in beta_parts)
    return AlgebraParams(args.n, args.n1, beta=beta, extra_orders=extra)


def emit(args, report: dict) -> None:
    text = json.dumps(report, indent=2, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def config_dict(args) -> dict:
    keys = ("n", "n1", "beta", "m", "n2", "n3", "N", "seed", "suite", "extra_orders")
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def cmd_verify_axioms(args) -> int:
    if args.m is not None:
        args.extra_orders = list(args.extra_orders or ()) + [args.n * (args.n - 1) * args.m]
    p = make_params(args)
    rep = p.check_hopf_axioms(n_random=args.n_random, seed=args.seed)
    results = {
        name: {"ok": ok, "witness": wit}
        for name, (ok, wit) in rep.results.items()
    }
    quotient_ok = None
    if args.m is not None:
        import random

        qp = QuotientParams(p, args.m, args.n2 or 0, args.n3 or 0)
        rng = random.Random(args.seed)
        quotient_ok = True
        for _ in range(20):
            u = p.random_element(rng)
            v = p.random_element(rng)
            if qp.reduce(p.mul(u, v)) != qp.mul(qp.reduce(u), qp.reduce(v)):
                quotient_ok = False
                break
        results["quotient_reduce_algebra_map"] = {"ok": quotient_ok, "witness": None}
    ok = rep.ok and (quotient_ok is not False)
    emit(args, {"schema": SCHEMA, "command": "verify-axioms", "config": config_dict(args), "pass": ok, "results": results})
    return 0 if ok else 1


def cmd_build_module(args) -> int:
    p = make_params(args)
    kseed = parse_scalar_expr(args.kseed, p) if args.kseed else None
    g1 = parse_scalar_expr(args.g1, p)
    gamma2 = parse_scalar_expr(args.gamma2, p)
    gamma3 = parse_scalar_expr(args.gamma3, p)
    if kseed is None and args.kseed_index is not None:
        from .fusion import _sorted_seeds
        from .modules import solve_k_seed

        seeds = _sorted_seeds(
            solve_k_seed(p, args.kind, g1, gamma2, gamma3, args.i, allow_extension=True)
        )
        kseed = seeds[args.kseed_index]
    label = SimpleLabel(args.kind, g1, gamma2, gamma3, args.i, r=args.r, kseed=kseed)
    m = build_simple(p, label)
    bad = verify_module(p, m)
    report = {
        "schema": SCHEMA,
        "command": "build-module",
        "config": config_dict(args),
        "pass": not bad,
        "results": {
            "dim": m.dim,
            "label": str(m.label),
            "failed_relations": bad,
            "matrices": {
                g: [[x.serialize() if isinstance(x, CycScalar) else repr(x) for x in row] for row in m.mat(g)]
                for g in "abcxy"
            },
        },
    }
    emit(args, report)
    return 0 if not bad else 1


def cmd_fuse(args) -> int:
    p = make_params(args)
    l1 = parse_label(args.left, p)
    l2 = parse_label(args.right, p)
    fv = fuse(p, l1, l2)
    report = {
        "schema": SCHEMA,
        "command": "fuse",
        "config": config_dict(args),
        "pass": True,
        "results": {"left": str(l1), "right": str(l2), "decomposition": fv.as_dict()},
    }
    emit(args, report)
    return 0


def cmd_fusion_table(args) -> int:
    p = make_params(args)
    with open(args.labels_file) as fh:
        labels = [parse_label(line, p) for line in fh if line.strip() and not line.startswith("#")]
    table = fusion_table(p, labels)
    results = {}
    for (i, j), fv in table.items():
        results[f"{i},{j}"] = fv.as_dict()
    report = {
        "schema": SCHEMA,
        "command": "fusion-table",
        "config": config_dict(args),
        "pass": True,
        "results": {"labels": [str(l) for l in labels], "table": results},
    }
    emit(args, report)
    return 0


def cmd_verify_relations(args) -> int:
    reports = []
    if args.suite in ("cor-gelaki", "radford", "remark5.21"):
        if args.suite == "radford":
            ctx = radford_context(args.N, args.n1, beta3=1)
        else:
            p = make_params(args)
            ctx = GelakiContext(p, args.N)
        if args.suite == "remark5.21":
            beta = [parse_scalar_expr(t, ctx.p) for t in _beta_tuple(args.beta)]
            beta_b = list(beta)
            beta_b[1] = ctx.p.zero
            p2 = AlgebraParams(args.n, args.n1, beta=tuple(beta_b), extra_orders=(args.N,) + tuple(args.extra_orders or ()))
            ctx2 = GelakiContext(p2, args.N)
            cmp_rep = compare_fusion_rings(ctx, ctx2)
            ok = bool(cmp_rep.get("equal"))
            emit(args, {"schema": SCHEMA, "command": "verify-relations", "config": config_dict(args), "pass": ok, "results": cmp_rep})
            return 0 if ok else 1
        reports.extend(r.as_dict() for r in ctx.verify_orders())
        if ctx.case() == 1:
            try:
                reports.append(ctx.verify_xstar_power().as_dict())
            except Exception as exc:  # reported, not fatal
                reports.append({"relation": "cor5.11.xstar_power", "ok": False, "error": str(exc)})
        if not ctx.p.beta[2].is_zero():
            # the inherited z-relation family (the quotient's z'-power identity
            # is an instance of the z' x z' product relation)
            for rid, bindings in default_suite_instances(ctx.p, "thm5.5"):
                reports.append(verify_relation(ctx.p, rid, **bindings).as_dict())
    else:
        p = make_params(args)
        for rid, bindings in default_suite_instances(p, args.suite):
            reports.append(verify_relation(p, rid, **bindings).as_dict())
    ok = all(r.get("passed", r.get("ok")) for r in reports)
    emit(args, {"schema": SCHEMA, "command": "verify-relations", "config": config_dict(args), "pass": ok, "results": reports})
    return 0 if ok else 1


def cmd_compare_rings(args) -> int:
    extra = (args.N,) + tuple(args.extra_orders or ())
    p0 = AlgebraParams(args.n, args.n1, beta=(0, 0, 0), extra_orders=extra)
    betaA = tuple(parse_scalar_expr(t, p0) for t in _beta_tuple(args.beta_a))
    betaB = tuple(parse_scalar_expr(t, p0) for t in _beta_tuple(args.beta_b))
    ctxA = GelakiContext(AlgebraParams(args.n, args.n1, beta=betaA, extra_orders=extra), args.N)
    ctxB = GelakiContext(AlgebraParams(args.n, args.n1, beta=betaB, extra_orders=extra), args.N)
    rep = compare_fusion_rings(ctxA, ctxB)
    ok = bool(rep.get("equal"))
    emit(args, {"schema": SCHEMA, "command": "compare-rings", "config": config_dict(args), "pass": ok, "results": rep})
    return 0 if ok else 1


def cmd_integral_check(args) -> int:
    args.extra_orders = list(args.extra_orders or ()) + [args.n * (args.n - 1) * args.m]
    p = make_params(args)
    qp = QuotientParams(p, args.m, args.n2 or 0, args.n3 or 0)
    try:
        lam = qp.check_integral()
        ok = True
        results = {"integral": lam.serialize(), "checked_monomials": len(qp.basis())}
    except Exception as exc:
        ok = False
        results = {"error": str(exc)}
    emit(args, {"schema": SCHEMA, "command": "integral-check", "config": config_dict(args), "pass": ok, "results": results})
    return 0 if ok else 1


def cmd_idempotents(args) -> int:
    args.extra_orders = list(args.extra_orders or ()) + [args.n * (args.n - 1) * args.m]
    p = make_params(args)
    qp = QuotientParams(p, args.m, args.n2 or 0, args.n3 or 0)
    report = {"schema": SCHEMA, "command": "idempotents", "config": config_dict(args)}
    try:
        # sum to 1, orthogonality and centrality are checked exactly here
        idems = qp.central_idempotents(check=True)
    except PreconditionViolated as exc:
        emit(args, {**report, "pass": False, "results": {"error": str(exc)}})
        return 1
    dims = [qp.block_dimension(e) for e in idems]
    ok = all(d == p.n**3 for d in dims)
    results = {
        "count": len(idems),
        "expected_count": qp.m * (p.n - 1),
        "block_dimensions": dims,
        "idempotents": [e.serialize() for e in idems],
    }
    emit(args, {**report, "pass": ok, "results": results})
    return 0 if ok else 1


def _add_common(sp, need_beta=True):
    sp.add_argument("--config", type=str, default=None, help="key=value file supplying defaults for any flag (flags override)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--n1", type=int, required=True)
    if need_beta:
        sp.add_argument("--beta", type=str, default="0,0,0", help="comma-separated scalars, e.g. 1,0,0 or 1,q^2,0")
    sp.add_argument("--extra-orders", type=int, nargs="*", dest="extra_orders", help="extra root-of-unity orders to include in the working field")
    sp.add_argument("--out", type=str, default=None, help="also write the JSON report to this path")


def load_config_file(path: str) -> dict:
    """Plain-text key=value per line; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"bad config line {raw!r} (want key=value)")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


_INT_KEYS = {"n", "n1", "m", "n2", "n3", "N", "seed", "n_random", "i", "r"}


def apply_config_defaults(argv: list) -> list:
    """Expand --config FILE into leading flags so explicit flags win."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    path = argv[idx + 1]
    cfg = load_config_file(path)
    injected = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if flag in argv:
            continue  # explicit flag overrides the file
        injected.extend([flag, value])
    # insert right after the subcommand name
    return argv[:1] + injected + argv[1:]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="hopfsl2", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"hopfsl2 {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-axioms", help="verify the Hopf axioms exactly")
    _add_common(sp)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--n2", type=int, default=0)
    sp.add_argument("--n3", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n-random", type=int, default=100)
    sp.set_defaults(fn=cmd_verify_axioms)

    sp = sub.add_parser("build-module", help="build a simple module and print its matrices")
    _add_common(sp)
    sp.add_argument("--kind", required=True, choices=["V0", "VI", "VII", "Vr"])
    sp.add_argument("--g1", required=True)
    sp.add_argument("--gamma2", default="1")
    sp.add_argument("--gamma3", default="1")
    sp.add_argument("--i", type=int, default=0)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--kseed", default=None, help="explicit k-seed scalar")
    sp.add_argument("--kseed-index", type=int, default=None, dest="kseed_index",
                    help="pick the k-th solved seed (sorted canonically) instead of passing one")
    sp.set_defaults(fn=cmd_build_module)

    sp = sub.add_parser("fuse", help="decompose a tensor product of two simples")
    _add_common(sp)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.set_defaults(fn=cmd_fuse)

    sp = sub.add_parser("fusion-table", help="full fusion table over a label file")
    _add_common(sp)
    sp.add_argument("--labels-file", required=True)
    sp.set_defaults(fn=cmd_fusion_table)

    sp = sub.add_parser("verify-relations", help="verify a ring-presentation suite")
    _add_common(sp)
    sp.add_argument("--suite", required=True, choices=list(SUITES))
    sp.add_argument("--N", type=int, default=None, help="Gelaki/Radford order of a")
    sp.set_defaults(fn=cmd_verify_relations)

    sp = sub.add_parser("compare-rings", help="compare two quotient fusion rings")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--n1", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--beta-a", required=True)
    sp.add_argument("--beta-b", required=True)
    sp.add_argument("--extra-orders", type=int, nargs="*", dest="extra_orders")
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(fn=cmd_compare_rings)

    sp = sub.add_parser("integral-check", help="verify the two-sided integral of the finite quotient")
    _add_common(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n2", type=int, default=0)
    sp.add_argument("--n3", type=int, default=0)
    sp.set_defaults(fn=cmd_integral_check)

    sp = sub.add_parser("idempotents", help="central idempotents and block dimensions")
    _add_common(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n2", type=int, default=0)
    sp.add_argument("--n3", type=int, default=0)
    sp.set_defaults(fn=cmd_idempotents)

    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = apply_config_defaults(list(argv))
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a math failure of the library: a failed check, reported as such
        error = {"class": type(exc).__name__, "message": str(exc)}
        print(f"error: {error['class']}: {error['message']}", file=sys.stderr)
        emit(args, {"schema": SCHEMA, "command": args.command, "config": config_dict(args), "pass": False, "error": error})
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
