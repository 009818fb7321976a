"""Command-line front end: axiom suites, module construction, fusion and
relation verification, with machine-readable JSON reports.

Each command returns (ok, results); `main` builds the one report-v1 dict
(schema, command, config, pass, then results or error) and prints it.
Which relations a suite runs is decided in `grothendieck.run_suite`.

Exit codes: 0 all requested checks pass; 1 a check failed, including a typed
error of the library (every ArithmeticError, and WrongType,
SeedConstraintViolated, FieldTooSmall, ParameterConstraint,
IncompatibleModulus, UnboundGenerator, PreconditionViolated), whose report
carries "error": {class, message}; 2 usage error: a malformed argument or
file (ParseError), an argparse error, a plain ValueError of parameter
validation, a --left/--right label of `fuse` that names no simple module,
a --kseed-index of `build-module` outside [0, number of solved seeds), a
quotient suite without --N, or a `--suite radford` whose --n is not
N/gcd(N, n1).

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
import random
import sys
from fractions import Fraction

from . import __version__
from .algebra import AlgebraParams, PreconditionViolated, QuotientParams
from .cyclo import CycScalar, IncompatibleModulus, ParseError, parse_scalar, rational, root_of_unity
from .fusion import fuse, fusion_table
from .grothendieck import SUITES, GelakiContext, UnboundGenerator, compare_fusion_rings, radford_context, run_suite
from .modules import (
    FieldTooSmall,
    ParameterConstraint,
    SeedConstraintViolated,
    SimpleLabel,
    WrongType,
    build_simple,
    verify_module,
)

SCHEMA = "hopfsl2/report-v1"

# Typed errors of the library: the computation failed for inputs that parsed,
# so the command exits 1 with an "error" block in its report.  The typed
# ValueErrors are listed by name; a plain ValueError stays a usage error.
LIBRARY_ERRORS = (
    ArithmeticError,
    WrongType,
    SeedConstraintViolated,
    FieldTooSmall,
    ParameterConstraint,
    IncompatibleModulus,
    UnboundGenerator,
    PreconditionViolated,
)


def parse_scalar_expr(text: str, p: AlgebraParams | None = None) -> CycScalar:
    s = text.strip()
    if s.startswith("cyc("):
        return parse_scalar(s)
    neg = False
    if s.startswith("-") and not s[1:].lstrip("-").isdigit() and "/" not in s:
        neg = True
        s = s[1:]
    s, power, etxt = s.partition("^")
    if s in ("q", "sq") and p is None:
        raise ParseError(f"{s} needs algebra parameters")
    try:
        exp = int(etxt) if power else 1
        if s in ("q", "sq"):
            base = p.q if s == "q" else p.sqrt_q
        elif s.startswith("z") and s[1:].isdigit():
            base = root_of_unity(int(s[1:]), 1)
        else:
            return rational(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError):
        # a bad rational or exponent, or a root of order 0
        raise ParseError(f"cannot parse scalar {text!r}") from None
    out = base**exp
    return -out if neg else out


def parse_label(text: str, p: AlgebraParams) -> SimpleLabel:
    s = text.strip()
    if "(" not in s or not s.endswith(")"):
        raise ParseError(f"bad label {text!r}")
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
    body = s[open_idx + 1 : -1]
    segments = [seg.strip() for seg in body.split(";")]
    scalars = [seg.strip() for seg in segments[0].split(",")]
    if len(scalars) != 3:
        raise ParseError(f"label {text!r} needs three scalars g1, gamma2, gamma3")
    g1, gamma2, gamma3 = (parse_scalar_expr(t, p) for t in scalars)
    i = _label_int(segments[1], text) if len(segments) > 1 and segments[1] else 0
    kseed = None
    for seg in segments[2:]:
        if seg.startswith("r="):
            r = _label_int(seg[2:], text)
        elif seg.startswith("k="):
            kseed = parse_scalar_expr(seg[2:], p)
        elif seg:
            raise ParseError(f"unknown label segment {seg!r}")
    return SimpleLabel(kind, g1, gamma2, gamma3, i, r=r, kseed=kseed)


def _label_int(seg: str, text: str) -> int:
    try:
        return int(seg)
    except ValueError:
        raise ParseError(f"bad integer {seg!r} in label {text!r}") from None


def make_params(args, beta_text=None) -> AlgebraParams:
    """AlgebraParams from --n, --n1, --extra-orders and --N, with beta read
    from beta_text (default --beta)."""
    extra = tuple(args.extra_orders or ())
    if getattr(args, "N", None):
        extra = extra + (args.N,)
    parts = [t.strip() for t in (args.beta if beta_text is None else beta_text).split(",")]
    if len(parts) != 3:
        raise ParseError("--beta wants three comma-separated scalars")
    # betas may reference q: parse in two passes
    p0 = AlgebraParams(args.n, args.n1, beta=(0, 0, 0), extra_orders=extra)
    beta = tuple(parse_scalar_expr(t, p0) for t in parts)
    return AlgebraParams(args.n, args.n1, beta=beta, extra_orders=extra)


def _make_quotient(args) -> QuotientParams:
    """The finite quotient at --m/--n2/--n3.  Its working field needs the
    n(n-1)m-th roots of unity, which join --extra-orders (and the config)."""
    args.extra_orders = list(args.extra_orders or ()) + [args.n * (args.n - 1) * args.m]
    return QuotientParams(make_params(args), args.m, args.n2, args.n3)


def emit(args, report: dict) -> None:
    text = json.dumps(report, indent=2, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def config_dict(args) -> dict:
    keys = ("n", "n1", "beta", "m", "n2", "n3", "N", "seed", "suite", "extra_orders")
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def cmd_verify_axioms(args):
    qp = _make_quotient(args) if args.m is not None else None
    p = make_params(args) if qp is None else qp.p
    rep = p.check_hopf_axioms(n_random=args.n_random, seed=args.seed)
    results = {
        name: {"ok": ok, "witness": wit}
        for name, (ok, wit) in rep.results.items()
    }
    if qp is None:
        return rep.ok, results
    rng = random.Random(args.seed)
    quotient_ok = True
    for _ in range(20):
        u = p.random_element(rng)
        v = p.random_element(rng)
        if qp.reduce(p.mul(u, v)) != qp.mul(qp.reduce(u), qp.reduce(v)):
            quotient_ok = False
            break
    results["quotient_reduce_algebra_map"] = {"ok": quotient_ok, "witness": None}
    return rep.ok and quotient_ok, results


def cmd_build_module(args):
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
        if not 0 <= args.kseed_index < len(seeds):
            raise ValueError(f"--kseed-index {args.kseed_index} is out of range: the solve gave {len(seeds)} seed(s)")
        kseed = seeds[args.kseed_index]
    label = SimpleLabel(args.kind, g1, gamma2, gamma3, args.i, r=args.r, kseed=kseed)
    m = build_simple(p, label)
    bad = verify_module(p, m)
    return not bad, {
        "dim": m.dim,
        "label": str(m.label),
        "failed_relations": bad,
        "matrices": {
            g: [[repr(x) for x in row] for row in m.mat(g)]
            for g in "abcxy"
        },
    }


def _simple_label_arg(text: str, p: AlgebraParams, flag: str) -> SimpleLabel:
    """A label flag that must name a simple module: one that names none is a
    usage error (exit 2), like a label that does not parse."""
    label = parse_label(text, p)
    try:
        build_simple(p, label)
    except (WrongType, SeedConstraintViolated) as exc:
        raise ValueError(f"{flag} {text} names no simple module: {exc}") from None
    return label


def cmd_fuse(args):
    p = make_params(args)
    l1 = _simple_label_arg(args.left, p, "--left")
    l2 = _simple_label_arg(args.right, p, "--right")
    return True, {"left": str(l1), "right": str(l2), "decomposition": fuse(p, l1, l2).as_dict()}


def cmd_fusion_table(args):
    p = make_params(args)
    with open(args.labels_file) as fh:
        labels = [parse_label(line, p) for line in fh if line.strip() and not line.startswith("#")]
    table = fusion_table(p, labels)
    return True, {
        "labels": [str(l) for l in labels],
        "table": {f"{i},{j}": fv.as_dict() for (i, j), fv in table.items()},
    }


def cmd_verify_relations(args):
    # radford's algebra is Gelaki's at Radford's parameters: --N and --n1 fix
    # n, so an --n that disagrees is a usage error; --beta is unused
    if args.suite == "radford" and args.N:
        p = radford_context(args.N, args.n1).p
        if args.n != p.n:
            raise ValueError(f"--suite radford at --N {args.N} --n1 {args.n1} has n = {p.n}, not --n {args.n}")
    else:
        p = make_params(args)
    return run_suite(p, args.suite, args.N)


def cmd_compare_rings(args):
    ctxA = GelakiContext(make_params(args, args.beta_a), args.N)
    ctxB = GelakiContext(make_params(args, args.beta_b), args.N)
    rep = compare_fusion_rings(ctxA, ctxB)
    return bool(rep.get("equal")), rep


def cmd_integral_check(args):
    qp = _make_quotient(args)
    lam = qp.check_integral()
    return True, {"integral": lam.serialize(), "checked_monomials": len(qp.basis())}


def cmd_idempotents(args):
    qp = _make_quotient(args)
    # sum to 1, orthogonality and centrality are checked exactly here
    idems = qp.central_idempotents()
    n = qp.p.n
    dims = [qp.block_dimension(e) for e in idems]
    return all(d == n**3 for d in dims), {
        "count": len(idems),
        "expected_count": qp.m * (n - 1),
        "block_dimensions": dims,
        "idempotents": [e.serialize() for e in idems],
    }


def _add_common(sp):
    sp.add_argument("--config", type=str, default=None, help="key=value file supplying defaults for any flag (flags override)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--n1", type=int, required=True)
    sp.add_argument("--beta", type=str, default="0,0,0", help="comma-separated scalars, e.g. 1,0,0 or 1,q^2,0")
    sp.add_argument("--extra-orders", type=int, nargs="*", dest="extra_orders", help="extra root-of-unity orders to include in the working field")
    sp.add_argument("--out", type=str, default=None, help="also write the JSON report to this path")


def _add_quotient(sp, required: bool):
    sp.add_argument("--m", type=int, required=required, default=None)
    sp.add_argument("--n2", type=int, default=0)
    sp.add_argument("--n3", type=int, default=0)


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
    _add_quotient(sp, required=False)
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
    _add_quotient(sp, required=True)
    sp.set_defaults(fn=cmd_integral_check)

    sp = sub.add_parser("idempotents", help="central idempotents and block dimensions")
    _add_common(sp)
    _add_quotient(sp, required=True)
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
        ok, results = args.fn(args)
        body = {"results": results}
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LIBRARY_ERRORS as exc:
        # a failure of the library: a failed check, reported as such
        ok, body = False, {"error": {"class": type(exc).__name__, "message": str(exc)}}
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(args, {"schema": SCHEMA, "command": args.command, "config": config_dict(args), "pass": ok, **body})
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
