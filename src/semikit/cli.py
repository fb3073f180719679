"""Command-line front end.

One command per invocation; reports are canonical JSON (the table format
is a rendering of the same report, never a second source of truth).
Exit codes: 0 success/pass, 1 completed audit with failures (witness in
the report) or a refused or non-converging Perron computation (an
``error`` report, written like any other), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys

from . import __version__
from . import jsonio
from ._backend import bounded_int
from .derived import (
    BUNDLED_METRICS,
    CandidatePreserver,
    LinearMapQ,
    category_laws_audit,
    preserver_falsify,
    random_inner,
    random_seminorm,
    random_semimetric,
    random_signed_vector,
    random_sublinear,
    space_closure_audit,
)
from .eigen import (
    perron_power_iteration,
    solve_2x2_diagonal,
    solve_2x2_uppertriangular,
)
from .errors import (
    CaseOutsidePaper,
    NoConvergence,
    ParseError,
    ReducibleMatrix,
    SemikitError,
)
from .fuzzy import axiom_audit_ln, mcdm_rank
from .geometry import NormKind, metric, operator_norm
from .scalar import NonnegScalar
from .semialgebra import (
    AlgebraHom,
    BracketStructure,
    hom_verify,
    left_regular_embed,
    left_regular_embedding_audit,
    lie_audit,
    monomial,
)
from .semilinear import SemiLinearMap
from .semimodule import SemiMatrix, axiom_audit

_KINDS = {"l2": NormKind.EUCLIDEAN, "l1": NormKind.L1, "linf": NormKind.LINF}

# Count caps. A count past its cap exits 2, like a literal past 4300 digits,
# so no count makes a command run without bound: with every count of one
# command at its cap, the command still finishes in seconds.
MAX_SAMPLES = 2000  # --samples of audit and axioms
MAX_DIM = 12  # --dim of audit and axioms; an audit spec's dim and dims entries
MAX_HOM_SAMPLES = 1000  # a check-hom spec's samples
MAX_HOM_ORDER = 8  # a check-hom spec's order, the length of its perm, a table matrix's order
MAX_HOM_PAIRS = 32  # the pairs of a check-hom table spec (checked in pairs**2 law instances)


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0, help="audit seed")
    parser.add_argument("--out", default=None, help="write the report to a file")
    parser.add_argument("--format", choices=("json", "table"), default="json")


@functools.cache
def _build_parser():
    """The argparse tree, built on first use and shared by every main()
    call in the process: parse_args fills a fresh Namespace each time, and
    no action holds a mutable default."""
    top = argparse.ArgumentParser(prog="semikit")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("eigen", help="eigenpairs of a nonnegative matrix")
    p.add_argument("--matrix", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact-2x2", action="store_true")
    mode.add_argument("--perron", action="store_true")
    p.add_argument("--tol", default=None, help="Perron tolerance (decimal string, default 1e-9)")
    _add_common(p)

    p = sub.add_parser("metric", help="ordered-difference distance between vectors")
    p.add_argument("--kind", choices=tuple(_KINDS), required=True)
    p.add_argument("x")
    p.add_argument("y")
    _add_common(p)

    p = sub.add_parser("opnorm", help="operator norm of a matrix map")
    p.add_argument("--kind", choices=tuple(_KINDS), required=True)
    p.add_argument("matrix")
    p.add_argument("--tol", default="1e-9", help="L2 bracket tolerance (decimal string)")
    _add_common(p)

    p = sub.add_parser("audit", help="derived function-space audits")
    p.add_argument(
        "--family",
        choices=("semimetric", "seminorm", "semiinner", "sublinear", "preserver", "category"),
        required=True,
    )
    p.add_argument("spec", nargs="?", default=None, help="JSON input pinning the objects")
    p.add_argument("--fn", default=None, help="piecewise-linear candidate (preserver)")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--samples", type=int, default=64)
    _add_common(p)

    p = sub.add_parser("algebra", help="matrix semi-algebra checks")
    p.add_argument("action", choices=("check-hom", "embed", "lie-audit"))
    p.add_argument("spec")
    _add_common(p)

    p = sub.add_parser("mcdm", help="ordered-layer decision making")
    p.add_argument("action", choices=("rank",))
    p.add_argument("--alts", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--perm", required=True, help='coordinate order, e.g. "2,1,3"')
    _add_common(p)

    p = sub.add_parser("axioms", help="vector-space law audit on a carrier")
    p.add_argument("--space", choices=("rn", "matrices", "polynomials", "all"), default="rn")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--samples", type=int, default=1000)
    _add_common(p)

    return top


def _spec(path):
    payload = jsonio.load_payload(path)
    if not isinstance(payload, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return payload


def _count(value, what, cap):
    """An integer from 1 to cap: a JSON integer, or the digit string of a
    flag. Bools, floats and other strings are refused."""
    if isinstance(value, str) and value.isascii() and value.isdigit():
        value = bounded_int(value)
    if type(value) is not int or not 1 <= value <= cap:
        raise ParseError(f"{what} must be an integer from 1 to {cap}, got {value!r}")
    return value


def _tol(text):
    tol = jsonio._wrap_parse(float, "--tol", text)
    if not 0 < tol < math.inf:
        raise ParseError(f"--tol must be a positive finite number, got {text!r}")
    return tol


def _cmd_eigen(args):
    if args.exact_2x2 and args.tol is not None:
        raise ParseError("--tol is read by --perron only, not by --exact-2x2")
    m = jsonio.load_matrix_file(args.matrix)
    if args.exact_2x2:
        if not (m.nrows == m.ncols == 2):
            raise ParseError("--exact-2x2 needs a 2x2 matrix")
        off_lo, off_hi = m.entry(1, 0), m.entry(0, 1)
        if off_lo.is_zero and off_hi.is_zero:
            pairs = solve_2x2_diagonal(m.entry(0, 0), m.entry(1, 1))
            case = "diagonal"
        elif off_lo.is_zero and m.entry(0, 0) == m.entry(1, 1):
            pairs = solve_2x2_uppertriangular(m.entry(0, 0), off_hi)
            case = "upper_triangular"
        else:
            raise CaseOutsidePaper(
                "exact 2x2 solving covers diagonal and shared-diagonal "
                "upper-triangular matrices only"
            )
        return {"mode": "exact-2x2", "case": case, "eigenpairs": pairs}, True
    pair = perron_power_iteration(m, tol=_tol("1e-9" if args.tol is None else args.tol))
    return {"mode": "perron", "eigenpairs": [pair]}, True


def _cmd_metric(args):
    x = jsonio.parse_vector(jsonio.load_payload(args.x))
    y = jsonio.parse_vector(jsonio.load_payload(args.y))
    d = metric(x, y, _KINDS[args.kind])
    return {"kind": args.kind, "distance": d}, True


def _cmd_opnorm(args):
    m = jsonio.load_matrix_file(args.matrix)
    report = operator_norm(SemiLinearMap(m), _KINDS[args.kind], tol=_tol(args.tol))
    return {"opnorm": report}, True


def _cmd_audit(args):
    rng = random.Random(args.seed)
    family = args.family
    spec = _spec(args.spec) if args.spec else {}
    dim = _count(spec.get("dim", args.dim), "dim", MAX_DIM)
    samples = _count(args.samples, "--samples", MAX_SAMPLES)
    lam = jsonio.parse_scalar_text(spec.get("lambda", "2"))

    if family == "preserver":
        if args.fn is None and "fn" not in spec:
            raise ParseError("preserver audit needs --fn or a spec with 'fn'")
        fn_payload = spec["fn"] if "fn" in spec else jsonio.load_payload(args.fn)
        candidate = jsonio._wrap_parse(
            CandidatePreserver, "preserver candidate", jsonio.parse_plfn(fn_payload)
        )
        metrics = None
        if "metrics" in spec:
            metrics = jsonio._wrap_parse(
                lambda ts: [jsonio.parse_semimetric(t) for t in ts], "metrics", spec["metrics"]
            )
        report = preserver_falsify(candidate, metrics)
        return {"family": family, "report": report}, report["verdict"] == "not_falsified"

    if family == "category":
        dims = spec.get("dims") or [rng.randint(1, 4) for _ in range(4)]
        if not isinstance(dims, list) or len(dims) != 4:
            raise ParseError("dims must list four dimensions")
        u_dim, v_dim, w_dim, x_dim = dims = [_count(d, "dims entry", MAX_DIM) for d in dims]
        def rand_map(out_d, in_d):
            return LinearMapQ([random_signed_vector(rng, in_d) for _ in range(out_d)])
        t1 = rand_map(u_dim, v_dim)
        t2 = rand_map(v_dim, w_dim)
        t3 = rand_map(w_dim, x_dim)
        norms = [random_seminorm(rng, u_dim) for _ in range(2)]
        report = category_laws_audit(t1, t2, t3, norms, samples=samples, seed=args.seed)
        return {"family": family, "dims": dims, "report": report}, report["ok"]

    if family == "semimetric":
        if "tables" in spec:
            tables = spec["tables"]
            if not isinstance(tables, list) or len(tables) < 2:
                raise ParseError("tables must list two semi-metric tables")
            a, b = jsonio.parse_semimetric(tables[0]), jsonio.parse_semimetric(tables[1])
        else:
            a = random_semimetric(rng, dim)
            b = random_semimetric(rng, dim)
    elif family == "seminorm":
        a, b = random_seminorm(rng, dim), random_seminorm(rng, dim)
    elif family == "semiinner":
        a, b = random_inner(rng, dim), random_inner(rng, dim)
    else:
        a, b = random_sublinear(rng, dim), random_sublinear(rng, dim)
    report = space_closure_audit(family, a, b, lam, samples=samples, seed=args.seed)
    return {"family": family, "report": report}, report["ok"]


def _parse_hom(spec):
    kind = spec.get("kind")
    if kind == "monomial_conjugation":
        perm = [_count(i, "perm entry", MAX_HOM_ORDER) - 1 for i in spec["perm"]]
        mono = monomial(perm, [NonnegScalar(d) for d in spec["diag"]])
        return AlgebraHom.monomial_conjugation(mono)
    if kind == "identity":
        order = _count(spec["order"], "order", MAX_HOM_ORDER)
        return AlgebraHom.from_callable(order, lambda x: x, "identity")
    if kind == "entrywise_square":
        order = _count(spec["order"], "order", MAX_HOM_ORDER)
        def square(x):
            return SemiMatrix(
                [[x.entry(i, j) * x.entry(i, j) for j in range(order)] for i in range(order)]
            )
        return AlgebraHom.from_callable(order, square, "entrywise_square")
    if kind == "table":
        raw = spec["pairs"]
        if not isinstance(raw, list):
            raise ParseError("a table hom's pairs must be a JSON array")
        _count(len(raw), "number of table pairs", MAX_HOM_PAIRS)
        pairs = [(jsonio.parse_matrix(a), jsonio.parse_matrix(b)) for a, b in raw]
        for m in (m for pair in pairs for m in pair):
            _count(max(m.nrows, m.ncols), "order of a table matrix", MAX_HOM_ORDER)
        return AlgebraHom.from_table(pairs)
    raise ParseError(f"unknown hom kind {kind!r}")


def _embed_spec(spec):
    u = jsonio.parse_matrix(spec["element"])
    v = jsonio.parse_matrix(spec.get("partner", spec["element"]))
    return u, v, jsonio.parse_scalar_text(spec.get("lambda", "2"))


def _cmd_algebra(args):
    spec = _spec(args.spec)
    if args.action == "check-hom":
        h = jsonio._wrap_parse(_parse_hom, "check-hom spec", spec)
        report = hom_verify(
            h,
            samples=_count(spec.get("samples", 100), "samples", MAX_HOM_SAMPLES),
            seed=args.seed,
            surjective=bool(spec.get("surjective", False)),
        )
        return {"action": args.action, "report": report}, report["ok"]
    if args.action == "embed":
        u, v, lam = jsonio._wrap_parse(_embed_spec, "embed spec", spec)
        report = left_regular_embedding_audit(u, v, lam)
        report["operator"] = left_regular_embed(u)
        return {"action": args.action, "report": report}, report["ok"]
    structure = jsonio._wrap_parse(
        lambda s: BracketStructure(s["constants"]), "lie-audit spec", spec
    )
    report = lie_audit(structure, seed=args.seed)
    return {"action": args.action, "report": report}, report["verdict"] == "zero_bracket"


def _cmd_mcdm(args):
    alts = jsonio.load_payload(args.alts)
    if not isinstance(alts, list) or not all(isinstance(a, list) for a in alts):
        raise ParseError(f"--alts {args.alts} must hold a JSON array of arrays")
    weights = jsonio.load_payload(args.weights)
    if not isinstance(weights, list):
        raise ParseError(f"--weights {args.weights} must hold a JSON array")
    alts = [jsonio.parse_ln_vector(a) for a in alts]
    entries = args.perm.split(",")
    perm = [_count(p, "--perm entry", len(entries)) for p in entries]
    report = jsonio._wrap_parse(lambda w: mcdm_rank(alts, w, perm), "--weights", weights)
    report["axiom_footnote"] = (
        "scores live in the saturating ordered layer; see `semikit axioms` "
        "and axiom_audit_ln for the laws that fail under truncation"
    )
    return {"action": "rank", "report": report}, True


def _cmd_axioms(args):
    dim = _count(args.dim, "--dim", MAX_DIM)
    samples = _count(args.samples, "--samples", MAX_SAMPLES)
    spaces = ("rn", "matrices", "polynomials") if args.space == "all" else (args.space,)
    reports = {}
    ok = True
    for sp in spaces:
        rep = axiom_audit(space=sp, dim=dim, samples=samples, seed=args.seed)
        reports[sp] = rep
        ok = ok and rep["all_hold"]
    ln_report = axiom_audit_ln(n=2, seed=args.seed, samples=min(samples, 2000))
    return {"spaces": reports, "ordered_layer": ln_report}, ok


_HANDLERS = {
    "eigen": _cmd_eigen,
    "metric": _cmd_metric,
    "opnorm": _cmd_opnorm,
    "audit": _cmd_audit,
    "algebra": _cmd_algebra,
    "mcdm": _cmd_mcdm,
    "axioms": _cmd_axioms,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return 2
    try:
        try:
            payload, ok = _HANDLERS[args.command](args)
        except (ReducibleMatrix, NoConvergence) as exc:
            payload, ok = {"error": str(exc)}, False
        report = jsonio.build_report(args.command, args.seed, payload, __version__)
        render = jsonio.render_json if args.format == "json" else jsonio.render_table
        text = render(report)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (SemikitError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
