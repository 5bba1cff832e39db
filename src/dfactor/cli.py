"""Batch command-line front end.

Every verb reads JSON descriptions, runs one operation, and writes a
JSON report (stdout or ``--out``).  Exit codes: 0 = verified/true,
2 = verified false with a certificate in the report, 1 = error
(parse failure, unmet hypotheses, deadline).

"Verified" means checked on this output in this call: the factorizations
a verb builds (sums, suspensions, the suspended source of a cone) are
valid by construction in the library, and are passed through
``verify_factorization`` before they are emitted.

Reports are byte-identical across reruns for fixed inputs and seed;
wall-clock timing is only added under ``--timing``, which is excluded
from that guarantee.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

from .axioms import run_axiom_suite
from .dg import GradedHom, dg_check, dg_differential
from .errors import CompositionMismatch, DFactorError, HypothesesUnmet, ParseError, ShapeMismatch
from .factorization import (
    cone,
    direct_sum,
    homotopy_decide,
    is_morphism,
    morphism,
    standard_triangle,
    suspend,
    unsuspend,
    verify_factorization,
)
from .functors import (
    Lift,
    dual_quotient_check,
    end_ring_cyclic,
    faithful_check,
    full_lift,
    reduce_full,
    total_acyclicity_report,
    window_exact,
)
from .linalg import FredholmCertificate
from .modgb import NoSolutionCertificate
from .reuse import one_call
from .rings import QuotientRing
from . import schemas

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FALSE = 2


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load(args, path: str):
    """The JSON object in input file ``path``, parsed from the bytes that
    ``main`` read and digested: a pipe can be read only once."""
    try:
        desc = json.loads(args.input_bytes[path])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(desc, dict):
        raise ParseError(f"{path}: the top level must be a JSON object")
    return desc


def _cert_json(cert):
    if isinstance(cert, NoSolutionCertificate):
        return {
            "kind": "module_groebner",
            "main_len": cert.main_len,
            "gens": [[repr(p) for p in v] for v in cert.gens],
            "gb": [[repr(p) for p in v] for v in cert.gb],
            "remainder": [repr(p) for p in cert.remainder],
        }
    if isinstance(cert, FredholmCertificate):
        return {"kind": "fredholm", "left_null_vector": [str(c) for c in cert.y]}
    return {"kind": type(cert).__name__, "detail": repr(cert)}


def _witness_json(t: GradedHom):
    """A degree -1 witness t, listed as s_i = t_{i+1}: M_{i+1} -> N_i."""
    return {"components": [t.comp_at(i + 1).format_rows() for i in range(1, t.source.d + 1)]}


class _Outcome(Exception):
    def __init__(self, code, report):
        self.code = code
        self.report = report


def _false(report, certificate) -> _Outcome:
    """The "false" verdict with its certificate, as an outcome to raise."""
    report["verdict"] = "false"
    report["certificate"] = certificate
    return _Outcome(EXIT_FALSE, report)


def _rotation_false(report, exc: CompositionMismatch) -> _Outcome:
    return _false(report, {"rotation": exc.rotation, "residual": exc.residual.format_rows()})


def _verb_verify(args, report):
    desc = _load(args, args.input)
    try:
        X = schemas.factorization_from_json(desc)
    except CompositionMismatch as exc:
        raise _rotation_false(report, exc) from None
    report["verdict"] = "verified"
    report["result"] = schemas.factorization_to_json(X)
    return EXIT_OK


def _verb_sum(args, report):
    a = schemas.factorization_from_json(_load(args, args.input))
    b = schemas.factorization_from_json(_load(args, args.second))
    s = verify_factorization(direct_sum(a, b))
    report["verdict"] = "verified"
    report["result"] = schemas.factorization_to_json(s)
    return EXIT_OK


def _verb_suspend(args, report, inverse=False):
    X = schemas.factorization_from_json(_load(args, args.input))
    out = verify_factorization(unsuspend(X) if inverse else suspend(X))
    report["verdict"] = "verified"
    report["result"] = schemas.factorization_to_json(out)
    return EXIT_OK


def _morphism_or_false(args, report, path):
    phi = schemas.morphism_from_json(_load(args, path))
    check = is_morphism(phi)
    if not check.ok:
        raise _false(
            report,
            {"failing_square": check.failing_square, "residual": check.residual.format_rows()},
        )
    return phi


def _verb_cone(args, report):
    phi = _morphism_or_false(args, report, args.input)
    try:
        c = cone(phi)
    except CompositionMismatch as exc:
        raise _rotation_false(report, exc) from None
    verify_factorization(c.project.target)
    report["verdict"] = "verified"
    report["result"] = {
        "cone": schemas.factorization_to_json(c.cone),
        "include": schemas.morphism_to_json(c.include),
        "project": schemas.morphism_to_json(c.project),
    }
    return EXIT_OK


def _verb_triangle(args, report):
    phi = _morphism_or_false(args, report, args.input)
    tri = standard_triangle(phi)
    verify_factorization(tri.sx)
    report["verdict"] = "verified"
    report["result"] = {
        "x": schemas.factorization_to_json(tri.x),
        "y": schemas.factorization_to_json(tri.y, include_context=False),
        "z": schemas.factorization_to_json(tri.z, include_context=False),
        "sx": schemas.factorization_to_json(tri.sx, include_context=False),
        "u": schemas.morphism_to_json(tri.u),
        "v": schemas.morphism_to_json(tri.v),
        "w": schemas.morphism_to_json(tri.w),
    }
    return EXIT_OK


def _verb_homotopic(args, report):
    phi = _morphism_or_false(args, report, args.input)
    psi = _morphism_or_false(args, report, args.second)
    if phi.source != psi.source or phi.target != psi.target:
        raise ShapeMismatch("the two morphisms are not parallel")
    verdict = homotopy_decide(phi, psi)
    if isinstance(verdict, GradedHom):
        report["verdict"] = "homotopic"
        report["witness"] = _witness_json(verdict)
        return EXIT_OK
    report["verdict"] = "not_homotopic"
    report["certificate"] = {
        "detail": verdict.detail,
        "solver": _cert_json(verdict.certificate),
    }
    raise _Outcome(EXIT_FALSE, report)


def _verb_dg(args, report):
    gh = schemas.graded_from_json(_load(args, args.input))
    if not dg_check(gh):
        raise _false(report, {"reason": "a double square does not commute"})
    diff = dg_differential(gh)
    report["verdict"] = "verified"
    report["result"] = {
        "differential": schemas.graded_to_json(diff),
        "differential_squares_to_zero": dg_differential(diff).is_zero,
    }
    return EXIT_OK


def _verb_reduce(args, report):
    X = schemas.factorization_from_json(_load(args, args.input))
    f = _parse_scalar(X.ctx.backend, args.f)
    red = reduce_full(X, f, length=args.window)
    report["verdict"] = "verified"
    report["result"] = schemas.window_to_json(red.window)
    report["certificate"] = {"factors_through": X.ctx.backend.format(red.h)}
    return EXIT_OK


def _parse_scalar(backend, text):
    if text is None:
        raise ParseError("this verb requires --f")
    return backend.parse(text)


def _exactness_cert(outcome, fmt):
    cert = {
        "failing_position": outcome.failing_position,
        "detail": outcome.detail,
    }
    if outcome.witness is not None:
        witness = outcome.witness
        if witness and isinstance(witness[0], tuple):
            cert["witness"] = [[fmt(e) for e in row] for row in witness]
        else:
            cert["witness"] = [fmt(e) for e in witness]
    if outcome.certificate is not None:
        cert["solver"] = _cert_json(outcome.certificate)
    return cert


def _verb_exact(args, report):
    W = schemas.window_from_json(_load(args, args.input))
    outcome = window_exact(W)
    if outcome.ok:
        report["verdict"] = "exact"
        return EXIT_OK
    report["verdict"] = "not_exact"
    report["certificate"] = _exactness_cert(outcome, W.backend.format)
    raise _Outcome(EXIT_FALSE, report)


def _verb_checktac(args, report):
    X = schemas.factorization_from_json(_load(args, args.input))
    f = _parse_scalar(X.ctx.backend, args.f)
    outcome = total_acyclicity_report(X, f)
    if outcome.ok:
        report["verdict"] = "totally_acyclic"
        return EXIT_OK
    report["verdict"] = "not_totally_acyclic"
    fmt = X.ctx.backend.format
    if not outcome.primal.ok:
        report["certificate"] = {"side": "primal", **_exactness_cert(outcome.primal, fmt)}
    else:
        report["certificate"] = {"side": "dual", **_exactness_cert(outcome.dual, fmt)}
    raise _Outcome(EXIT_FALSE, report)


def _verb_endring(args, report):
    ring = QuotientRing.from_json(_load(args, args.input))
    pres = end_ring_cyclic(ring, ring.parse(args.g))
    report["verdict"] = "verified"
    report["result"] = {
        "gamma": pres.gamma.to_json(),
        "colon_basis": [repr(p) for p in pres.colon_basis],
    }
    return EXIT_OK


def _verb_dualq(args, report):
    ring = QuotientRing.from_json(_load(args, args.input))
    ok = dual_quotient_check(args.n, ring.parse(args.x), ring, seed=args.seed)
    if ok:
        report["verdict"] = "verified"
        return EXIT_OK
    report["verdict"] = "false"
    raise _Outcome(EXIT_FALSE, report)


def _verb_faithful(args, report):
    theta = _morphism_or_false(args, report, args.input)
    f = _parse_scalar(theta.source.ctx.backend, args.f)
    verdict = faithful_check(theta, f)
    report["result"] = {
        "downstairs_null": verdict.downstairs_null,
        "downstairs_witness": _witness_json(verdict.downstairs_witness)
        if verdict.downstairs_witness
        else None,
        "upstairs_witness": _witness_json(verdict.upstairs_witness)
        if verdict.upstairs_witness
        else None,
    }
    if verdict.consistent:
        report["verdict"] = "consistent"
        return EXIT_OK
    report["verdict"] = "contradiction"
    raise _Outcome(EXIT_FALSE, report)


def _verb_lift(args, report):
    desc = _load(args, args.input)
    ctx, X, U = schemas.ends_from_json(desc)
    f = _parse_scalar(ctx.backend, args.f)
    red_x = reduce_full(X, f)
    red_u = reduce_full(U, f)
    comps = schemas.components_from_json(desc, red_x.downstairs, red_u.downstairs)
    try:
        phibar = morphism(red_x.downstairs, red_u.downstairs, comps)
    except ShapeMismatch as exc:
        raise HypothesesUnmet(f"input is not a periodic chain map: {exc}") from exc
    outcome = full_lift(phibar, red_x, red_u)
    if isinstance(outcome, Lift):
        report["verdict"] = "lifted"
        report["result"] = {
            "theta": schemas.morphism_to_json(outcome.theta),
            "downstairs_witness": _witness_json(outcome.downstairs_witness),
        }
        return EXIT_OK
    report["verdict"] = "no_lift"
    report["certificate"] = {
        "contradiction_under_certified_hypotheses": True,
        "solver": _cert_json(outcome.certificate),
    }
    raise _Outcome(EXIT_FALSE, report)


def _verb_axioms(args, report):
    if args.ctx is None:
        raise ParseError("axioms requires --ctx")
    ctx = schemas.context_from_json(_load(args, args.ctx))
    ok, suite = run_axiom_suite(ctx, args.d, seed=args.seed, trials=args.trials)
    report["result"] = suite
    if ok:
        report["verdict"] = "verified"
        return EXIT_OK
    raise _false(report, {"failures": suite["failures"]})


def _seconds(text: str) -> float:
    """A ``--deadline``: positive and finite, so that it can expire."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _nonnegative_int(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return value


def _even_d(text: str) -> int:
    """A ``--d``: even and at least 2, as every JSON input's d is."""
    value = _int(text)
    if value < 2 or value % 2:
        raise argparse.ArgumentTypeError(f"must be even and at least 2, got {text!r}")
    return value


# flags some verbs read, each added only to the verbs that list it
_FLAGS = {
    "--window": dict(type=int, default=None, help="window length (default 4d)"),
    "--f": dict(help="reduction element (expression)"),
    "--g": dict(required=True, help="cyclic generator (expression)"),
    "--x": dict(required=True, help="central element (expression)"),
    "--n": dict(type=_nonnegative_int, default=1, help="free rank"),
    "--ctx": dict(help="context JSON"),
    "--d": dict(type=_even_d, default=2, help="period, even and at least 2"),
    "--trials": dict(type=_nonnegative_int, default=50, help="trials, at least 0"),
}
_INPUTS = {"input": "input JSON file", "second": "second input JSON file"}
_ONE, _TWO = ("input",), ("input", "second")

# verb -> (handler, positional inputs, flags): the parser and ``main`` both read it
VERBS = {
    "verify": (_verb_verify, _ONE, ()),
    "sum": (_verb_sum, _TWO, ()),
    "suspend": (_verb_suspend, _ONE, ()),
    "unsuspend": (functools.partial(_verb_suspend, inverse=True), _ONE, ()),
    "cone": (_verb_cone, _ONE, ()),
    "triangle": (_verb_triangle, _ONE, ()),
    "homotopic": (_verb_homotopic, _TWO, ()),
    "dg": (_verb_dg, _ONE, ()),
    "reduce": (_verb_reduce, _ONE, ("--f", "--window")),
    "exact": (_verb_exact, _ONE, ()),
    "checktac": (_verb_checktac, _ONE, ("--f",)),
    "endring": (_verb_endring, _ONE, ("--g",)),
    "dualq": (_verb_dualq, _ONE, ("--x", "--n")),
    "faithful": (_verb_faithful, _ONE, ("--f",)),
    "lift": (_verb_lift, _ONE, ("--f",)),
    "axioms": (_verb_axioms, (), ("--ctx", "--d", "--trials")),
}
# looked up per call, so a wrapper put in here is the one that runs
_HANDLERS = {verb: handler for verb, (handler, _, _) in VERBS.items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call; parsing does not change it, so callers must not either."""
    parser = argparse.ArgumentParser(
        prog="dfactor",
        description="Exact d-fold matrix factorizations: verify, rotate, cone, "
        "decide homotopy, reduce to periodic complexes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (_, inputs, flags) in VERBS.items():
        p = sub.add_parser(name)
        for arg in inputs:
            p.add_argument(arg, help=_INPUTS[arg])
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--deadline", type=_seconds, default=60.0, help="seconds for the whole verb"
        )
        p.add_argument("--timing", action="store_true")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _emit(report: dict, out_path: str | None):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(args, error: str, kind: str) -> int:
    _emit({"verb": args.verb, "error": error, "kind": kind}, args.out)
    return EXIT_ERROR


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = {"verb": args.verb, "inputs": {}, "params": {"seed": args.seed}}
    args.input_bytes = {}
    for attr in ("input", "second", "ctx"):
        path = getattr(args, attr, None)
        if path and path not in args.input_bytes:
            try:
                args.input_bytes[path] = _read(path)
            except OSError as exc:
                return _fail(args, f"{path}: {exc}", "ParseError")
            report["inputs"][path] = hashlib.sha256(args.input_bytes[path]).hexdigest()
    start = time.monotonic()
    try:
        with one_call(deadline=start + args.deadline):
            code = _HANDLERS[args.verb](args, report)
    except _Outcome as outcome:
        report = outcome.report
        code = outcome.code
    except DFactorError as exc:
        return _fail(args, str(exc), type(exc).__name__)
    except ValueError as exc:
        return _fail(args, str(exc), "ValueError")
    if args.timing:
        report["timing_ms"] = round((time.monotonic() - start) * 1000.0, 3)
    _emit(report, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
