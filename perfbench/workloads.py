"""The three workloads: input generation, one operation, output checks.

Each workload builds a pool of inputs from the seed (this is set-up),
runs operation ``i`` of the pool on request, and checks results after
the timed phase.  The timed loop cycles through the pool, so a faster
program repeats inputs rather than running out of them.
"""

from __future__ import annotations

import itertools
import json
import random

import decide_cases
import polyarith

CTX_XY = {
    "ring": {"field": {"char": 7}, "vars": ["x", "y"], "order": "grevlex", "ideal": []},
    "twist": "identity",
    "eta": "x*y",
}
CTX_SOS = dict(CTX_XY, eta="x^2 + y^2")


class Workload:
    name = ""
    pool_size = 0  # distinct inputs built in set-up
    trace_ops = 0  # operations in a traced (fixed-count) run
    tail_pct = 95  # fixed so that runs of any speed stay comparable
    keep_repeats = True  # keep results of repeated inputs for comparison

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir  # inputs are built from ``seed`` by subclasses

    def run(self, i: int, k: int):
        """Operation ``i`` of the pool, as the ``k``-th call of the run."""
        raise NotImplementedError

    def collect(self, i: int, k: int, raw):
        """Turn an operation's raw return value into a comparable result."""
        return raw

    def check(self, i: int, result) -> str | None:
        """Failure message for the first result of input ``i``, or None."""
        raise NotImplementedError


class CliWorkload(Workload):
    """Operations are in-process ``dfactor`` CLI calls writing ``--out``."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from dfactor.cli import main

        self.main = main
        self.argvs: list[list[str]] = []

    def _out(self, k):
        return f"{self.workdir}/out{k}.json"

    def run(self, i, k):
        return self.main(self.argvs[i] + ["--out", self._out(k)])

    def collect(self, i, k, raw):
        """(exit code, report bytes); read after the timed phase."""
        with open(self._out(k), "rb") as fh:
            return raw, fh.read()


class Axioms(CliWorkload):
    """``dfactor axioms`` over both F_7[x,y] contexts at d = 2 and d = 4."""

    name = "axioms"
    pool_size = 128
    trace_ops = 48
    tail_pct = 90
    trials = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        ctx_paths = []
        for label, desc in (("xy", CTX_XY), ("sos", CTX_SOS)):
            path = f"{workdir}/ctx_{label}.json"
            with open(path, "w") as fh:
                json.dump(desc, fh)
            ctx_paths.append(path)
        rng = random.Random(seed)
        rounds = itertools.cycle([(c, d) for d in (2, 4) for c in ctx_paths])
        for _, (ctx, d) in zip(range(self.pool_size), rounds):
            self.argvs.append(["axioms", "--ctx", ctx, "--d", str(d),
                               "--seed", str(rng.randrange(10**9)),
                               "--trials", str(self.trials)])

    def check(self, i, result):
        code, data = result
        report = json.loads(data)
        if code != 0 or report.get("verdict") != "verified":
            return f"exit {code}, verdict {report.get('verdict')!r}"
        if report.get("result", {}).get("failures") != []:
            return "axiom suite reported failures"
        return None


class Decide(CliWorkload):
    """Decision and construction verbs on generated inputs with known answers."""

    name = "decide"
    pool_size = 24 * len(decide_cases.ROUND)  # twice (three ranks x four strata)
    trace_ops = 12 * len(decide_cases.ROUND)  # every rank and stratum once
    max_rank = 4  # ranks per position, so total ranks up to 8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cases = decide_cases.build_cases(seed, self.pool_size, self.max_rank)
        for i, case in enumerate(self.cases):
            paths = decide_cases.write_case(case, workdir, i)
            self.argvs.append(case.argv(paths))

    def check(self, i, result):
        case = self.cases[i]
        code, data = result
        report = json.loads(data)
        if code != case.code or report.get("verdict") != case.verdict:
            return (f"{case.verb}: exit {code}, verdict {report.get('verdict')!r}, "
                    f"expected {case.code}/{case.verdict!r} {report.get('error', '')}")
        return case.check(report) if case.check else None


class Groebner(Workload):
    """Reduced Groebner bases of random 3-generator ideals in 3 variables.

    Each generator has 4 to 6 of the 10 monomials of total degree at
    most 2 (so every exponent is at most 2), with small nonzero integer
    coefficients.  Inputs alternate between F_7 and Q.
    """

    name = "groebner"
    pool_size = 600
    trace_ops = 400
    keep_repeats = False  # bases would pile up in memory; the rerun checks determinism
    MONOMIALS = [m for m in itertools.product(range(3), repeat=3) if sum(m) <= 2]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from dfactor import rings
        from dfactor.fields import GF, QQ
        from dfactor.rings import Ambient

        self.rings = rings  # look groebner up per call, so a tracer can wrap it
        ambients = (Ambient(GF(7), ("x", "y", "z")), Ambient(QQ(), ("x", "y", "z")))
        rng = random.Random(seed)
        self.raw = []  # (char, [[(monomial, coefficient)]]) for the oracle
        self.ideals = []
        for i in range(self.pool_size):
            amb = ambients[i % 2]
            gens_raw, gens = [], []
            for _ in range(3):
                terms = [(mon, rng.choice((1, 2, 3, -1, -2, -3)))
                         for mon in rng.sample(self.MONOMIALS, rng.randint(4, 6))]
                poly = amb.zero()
                for mon, c in terms:
                    poly = poly + amb.monomial(mon, c)
                gens_raw.append(terms)
                gens.append(poly)
            self.raw.append((amb.field.char, gens_raw))
            self.ideals.append(gens)

    def run(self, i, k):
        return self.rings.groebner(self.ideals[i])

    def collect(self, i, k, raw):
        """The basis as text: what a byte-identical comparison looks at."""
        return "\n".join(repr(p) for p in raw)

    def check(self, i, result):
        import sympy

        char, gens_raw = self.raw[i]
        gens = sympy.symbols("x y z")
        opts = {"modulus": 7} if char else {"domain": sympy.QQ}
        polys = [sympy.Poly.from_dict(dict(terms), *gens, **opts) for terms in gens_raw]
        want = sympy.groebner(polys, *gens, order="grevlex", **opts)
        ar = polyarith.Arith(char, ("x", "y", "z"))
        theirs = {_poly_key(g.monic()) for g in want.polys}
        mine = {_poly_key(sympy.Poly.from_dict(ar.parse(line), *gens, **opts).monic())
                for line in result.splitlines()}
        return None if mine == theirs else "basis differs from sympy.groebner"


def _poly_key(poly):
    return frozenset((m, str(c)) for m, c in poly.terms())


WORKLOADS = {w.name: w for w in (Axioms, Groebner, Decide)}
