"""Seeded inputs for the ``decide`` workload, each with its known answer.

Every case is a CLI call (verb, input JSON files, flags) plus the
verdict that follows from how the input was built, and, where the
report carries data that can be re-checked, a check written with
:mod:`polyarith` rather than with dfactor.

Factorizations of w = xy and w = x^2 + y^2 are direct sums of known
blocks, conjugated by random unitriangular matrices P and Q:
(A, B) -> (P A Q^-1, Q B P^-1).  Morphisms are r*id + dS for a random
scalar r and a random homotopy S.  So phi and phi + dT are homotopic,
and phi and phi + c*id + dT (c a nonzero constant) are not whenever a
block is not contractible.
"""

from __future__ import annotations

import json
import random

from polyarith import Arith

P7 = 7

# (A, B) blocks with B*A = w*id, and whether the block is contractible.
BLOCKS = {
    "xy": [
        ([["x"]], [["y"]], False),
        ([["y"]], [["x"]], False),
        ([["1"]], [["x*y"]], True),
        ([["x*y"]], [["1"]], True),
    ],
    "sos": [
        ([["x", "y"], ["-y", "x"]], [["x", "-y"], ["y", "x"]], False),
        ([["1"]], [["x^2 + y^2"]], True),
        ([["x^2 + y^2"]], [["1"]], True),
    ],
}
ETA = {"xy": "x*y", "sos": "x^2 + y^2"}

QUANTUM_CONTEXT = {
    "ring": {
        "gens": ["x", "y"],
        "monomial_rels": ["xx", "yy", "xyx", "yxy"],
        "field": {"char": 7},
        "q": 2,
        "w": "x*y - 2*y*x",
        "nu": {"x": "-4*x", "y": "-2*y"},
    },
    "twist": {"nu": {"x": "-4*x", "y": "-2*y"}},
    "eta": "x*y - 2*y*x",
}
RING_XY = {"field": {"char": 7}, "vars": ["x", "y"], "order": "grevlex", "ideal": ["x*y"]}
RING_XZ_YZ = {
    "field": {"char": 7},
    "vars": ["x", "y", "z"],
    "order": "grevlex",
    "ideal": ["x*z", "y*z"],
}

# Verb schedule of one round: decision verbs are the majority.
ROUND = (
    "homotopic_pos", "homotopic_neg", "homotopic_pos", "homotopic_neg",
    "checktac", "checktac_neg", "exact", "exact_neg", "reduce",
    "faithful", "lift", "endring", "dualq",
    "verify", "verify_neg", "sum", "suspend", "unsuspend", "cone", "triangle", "dg",
    "quantum",
)


def field_json(p):
    return {"char": p} if p else {"rationals": True}


def context_json(p, kind):
    return {
        "ring": {"field": field_json(p), "vars": ["x", "y"], "order": "grevlex", "ideal": []},
        "twist": "identity",
        "eta": ETA[kind],
    }


class Case:
    """One CLI call with its expected exit code and verdict."""

    def __init__(self, verb, files, flags, code, verdict, check=None):
        self.verb = verb
        self.files = files  # list of (name, json-able dict)
        self.flags = flags
        self.code = code
        self.verdict = verdict
        self.check = check  # report dict -> failure string or None

    def argv(self, paths):
        return [self.verb, *paths, *self.flags]


class MF:
    """A d = 2 factorization (A, B) over k[x, y] built from known blocks."""

    def __init__(self, ar, kind, A, B, contractible):
        self.ar, self.kind = ar, kind
        self.A, self.B = A, B
        self.rank = len(A)
        self.contractible = contractible

    def json(self, with_context=True):
        out = {"d": 2, "ranks": [self.rank, self.rank],
               "maps": [self.ar.fmt_mat(self.A), self.ar.fmt_mat(self.B)]}
        if with_context:
            out["context"] = context_json(self.ar.p, self.kind)
        return out


def _rand_small(rng, ar):
    """A constant, x or y with a random nonzero coefficient."""
    coeff = rng.choice([1, 2, 3, -1, -2, -3])
    mon = rng.choice(["1", "x", "y"])
    return ar.scale(ar.const(1) if mon == "1" else ar.var(mon), coeff)


def _unitriangular(rng, ar, n, fill):
    """(U, U^-1) for U = I + N, N strictly lower with ``fill`` entries."""
    N = [[{} for _ in range(n)] for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(i)]
    for i, j in rng.sample(cells, min(fill, len(cells))):
        N[i][j] = _rand_small(rng, ar)
    eye = ar.scalar_mat(n, ar.const(1))
    U = ar.matadd(eye, N)
    inv, power, sign = eye, eye, -1
    for _ in range(n - 1):  # (I + N)^-1 = sum (-N)^k, N nilpotent
        power = ar.matmul(power, N)
        inv = ar.matadd(inv, power, sign)
        sign = -sign
    return U, inv


def _block_diag(ar, mats):
    n = sum(len(m) for m in mats)
    out = [[{} for _ in range(n)] for _ in range(n)]
    at = 0
    for m in mats:
        for i, row in enumerate(m):
            for j, e in enumerate(row):
                out[at + i][at + j] = e
        at += len(m)
    return out


def random_mf(rng, ar, kind, rank, need_noncontractible=True):
    blocks, size = [], 0
    while size < rank:
        fits = [b for b in BLOCKS[kind] if len(b[0]) <= rank - size]
        if need_noncontractible and not blocks:
            fits = [b for b in fits if not b[2]] or fits
        A, B, contractible = rng.choice(fits)
        blocks.append((ar.parse_mat(A), ar.parse_mat(B), contractible))
        size += len(A)
    A = _block_diag(ar, [b[0] for b in blocks])
    B = _block_diag(ar, [b[1] for b in blocks])
    P, Pinv = _unitriangular(rng, ar, rank, max(1, rank // 2))
    Q, Qinv = _unitriangular(rng, ar, rank, max(1, rank // 2))
    A2 = ar.matmul(ar.matmul(P, A), Qinv)
    B2 = ar.matmul(ar.matmul(Q, B), Pinv)
    return MF(ar, kind, A2, B2, all(b[2] for b in blocks))


def boundary(X: MF, S1, S2):
    """dS for S = (S1: X_2 -> X_1, S2: X_1 -> X_2)."""
    ar = X.ar
    d1 = ar.matadd(ar.matmul(S1, X.A), ar.matmul(X.B, S2))
    d2 = ar.matadd(ar.matmul(S2, X.B), ar.matmul(X.A, S1))
    return d1, d2


def random_homotopy(rng, X: MF, density=0.3):
    ar, n = X.ar, X.rank

    def mat():
        return [[_rand_small(rng, ar) if rng.random() < density else {} for _ in range(n)]
                for _ in range(n)]

    return mat(), mat()


def random_morphism(rng, X: MF):
    ar = X.ar
    r = ar.add(_rand_small(rng, ar), _rand_small(rng, ar))
    d1, d2 = boundary(X, *random_homotopy(rng, X))
    ident = ar.scalar_mat(X.rank, r)
    return r, (ar.matadd(ident, d1), ar.matadd(ident, d2))


def morphism_json(X: MF, comps):
    return {"context": context_json(X.ar.p, X.kind), "d": 2,
            "source": X.json(False), "target": X.json(False),
            "components": [X.ar.fmt_mat(c) for c in comps]}


# (characteristic, w) per round, so every seed gets the same mix of them
STRATA = ((P7, "xy"), (0, "xy"), (P7, "sos"), (0, "sos"))


# -- report checks --------------------------------------------------------


def check_witness(X: MF, phi, psi):
    """phi - psi must equal the boundary of the reported witness."""

    def check(report):
        ar = X.ar
        comps = report.get("witness", {}).get("components", [])
        if len(comps) != 2:
            return "witness does not have two components"
        d1, d2 = boundary(X, ar.parse_mat(comps[0]), ar.parse_mat(comps[1]))
        for want, got in zip((ar.matadd(phi[0], psi[0], -1), ar.matadd(phi[1], psi[1], -1)),
                             (d1, d2)):
            if not ar.mat_eq(want, got):
                return "witness boundary differs from phi - psi"
        return None

    return check


def check_maps(ar, expect_ranks, expect_maps):
    def check(report):
        res = report.get("result", {})
        if res.get("ranks") != expect_ranks:
            return f"ranks {res.get('ranks')} != {expect_ranks}"
        got = [ar.parse_mat(m) for m in res.get("maps", [])]
        if len(got) != len(expect_maps) or not all(
            ar.mat_eq(g, e) for g, e in zip(got, expect_maps)
        ):
            return "result maps differ from the expected maps"
        return None

    return check


def check_factorizes(ar, w, key):
    """The result factorization's two maps compose to w*id both ways."""

    def check(report):
        fact = report.get("result", {})
        for part in key:
            fact = fact.get(part, {})
        maps = [ar.parse_mat(m) for m in fact.get("maps", [])]
        if len(maps) != 2:
            return "result is not a d = 2 factorization"
        A, B = maps
        if not ar.mat_eq(ar.matmul(B, A), ar.scalar_mat(len(A[0]), w)) or not ar.mat_eq(
            ar.matmul(A, B), ar.scalar_mat(len(A), w)
        ):
            return "result maps do not compose to w"
        return None

    return check


def check_field(path, want):
    def check(report):
        value = report
        for part in path:
            value = value.get(part) if isinstance(value, dict) else None
        return None if value == want else f"{'.'.join(path)} = {value!r}, expected {want!r}"

    return check


def check_ideal(ar, want):
    """The reported gamma ideal equals the expected reduced basis."""

    def check(report):
        got = report.get("result", {}).get("gamma", {}).get("ideal")
        if got is None:
            return "no gamma ideal in the report"
        if sorted(map(str, (ar.parse(g) for g in got))) != sorted(
            map(str, (ar.parse(g) for g in want))
        ):
            return f"gamma ideal {got} != {want}"
        return None

    return check


# -- case generators ------------------------------------------------------


def _mf_case_inputs(rng, max_rank, r):
    """A factorization for round ``r``: field, w and rank follow the round.

    Over Q the rank stops at 3: at rank 4, coefficient growth made single
    homotopy decisions take up to 7.5 s, and one input would dominate a run.
    """
    p, kind = STRATA[r % len(STRATA)]
    ar = Arith(p, ("x", "y"))
    rank = 2 + (r // len(STRATA)) % (max_rank - 1)
    return ar, random_mf(rng, ar, kind, rank if p else min(rank, 3))


def gen_case(slot, rng, max_rank, r):
    if slot in ("homotopic_pos", "homotopic_neg"):
        ar, X = _mf_case_inputs(rng, max_rank, r)
        _scalar, phi = random_morphism(rng, X)
        d1, d2 = boundary(X, *random_homotopy(rng, X))
        psi = (ar.matadd(phi[0], d1), ar.matadd(phi[1], d2))
        if slot == "homotopic_neg":
            shift = ar.scalar_mat(X.rank, ar.const(rng.choice([1, 2, 3, -1])))
            psi = (ar.matadd(psi[0], shift), ar.matadd(psi[1], shift))
            return Case("homotopic", [("phi", morphism_json(X, phi)), ("psi", morphism_json(X, psi))],
                        [], 2, "not_homotopic")
        return Case("homotopic", [("phi", morphism_json(X, phi)), ("psi", morphism_json(X, psi))],
                    [], 0, "homotopic", check_witness(X, phi, psi))
    if slot == "checktac":
        ar, X = _mf_case_inputs(rng, 3, r)
        return Case("checktac", [("x", X.json())], ["--f", ETA[X.kind]], 0, "totally_acyclic")
    if slot == "checktac_neg":
        a = rng.randint(1, 3)
        desc = {"context": {"ring": {"field": {"char": P7}, "vars": ["x"], "order": "grevlex",
                                     "ideal": []},
                            "twist": "identity", "eta": f"x^{2 * a}"},
                "d": 2, "ranks": [1, 1], "maps": [[[f"x^{a}"]], [[f"x^{a}"]]]}
        return Case("checktac", [("x", desc)], ["--f", f"x^{a}"], 2, "not_totally_acyclic")
    if slot in ("exact", "exact_neg"):
        n = rng.randint(3, 6)
        a = rng.randint(1, n - 1)
        b = n - a if slot == "exact" else rng.randint(n - a + 1, n)
        half = rng.randint(1, 3)
        maps = [[[f"x^{a}"]], [[f"x^{b}"]]] * half
        desc = {"ring": {"field": {"char": P7}, "vars": ["x"], "order": "grevlex",
                         "ideal": [f"x^{n}"]},
                "lo": -half, "hi": half, "period": 2, "nilpotency": 2, "maps": maps}
        if slot == "exact":
            return Case("exact", [("w", desc)], [], 0, "exact")
        return Case("exact", [("w", desc)], [], 2, "not_exact")
    if slot == "reduce":
        ar, X = _mf_case_inputs(rng, 3, r)
        return Case("reduce", [("x", X.json())], ["--f", ETA[X.kind]], 0, "verified",
                    check_field(("certificate", "factors_through"), "1"))
    if slot == "faithful":
        ar = Arith(P7, ("x", "y"))
        X = random_mf(rng, ar, "xy", rng.randint(1, 2))
        scalar, phi = random_morphism(rng, X)
        null = X.contractible or not scalar.get((0, 0))
        return Case("faithful", [("theta", morphism_json(X, phi))], ["--f", "x*y"], 0,
                    "consistent", check_field(("result", "downstairs_null"), null))
    if slot == "lift":
        ar = Arith(P7, ("x", "y"))
        X = random_mf(rng, ar, "xy", 1)
        _scalar, phi = random_morphism(rng, X)
        return Case("lift", [("lift", morphism_json(X, phi))], ["--f", "x*y"], 0, "lifted")
    if slot == "endring":
        coeff, k = rng.randint(1, 6), rng.randint(1, 3)
        if rng.random() < 0.5:
            g, want = rng.choice([(f"{coeff}*x^{k}", ["y"]), (f"{coeff}*y^{k}", ["x"]),
                                  (f"{coeff}*x + {coeff}*y", ["x*y"])])
            ring = RING_XY
        else:
            g, want = rng.choice([(f"{coeff}*x^{k}", ["z"]), (f"{coeff}*y^{k}", ["z"]),
                                  (f"{coeff}*z^{k}", ["x", "y"]),
                                  (f"{coeff}*x + {coeff}*y", ["z"])])
            ring = RING_XZ_YZ
        ar = Arith(P7, ring["vars"])
        return Case("endring", [("ring", ring)], ["--g", g], 0, "verified", check_ideal(ar, want))
    if slot == "dualq":
        ring = rng.choice([RING_XY, RING_XZ_YZ])
        var = rng.choice(ring["vars"])
        x = f"{var}^{rng.randint(1, 2)}"
        return Case("dualq", [("ring", ring)],
                    ["--x", x, "--n", str(rng.randint(1, 3)), "--seed", str(rng.randrange(10**6))],
                    0, "verified")
    if slot in ("verify", "verify_neg"):
        ar, X = _mf_case_inputs(rng, 4, r)
        desc = X.json()
        if slot == "verify_neg":
            i, j = rng.randrange(X.rank), rng.randrange(X.rank)
            bad = ar.add(X.A[i][j], ar.const(1))
            desc["maps"][0][i][j] = ar.fmt(bad)
            return Case("verify", [("x", desc)], [], 2, "false")
        return Case("verify", [("x", desc)], [], 0, "verified")
    if slot == "sum":
        ar, X = _mf_case_inputs(rng, 3, r)
        Y = random_mf(rng, ar, X.kind, rng.randint(1, 2) if X.kind == "xy" else 2)
        n = X.rank + Y.rank
        return Case("sum", [("x", X.json()), ("y", Y.json())], [], 0, "verified",
                    check_maps(ar, [n, n], [_block_diag(ar, [X.A, Y.A]),
                                            _block_diag(ar, [X.B, Y.B])]))
    if slot == "suspend":
        ar, X = _mf_case_inputs(rng, 4, r)
        neg = ar.scalar_mat(X.rank, ar.const(-1))
        return Case("suspend", [("x", X.json())], [], 0, "verified",
                    check_maps(ar, [X.rank, X.rank], [ar.matmul(neg, X.B), ar.matmul(neg, X.A)]))
    if slot == "unsuspend":
        ar, X = _mf_case_inputs(rng, 4, r)
        neg = ar.scalar_mat(X.rank, ar.const(-1))
        desc = X.json()
        desc["maps"] = [ar.fmt_mat(ar.matmul(neg, X.B)), ar.fmt_mat(ar.matmul(neg, X.A))]
        return Case("unsuspend", [("x", desc)], [], 0, "verified",
                    check_maps(ar, [X.rank, X.rank], [X.A, X.B]))
    if slot in ("cone", "triangle"):
        ar, X = _mf_case_inputs(rng, 3, r)
        _scalar, phi = random_morphism(rng, X)
        if slot == "cone":
            check = check_factorizes(ar, ar.parse(ETA[X.kind]), ("cone",))
        else:
            check = check_field(("result", "z", "ranks"), [2 * X.rank, 2 * X.rank])
        return Case(slot, [("phi", morphism_json(X, phi))], [], 0, "verified", check)
    if slot == "dg":
        ar, X = _mf_case_inputs(rng, 3, r)
        comps = [random_homotopy(rng, X, density=0.5)[0] for _ in range(2)]
        desc = morphism_json(X, comps)
        desc["degree"] = rng.choice([-1, 0, 1, 2])
        return Case("dg", [("gh", desc)], [], 0, "verified",
                    check_field(("result", "differential_squares_to_zero"), True))
    if slot == "quantum":
        return _quantum_case(rng)
    raise ValueError(slot)


def _quantum_case(rng):
    """Sums of the trivial twisted factorizations (id, eta) and (eta, id)."""
    k = rng.randint(1, 2)
    t1 = {"d": 2, "ranks": [1, 1], "maps": [[["1"]], [[QUANTUM_CONTEXT["eta"]]]]}
    t2 = {"d": 2, "offsets": [[0], [1]], "maps": [[[QUANTUM_CONTEXT["eta"]]], [["1"]]]}
    base = rng.choice([t1, t2])
    desc = dict(base, context=QUANTUM_CONTEXT)
    kind = rng.choice(["verify", "homotopic", "reduce", "sum"])
    if kind == "verify":
        return Case("verify", [("t", desc)], [], 0, "verified")
    if kind == "sum":
        other = dict(rng.choice([t1, t2]), context=QUANTUM_CONTEXT)
        return Case("sum", [("t", desc), ("u", other)], [], 0, "verified",
                    check_field(("result", "d"), 2))
    if kind == "reduce":
        return Case("reduce", [("t", desc)], ["--f", QUANTUM_CONTEXT["eta"]], 0, "verified")
    # identity vs k * identity on a contractible object: always homotopic
    src = {key: base[key] for key in base if key != "context"}
    ident = {"context": QUANTUM_CONTEXT, "d": 2, "source": src, "target": src,
             "components": [[["1"]], [["1"]]]}
    other = dict(ident, components=[[[str(k + 1)]], [[str(k + 1)]]])
    return Case("homotopic", [("phi", ident), ("psi", other)], [], 0, "homotopic")


def build_cases(seed, count, max_rank):
    """``count`` cases following the round schedule, inputs from ``seed``."""
    rng = random.Random(seed)
    return [gen_case(ROUND[k % len(ROUND)], rng, max_rank, k // len(ROUND))
            for k in range(count)]


def write_case(case, directory, index):
    paths = []
    for name, desc in case.files:
        path = f"{directory}/c{index}_{name}.json"
        with open(path, "w") as fh:
            fh.write(json.dumps(desc))
        paths.append(path)
    return paths
