"""The seeded randomized invariant suite behind the ``axioms`` verb.

Trials run single-process and the report is assembled in trial order,
so a fixed seed yields an identical report every run.
"""

from __future__ import annotations

import random

from .context import Context
from .dg import GradedHom, dg_check, dg_differential
from .errors import DeadlineExceeded
from .factorization import (
    cone,
    direct_sum,
    homotopy_decide,
    identity_morphism,
    is_morphism,
    suspend,
    unsuspend,
    verify_factorization,
    verify_witness,
)
from .reuse import expired
from .rings import QuotientRing
from .sampling import make_pool, random_graded, random_homotopy_pair, random_morphism


MAX_RANK = 8  # total rank of the sums and cones a trial builds


def run_axiom_suite(ctx: Context, d: int, seed: int, trials: int):
    """Returns (all_passed, report_dict).

    The deadline of the enclosing call is polled before each trial and
    in the work between checks, never inside the per-check wrapper, so
    an expired deadline is an error and never a failed check.
    """
    rng = random.Random(seed)
    pool = make_pool(ctx, d, max_rank=MAX_RANK)
    commutative = isinstance(ctx.backend, QuotientRing)
    failures = []
    records = []

    for trial in range(trials):
        if expired():
            raise DeadlineExceeded(f"axioms: {trial} of {trials} trials")
        entry = {"trial": trial, "checks": {}}

        def check(name, thunk):
            try:
                ok = bool(thunk())
            except Exception as exc:  # a crash is a failure with a reason
                ok = False
                entry.setdefault("errors", []).append(f"{name}: {exc}")
            entry["checks"][name] = ok
            if not ok:
                failures.append({"trial": trial, "check": name})

        X = pool.random_factorization(rng)
        entry["ranks"] = [o.rank for o in X.objects]

        check("reverify", lambda: verify_factorization(X) == X)
        check(
            "suspension_roundtrip",
            lambda: unsuspend(suspend(X)) == X and suspend(unsuspend(X)) == X,
        )
        check("suspend_reverifies", lambda: verify_factorization(suspend(X)) == suspend(X))

        Y = pool.random_factorization(rng)
        if X.total_rank + Y.total_rank <= MAX_RANK:
            S = direct_sum(X, Y)
            check("sum_reverifies", lambda: verify_factorization(S) == S)
            check(
                "suspend_distributes",
                lambda: suspend(S) == direct_sum(suspend(X), suspend(Y)),
            )

        if 2 * X.total_rank <= MAX_RANK:
            c = cone(identity_morphism(X))
            check("cone_id_reverifies", lambda: verify_factorization(c.cone) == c.cone)
            check(
                "cone_maps_are_morphisms",
                lambda: is_morphism(c.include).ok and is_morphism(c.project).ok,
            )

        if commutative and X.total_rank <= 4:
            phi = random_morphism(rng, X, X)
            check("sampled_morphism_verifies", lambda: is_morphism(phi).ok)
            phi_a, phi_b, s = random_homotopy_pair(rng, phi)
            check("perturbed_is_morphism", lambda: is_morphism(phi_b).ok)
            check("witness_verifies", lambda: verify_witness(s, phi_a, phi_b))
            check("witness_squares", lambda: dg_check(s))
            decided = homotopy_decide(phi_a, phi_b)
            check("decision_roundtrip", lambda: isinstance(decided, GradedHom))
            degree = rng.choice((-2, -1, 0, 1, 2))
            g = random_graded(rng, X, X, degree)
            check("sampled_graded_valid", lambda: dg_check(g))
            check(
                "d_squared_zero",
                lambda: dg_differential(dg_differential(g)).is_zero,
            )
        records.append(entry)

    report = {
        "seed": seed,
        "trials": trials,
        "d": d,
        "max_rank": MAX_RANK,
        "failures": failures,
        "records": records,
    }
    return not failures, report
