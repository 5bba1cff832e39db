"""CLI reports compared byte for byte with stored copies.

``golden/reports`` holds the reports these calls wrote before the
homotopy and lifting systems moved onto ``LinearSystem`` (the ``dg``,
``cone``, ``triangle`` and ``axioms`` cases: before morphisms and
homotopies became graded elements; the ``axioms_sos`` and
``verify_rotation2`` cases: before matrix entries became one sum of
products and the rotation checks shared their products); any change
in the layout of rows, columns or ideal injections changes a witness
or a certificate and shows here.  The ``sum``, ``suspend`` and
``unsuspend`` reports were written before those constructions stopped
going through ``make_factorization``.  The calls run inside ``golden/inputs`` with
relative paths, so the input keys of a report do not depend on where the
repository lives.
"""

import json
from pathlib import Path

import pytest

from dfactor import factorization, functors, modgb, schemas
from dfactor.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "homotopic_f7_pos": ["homotopic", "homotopic_f7_pos_phi.json", "homotopic_f7_pos_psi.json"],
    "homotopic_f7_neg": ["homotopic", "homotopic_f7_neg_phi.json", "homotopic_f7_neg_psi.json"],
    "homotopic_q_pos": ["homotopic", "homotopic_q_pos_phi.json", "homotopic_q_pos_psi.json"],
    "homotopic_q_neg": ["homotopic", "homotopic_q_neg_phi.json", "homotopic_q_neg_psi.json"],
    "homotopic_ring_pos": ["homotopic", "homotopic_ring_pos_phi.json", "homotopic_ring_pos_psi.json"],
    "homotopic_ring_neg": ["homotopic", "homotopic_ring_pos_phi.json", "homotopic_ring_neg_psi.json"],
    # two ideal generators: the certificate lists the injections in order
    "homotopic_ring2_neg": [
        "homotopic", "homotopic_ring2_neg_phi.json", "homotopic_ring2_neg_psi.json"
    ],
    "homotopic_quantum_pos": [
        "homotopic", "homotopic_quantum_pos_phi.json", "homotopic_quantum_pos_psi.json"
    ],
    "homotopic_quantum_neg": [
        "homotopic", "homotopic_quantum_neg_phi.json", "homotopic_quantum_neg_psi.json"
    ],
    # (xy, yx) is the boundary of (y, 0): a witness found with the sides
    # of the noncommutative products swapped would not verify
    "homotopic_quantum_nc": [
        "homotopic", "homotopic_quantum_nc_phi.json", "homotopic_quantum_neg_psi.json"
    ],
    "lift_ring": ["lift", "ring_z2_theta.json", "--f", "x*y"],
    "faithful_ring": ["faithful", "ring_z2_theta.json", "--f", "x*y"],
    "exact_pos": ["exact", "exact_pos.json"],
    "exact_neg": ["exact", "exact_neg.json"],
    "checktac_pos": ["checktac", "checktac_pos.json", "--f", "x*y"],
    "checktac_neg": ["checktac", "checktac_neg.json", "--f", "x"],
    # graded elements at d = 4, where the double squares are not automatic
    "dg_minus1": ["dg", "dg_minus1.json"],
    "dg_plus1": ["dg", "dg_plus1.json"],
    "dg_bad": ["dg", "dg_bad.json"],
    "cone": ["cone", "cone_phi.json"],
    "triangle": ["triangle", "cone_phi.json"],
    # constructions valid by construction, verified before they are emitted
    "sum": ["sum", "checktac_pos.json", "checktac_pos.json"],
    "suspend": ["suspend", "../../../fixtures/sos_2x2.json"],
    "unsuspend": ["unsuspend", "checktac_neg.json"],
    # sampled morphisms, homotopy witnesses and graded elements
    "axioms_d2": ["axioms", "--ctx", "ctx_f7xy_xy.json", "--trials", "10", "--seed", "1"],
    "axioms_d4": [
        "axioms", "--ctx", "ctx_f7xy_xy.json", "--trials", "10", "--seed", "1", "--d", "4"
    ],
    # w = x^2 + y^2: factorizations whose maps have multi-term entries
    "axioms_sos_d2": ["axioms", "--ctx", "ctx_f7xy_sos.json", "--trials", "10", "--seed", "1"],
    "axioms_sos_d4": [
        "axioms", "--ctx", "ctx_f7xy_sos.json", "--trials", "10", "--seed", "1", "--d", "4"
    ],
    # ranks [1, 2], f = [x; 0], g = [y, 0] over w = xy: rotation 1 holds,
    # rotation 2 fails with residual diag(0, -xy)
    "verify_rotation2": ["verify", "verify_rotation2.json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_copy(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN / "inputs")
    out = tmp_path / "report.json"
    main([*CASES[name], "--out", str(out)])
    assert out.read_bytes() == (GOLDEN / "reports" / f"{name}.json").read_bytes()


def test_golden_cases_cover_both_verdicts():
    # the negative cases must carry certificates, the positive ones witnesses
    verdicts = {
        name: (GOLDEN / "reports" / f"{name}.json").read_text() for name in CASES
    }
    for name, text in verdicts.items():
        if name.startswith("homotopic") and name.endswith("_neg"):
            assert '"not_homotopic"' in text and '"certificate"' in text
        elif name.startswith("homotopic"):
            assert '"homotopic"' in text and '"witness"' in text
    assert '"kind": "fredholm"' in verdicts["homotopic_quantum_neg"]
    assert '"kind": "module_groebner"' in verdicts["homotopic_ring2_neg"]


@pytest.mark.parametrize(
    "name, module, function, count",
    [
        ("checktac_pos", modgb, "_reduce_module_basis", 4),
        ("exact_pos", modgb, "_reduce_module_basis", 3),
        ("homotopic_f7_pos", schemas, "make_factorization", 1),
        ("lift_ring", functors, "window_from_factorization", 2),
        ("checktac_pos", functors, "_exact_at_ring", 4),
        ("exact_pos", functors, "_exact_at_ring", 2),
        ("cone", factorization, "_check_squares", 3),
        ("triangle", factorization, "_check_squares", 3),
        ("lift_ring", factorization, "_check_squares", 3),
        ("homotopic_f7_pos", factorization, "differential_terms", 1),
        ("lift_ring", functors, "differential_terms", 2),
        ("axioms_d2", factorization, "make_factorization", 58),
        ("cone", factorization, "make_factorization", 2),
        ("triangle", factorization, "make_factorization", 2),
        ("sum", factorization, "make_factorization", 1),
        ("suspend", factorization, "make_factorization", 1),
        ("unsuspend", factorization, "make_factorization", 1),
    ],
)
def test_work_done_once_per_call_pinned(name, module, function, count, tmp_path, monkeypatch):
    """Work counts of one call: a count, not a timing.

    A module Gröbner completion ends in one ``_reduce_module_basis``;
    ``schemas.make_factorization`` builds and verifies one input
    factorization; each ``functors.reduce_full``, wherever it is bound,
    unrolls one window; ``functors._exact_at_ring`` decides exactness at
    one position of a window over a ring; ``factorization._check_squares``
    checks the squares of one morphism.  Recomputing every repeat, the
    calls took 31 completions (``checktac_pos``: the image module once
    per kernel vector, every period of the window again, and the colon
    ideal once per basis element), 7 (``exact_pos``), 4 builds
    (``homotopic_f7_pos``: source and target of both morphisms, one
    JSON) and 4 reductions (``lift_ring``: source and target in the CLI
    and again in ``full_lift``).  Checking every interior position, not
    one period of them, took 14 (``checktac_pos``: primal and dual
    windows) and 3 (``exact_pos``) exactness problems.  The input
    morphism is checked once: ``cone`` and ``triangle`` then check the
    inclusion and projection, ``lift_ring`` the lift and its reduction;
    checking the input again in ``cone`` and ``full_lift`` took 4.
    ``differential_terms`` is the one writer of the differential as
    linear equations: the homotopy system calls it once, and the lift
    twice (d(theta) = 0 and theta - d(t) = phibar); an equation written
    by hand instead would leave the count short.
    ``factorization.make_factorization`` checks the rotations of one
    factorization that is not valid by construction, or that a check
    asks for: the axiom suite's explicit re-verifications, cones, and
    what a verb emits.  Verifying sums and suspensions as they were
    built too took 196 (``axioms_d2``).  The CLI verifies each
    factorization it builds once: the cone, and the suspended source
    that ``cone`` and ``triangle`` emit.  The report does not change.
    """
    calls = [0]
    work = getattr(module, function)

    def counting(*args, **kwargs):
        calls[0] += 1
        return work(*args, **kwargs)

    monkeypatch.setattr(module, function, counting)
    monkeypatch.chdir(GOLDEN / "inputs")
    out = tmp_path / "report.json"
    main([*CASES[name], "--out", str(out)])
    assert calls[0] == count
    assert out.read_bytes() == (GOLDEN / "reports" / f"{name}.json").read_bytes()


def _emitted_factorizations(node):
    """Every factorization in a report, without its context: the dicts
    with ``ranks``, wherever they are nested."""
    if isinstance(node, dict):
        if "ranks" in node:
            yield {k: v for k, v in node.items() if k != "context"}
        for value in node.values():
            yield from _emitted_factorizations(value)


@pytest.mark.parametrize("name", ["sum", "suspend", "unsuspend", "cone", "triangle"])
def test_construction_verbs_emit_only_verified_factorizations(name, tmp_path, monkeypatch):
    """A report's "verified" means checked on this output: each
    factorization a construction verb emits, its inputs and the ones it
    built alike, is one that ``make_factorization`` accepted in this
    call."""
    checked = []
    build = factorization.make_factorization

    def recording(ctx, d, objects, maps, **kwargs):
        X = build(ctx, d, objects, maps, **kwargs)
        checked.append(schemas.factorization_to_json(X, include_context=False))
        return X

    monkeypatch.setattr(factorization, "make_factorization", recording)
    monkeypatch.setattr(schemas, "make_factorization", recording)
    monkeypatch.chdir(GOLDEN / "inputs")
    out = tmp_path / "report.json"
    assert main([*CASES[name], "--out", str(out)]) == 0
    emitted = list(_emitted_factorizations(json.loads(out.read_text())["result"]))
    assert emitted
    for fact in emitted:
        assert fact in checked
