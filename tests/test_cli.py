"""CLI: verbs, exit codes, certificates, determinism."""

import argparse
import ast
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dfactor import modgb
from dfactor.axioms import run_axiom_suite
from dfactor.cli import build_parser, main
from dfactor.context import FreeObj
from dfactor.fields import GF
from dfactor.reuse import expired, one_call
from dfactor.rings import Ambient, groebner
from dfactor.schemas import context_from_json
from tests.test_golden import CASES as GOLDEN_CASES

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_verify_fixture(capsys):
    code, report = run_cli(["verify", FIXTURES / "classical_xy.json"], capsys)
    assert code == 0
    assert report["verdict"] == "verified"
    assert report["result"]["maps"] == [[["x"]], [["y"]]]


def test_verify_false_exit_2(tmp_path, capsys):
    desc = json.loads((FIXTURES / "classical_xy.json").read_text())
    desc["maps"] = [[["x"]], [["x"]]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    code, report = run_cli(["verify", bad], capsys)
    assert code == 2
    assert report["verdict"] == "false"
    assert report["certificate"]["rotation"] == 1


def test_verify_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    code, report = run_cli(["verify", bad], capsys)
    assert code == 1
    assert "error" in report


def _assert_parse_error(code, report):
    assert code == 1
    assert report["kind"] == "ParseError"
    assert "error" in report


def test_top_level_array_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "array.json"
    bad.write_text("[1, 2]")
    _assert_parse_error(*run_cli(["verify", bad], capsys))


def test_string_matrix_row_is_parse_error(tmp_path, capsys):
    # a row written as "xy" must not be read character by character
    desc = json.loads((FIXTURES / "classical_xy.json").read_text())
    desc["maps"] = [["xy"], [["1"]]]
    bad = tmp_path / "string_row.json"
    bad.write_text(json.dumps(desc))
    _assert_parse_error(*run_cli(["verify", bad], capsys))


def test_deeply_nested_polynomial_is_parse_error(tmp_path, capsys):
    desc = json.loads((FIXTURES / "classical_xy.json").read_text())
    desc["maps"][0] = [["(" * 400 + "x" + ")" * 400]]
    bad = tmp_path / "nested.json"
    bad.write_text(json.dumps(desc))
    _assert_parse_error(*run_cli(["verify", bad], capsys))


def test_sum_suspend_roundtrip(tmp_path, capsys):
    code, rep = run_cli(
        ["sum", FIXTURES / "classical_xy.json", FIXTURES / "classical_xy.json"], capsys
    )
    assert code == 0 and rep["result"]["ranks"] == [2, 2]
    code, rep_s = run_cli(["suspend", FIXTURES / "classical_xy.json"], capsys)
    assert code == 0
    assert rep_s["result"]["maps"] == [[["6*y"]], [["6*x"]]]
    sus = tmp_path / "sus.json"
    sus.write_text(json.dumps(rep_s["result"]))
    code, rep_u = run_cli(["unsuspend", sus], capsys)
    assert code == 0
    assert rep_u["result"]["maps"] == [[["x"]], [["y"]]]
    assert "offsets" not in rep_u["result"]


def _morphism_file(tmp_path, name, components):
    fact = json.loads((FIXTURES / "classical_xy.json").read_text())
    desc = {
        "context": fact["context"],
        "d": 2,
        "source": {"ranks": fact["ranks"], "maps": fact["maps"]},
        "target": {"ranks": fact["ranks"], "maps": fact["maps"]},
        "components": components,
    }
    path = tmp_path / name
    path.write_text(json.dumps(desc))
    return path


def test_homotopic_verbs(tmp_path, capsys):
    ident = _morphism_file(tmp_path, "id.json", [[["1"]], [["1"]]])
    zero = _morphism_file(tmp_path, "zero.json", [[["0"]], [["0"]]])
    yy = _morphism_file(tmp_path, "yy.json", [[["y"]], [["y"]]])
    code, rep = run_cli(["homotopic", ident, zero], capsys)
    assert code == 2
    assert rep["verdict"] == "not_homotopic"
    assert rep["certificate"]["solver"]["kind"] == "module_groebner"
    code, rep = run_cli(["homotopic", yy, zero], capsys)
    assert code == 0
    assert rep["verdict"] == "homotopic"
    assert "witness" in rep


def test_cone_and_triangle(tmp_path, capsys):
    ident = _morphism_file(tmp_path, "id.json", [[["1"]], [["1"]]])
    code, rep = run_cli(["cone", ident], capsys)
    assert code == 0
    assert rep["result"]["cone"]["ranks"] == [2, 2]
    assert rep["result"]["cone"]["maps"][0] == [["6*y", "0"], ["1", "x"]]
    code, rep = run_cli(["triangle", ident], capsys)
    assert code == 0
    assert rep["result"]["z"]["ranks"] == [2, 2]


def test_cone_rejects_nonmorphism(tmp_path, capsys):
    bad = _morphism_file(tmp_path, "bad.json", [[["y"]], [["0"]]])
    code, rep = run_cli(["cone", bad], capsys)
    assert code == 2
    assert rep["certificate"]["failing_square"] == 1


def test_dg_verb(tmp_path, capsys):
    fact = json.loads((FIXTURES / "classical_xy.json").read_text())
    desc = {
        "context": fact["context"],
        "d": 2,
        "degree": 1,
        "source": {"ranks": fact["ranks"], "maps": fact["maps"]},
        "target": {"ranks": fact["ranks"], "maps": fact["maps"]},
        "components": [[["1"]], [["1"]]],
    }
    path = tmp_path / "gh.json"
    path.write_text(json.dumps(desc))
    code, rep = run_cli(["dg", path], capsys)
    assert code == 0
    assert rep["result"]["differential_squares_to_zero"] is True


def test_reduce_exact_checktac(tmp_path, capsys):
    code, rep = run_cli(
        ["reduce", FIXTURES / "classical_xy.json", "--f", "x*y"], capsys
    )
    assert code == 0
    window = rep["result"]
    assert window["nilpotency"] == 2
    assert window["period"] == 2
    wpath = tmp_path / "window.json"
    wpath.write_text(json.dumps(window))
    code, rep = run_cli(["exact", wpath], capsys)
    assert code == 0 and rep["verdict"] == "exact"
    code, rep = run_cli(
        ["checktac", FIXTURES / "classical_xy.json", "--f", "x*y"], capsys
    )
    assert code == 0 and rep["verdict"] == "totally_acyclic"
    code, rep = run_cli(["checktac", FIXTURES / "sos_2x2.json", "--f", "x^2 + y^2"], capsys)
    assert code == 0


def test_reduce_hypotheses_unmet_exit_1(capsys):
    code, rep = run_cli(
        ["reduce", FIXTURES / "classical_xy.json", "--f", "x^2"], capsys
    )
    assert code == 1
    assert rep["kind"] == "HypothesesUnmet"


def test_checktac_false_with_certificate(tmp_path, capsys):
    # eta = x^2 factors through the regular element x, but the reduction
    # mod x has zero maps: certified hypotheses, failed exactness
    desc = {
        "context": {
            "ring": {"field": {"char": 7}, "vars": ["x"], "order": "grevlex", "ideal": []},
            "twist": "identity",
            "eta": "x^2",
        },
        "d": 2,
        "ranks": [1, 1],
        "maps": [[["x"]], [["x"]]],
    }
    path = tmp_path / "xx.json"
    path.write_text(json.dumps(desc))
    code, rep = run_cli(["checktac", path, "--f", "x"], capsys)
    assert code == 2
    assert rep["verdict"] == "not_totally_acyclic"
    assert rep["certificate"]["side"] == "primal"
    assert rep["certificate"]["witness"] is not None


def test_exact_false_with_witness(tmp_path, capsys):
    # (x^3, x^3) over F7[x]/(x^4): nilpotent but not exact
    ring = {"field": {"char": 7}, "vars": ["x"], "order": "grevlex", "ideal": ["x^4"]}
    desc = {
        "ring": ring,
        "lo": -2,
        "hi": 2,
        "period": 2,
        "nilpotency": 2,
        "maps": [[["x^3"]], [["x^3"]], [["x^3"]], [["x^3"]]],
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(desc))
    code, rep = run_cli(["exact", path], capsys)
    assert code == 2
    assert rep["certificate"]["failing_position"] is not None
    assert "witness" in rep["certificate"]
    assert rep["certificate"]["solver"]["kind"] == "module_groebner"


def test_endring_verbs(capsys):
    code, rep = run_cli(
        ["endring", FIXTURES / "ring_f7xy_mod_xy.json", "--g", "x"], capsys
    )
    assert code == 0
    assert rep["result"]["gamma"]["ideal"] == ["y"]
    code, rep = run_cli(
        ["endring", FIXTURES / "ring_f7xyz_mod_xz_yz.json", "--g", "x"], capsys
    )
    assert code == 0
    assert rep["result"]["gamma"]["ideal"] == ["z"]


def test_dualq_verb(capsys):
    code, rep = run_cli(
        ["dualq", FIXTURES / "ring_f7xy_mod_xy.json", "--x", "x^2", "--n", "2"], capsys
    )
    assert code == 0


def test_dualq_polls_the_deadline(capsys):
    # each sampled row of length n takes O(n) ring operations; at
    # --n 2000 one row runs well past the 0.05 s deadline
    ring = FIXTURES / "ring_f7xy_mod_xy.json"
    start = time.monotonic()
    code, rep = run_cli(
        ["dualq", ring, "--x", "x^2", "--n", "2000", "--deadline", "0.05"], capsys
    )
    assert time.monotonic() - start < 5.0
    assert code == 1
    assert rep["kind"] == "DeadlineExceeded"
    assert rep["error"].startswith("dual quotient check: ")
    with pytest.raises(SystemExit) as usage_error:
        main(["dualq", str(ring), "--x", "x^2", "--n", "-1"])
    assert usage_error.value.code == 2
    assert "--n" in capsys.readouterr().err


def test_faithful_and_lift(tmp_path, capsys):
    yy = _morphism_file(tmp_path, "yy.json", [[["y"]], [["y"]]])
    code, rep = run_cli(["faithful", yy, "--f", "x*y"], capsys)
    assert code == 0
    assert rep["result"]["downstairs_null"] is True
    fact = json.loads((FIXTURES / "classical_xy.json").read_text())
    lift_desc = {
        "context": fact["context"],
        "d": 2,
        "source": {"ranks": fact["ranks"], "maps": fact["maps"]},
        "target": {"ranks": fact["ranks"], "maps": fact["maps"]},
        "components": [[["y"]], [["y"]]],
    }
    lpath = tmp_path / "lift.json"
    lpath.write_text(json.dumps(lift_desc))
    code, rep = run_cli(["lift", lpath, "--f", "x*y"], capsys)
    assert code == 0
    assert rep["verdict"] == "lifted"


def test_axioms_verb(capsys):
    code, rep = run_cli(
        ["axioms", "--ctx", FIXTURES / "ctx_f7xy_xy.json", "--seed", "42", "--trials", "5"],
        capsys,
    )
    assert code == 0
    assert rep["result"]["failures"] == []


@pytest.mark.parametrize("name", ["ctx_f7xy_xy", "ctx_f7xy_sos"])
def test_axioms_at_d6(capsys, name):
    code, rep = run_cli(
        ["axioms", "--ctx", FIXTURES / f"{name}.json", "--d", "6", "--seed", "42", "--trials", "5"],
        capsys,
    )
    assert code == 0
    assert rep["verdict"] == "verified"
    assert rep["result"]["failures"] == []


def test_axioms_quantum_context(capsys):
    code, rep = run_cli(
        ["axioms", "--ctx", FIXTURES / "quantum_context.json", "--seed", "7", "--trials", "3"],
        capsys,
    )
    assert code == 0


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code = main(
            [
                "axioms",
                "--ctx",
                str(FIXTURES / "ctx_f7xy_xy.json"),
                "--seed",
                "42",
                "--trials",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dfactor.cli", "verify", str(FIXTURES / "classical_xy.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "verified"


def test_in_process_calls_match_fresh_processes(tmp_path):
    assert build_parser() is build_parser()
    ctx, classical = str(FIXTURES / "ctx_f7xy_xy.json"), str(FIXTURES / "classical_xy.json")
    calls = [
        ["axioms", "--ctx", ctx, "--seed", "3", "--trials", "2", "--d", "4"],
        ["verify", classical],
    ]
    fresh = []
    for i, argv in enumerate(calls):
        out = tmp_path / f"fresh{i}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "dfactor.cli", *argv, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        fresh.append((proc.returncode, out.read_bytes()))
    in_process = []
    for i, argv in enumerate(calls):
        if i:
            with pytest.raises(SystemExit) as usage_error:
                main(["verify", classical, "--no-such-flag"])
            assert usage_error.value.code == 2
        out = tmp_path / f"in{i}.json"
        in_process.append((main([*argv, "--out", str(out)]), out.read_bytes()))
    assert in_process == fresh


def test_no_state_crosses_calls(tmp_path, monkeypatch):
    # the work a call keeps is dropped when it returns: rewriting an input
    # between calls changes the report as a fresh process would
    a = _morphism_file(tmp_path, "a.json", [[["y"]], [["y"]]])
    b = _morphism_file(tmp_path, "b.json", [[["0"]], [["0"]]])
    out = tmp_path / "report.json"
    argv = ["homotopic", str(a), str(b), "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["verdict"] == "homotopic"
    _morphism_file(tmp_path, "a.json", [[["1"]], [["1"]]])
    assert main(argv) == 2
    assert json.loads(out.read_text())["verdict"] == "not_homotopic"
    doc = json.loads(a.read_text())
    doc["source"]["maps"][1] = [["y +"]]
    a.write_text(json.dumps(doc))
    in_process = main(argv), out.read_bytes()
    out.unlink()
    proc = subprocess.run([sys.executable, "-m", "dfactor.cli", *argv], capture_output=True)
    assert in_process == (proc.returncode, out.read_bytes())
    assert json.loads(in_process[1])["kind"] == "ParseError"
    # and outside a call nothing is kept: a repeated completion runs again
    completions = [0]
    reduce_basis = modgb._reduce_module_basis

    def counting(*args):
        completions[0] += 1
        return reduce_basis(*args)

    monkeypatch.setattr(modgb, "_reduce_module_basis", counting)
    amb = Ambient(GF(7), ("x", "y"))
    gens = [amb.poly("x^2 - y"), amb.poly("x*y - 1")]
    assert groebner(gens) == groebner(gens)
    assert completions == [2]


def test_odd_d_is_rejected_and_cannot_be_allowed(tmp_path, capsys):
    """Odd d is a ValueError report; no flag of any verb lets it through
    (the d = 3 cone failure is reproduced in the library instead)."""
    desc = {
        "context": {
            "ring": {"field": {"char": 7}, "vars": ["x"], "order": "grevlex", "ideal": []},
            "twist": "identity",
            "eta": "x^3",
        },
        "d": 3,
        "ranks": [1, 1, 1],
        "maps": [[["x"]], [["x"]], [["x"]]],
    }
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(desc))
    code, rep = run_cli(["verify", path], capsys)
    assert code == 1
    assert rep["kind"] == "ValueError" and rep["error"] == "d must be even"
    for argv in (["verify", path], ["cone", path], ["triangle", path],
                 ["homotopic", path, path], ["faithful", path, "--f", "x"]):
        with pytest.raises(SystemExit) as usage_error:
            main([str(a) for a in argv] + ["--allow-odd-d"])
        assert usage_error.value.code == 2
        assert "--allow-odd-d" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--d", "3", "--trials", "0"], "--d"),  # was exit 0 "verified"
        (["--d", "3", "--trials", "1"], "--d"),  # was exit 1 CompositionMismatch
        (["--d", "0"], "--d"),
        (["--trials", "-5"], "--trials"),  # was exit 0 with "trials": -5
    ],
)
def test_axioms_d_and_trials_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as usage_error:
        main(["axioms", "--ctx", str(FIXTURES / "ctx_f7xy_xy.json"), *argv])
    assert usage_error.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_no_hidden_cli_flags():
    """Every option of every verb shows in its help."""
    parser = build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    hidden = [
        (verb, action.dest)
        for verb, sub in verbs.choices.items()
        for action in sub._actions
        if action.help == argparse.SUPPRESS
    ]
    assert hidden == []


def _json_paths(node, prefix=()):
    """Every dict key and list index below ``node``, as a path."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


_DELETE = object()


def _mutated(doc, path, value):
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


def test_wrong_json_types_never_escape_main(tmp_path):
    # one key deleted or replaced by a value of another type, in every input
    fact = json.loads((FIXTURES / "classical_xy.json").read_text())
    morph = {
        "context": fact["context"],
        "d": 2,
        "source": {"ranks": fact["ranks"], "maps": fact["maps"]},
        "target": {"ranks": fact["ranks"], "maps": fact["maps"]},
        "components": [[["y"]], [["y"]]],
    }
    quantum = json.loads((FIXTURES / "quantum_context.json").read_text())
    window = {
        "ring": {"field": {"char": 7}, "vars": ["x"], "order": "grevlex", "ideal": ["x^4"]},
        "lo": -1, "hi": 1, "period": 2, "nilpotency": 2, "maps": [[["x^3"]], [["x^3"]]],
        "offsets": [[-1], [0], [0]],
    }
    other = tmp_path / "other.json"
    other.write_text(json.dumps(morph))
    path, out = tmp_path / "mutant.json", tmp_path / "report.json"
    inputs = [
        (["verify", path], fact),
        (["homotopic", path, other], morph),
        (["verify", path], {"context": quantum, "d": 2, "offsets": [[0], [1]],
                            "maps": [[[quantum["eta"]]], [["1"]]]}),
        (["exact", path], window),
        (["dg", path], dict(morph, degree=1)),
        (["lift", path, "--f", "x*y"], morph),
        (["endring", path, "--g", "x"],
         json.loads((FIXTURES / "ring_f7xy_mod_xy.json").read_text())),
    ]
    for argv, doc in inputs:
        for where in list(_json_paths(doc)):
            for value in (_DELETE, "ab", 3, [], {}, None, -1):
                path.write_text(json.dumps(_mutated(doc, where, value)))
                code = main([*map(str, argv), "--out", str(out)])
                report = json.loads(out.read_text())
                assert code in (0, 1, 2), (argv, where, value)
                assert code != 1 or "error" in report, (argv, where, value)


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
_FUZZ_CASES = {
    "verify": ("checktac_pos.json", []),
    "checktac": ("checktac_pos.json", ["--f", "x*y"]),
    "exact": ("exact_pos.json", []),
    # phi against a mutant of phi: near-identical subtrees must not share work
    "homotopic": ("homotopic_f7_pos_phi.json", []),
}
_FUZZ_VALUES = st.sampled_from(
    ["0", "1", "x", "y^2", "x*y", "x +", "ab", 3, 0, -1, 2, 10**6, 1.5, True, None, [], {}]
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_whole_document_mutants_are_reported_deterministically(tmp_path, data):
    verb = data.draw(st.sampled_from(sorted(_FUZZ_CASES)), label="verb")
    name, flags = _FUZZ_CASES[verb]
    doc = json.loads((GOLDEN_INPUTS / name).read_text())
    where = data.draw(st.sampled_from(list(_json_paths(doc))), label="path")
    how = data.draw(st.sampled_from(["replace", "delete", "wrap in a list", "wrap in an object"]))
    node = doc
    for key in where:
        node = node[key]
    if how == "delete":
        value = _DELETE
    elif how == "replace":
        value = data.draw(_FUZZ_VALUES, label="value")
    else:
        value = [node] if how == "wrap in a list" else {"value": node}
    mutant, out = tmp_path / "mutant.json", tmp_path / "report.json"
    mutant.write_text(json.dumps(_mutated(doc, where, value)))
    inputs = [str(GOLDEN_INPUTS / name), str(mutant)] if verb == "homotopic" else [str(mutant)]
    argv = [verb, *inputs, *flags, "--out", str(out)]
    runs = []
    for _ in range(2):
        code = main(argv)
        runs.append((code, out.read_bytes()))
        assert code in (0, 1, 2)
        assert isinstance(json.loads(runs[-1][1]), dict)
    assert runs[0] == runs[1]


def _list_mutants(doc):
    """``doc`` with one list at depth 3 or less grown by a copy of its
    last element, and with that list shrunk by one."""
    for where in _json_paths(doc):
        node = doc
        for key in where:
            node = node[key]
        if len(where) <= 3 and isinstance(node, list) and node:
            yield where, node + [node[-1]]
            yield where, node[:-1]


def test_list_length_mutants_of_golden_inputs_are_reported(tmp_path):
    # a list one too long or one too short, such as a dg input with d + 1
    # components, must end in a report and never in an IndexError
    mutant, out = tmp_path / "mutant.json", tmp_path / "report.json"
    runs = 0
    for argv in GOLDEN_CASES.values():
        if argv[0] == "axioms" or sum(a.endswith(".json") for a in argv) != 1:
            continue
        doc = json.loads((GOLDEN_INPUTS / argv[1]).read_text())
        for where, value in _list_mutants(doc):
            mutant.write_text(json.dumps(_mutated(doc, where, value)))
            code = main([argv[0], str(mutant), *argv[2:], "--out", str(out)])
            assert code in (0, 1, 2), (argv, where)
            assert isinstance(json.loads(out.read_text()), dict), (argv, where)
            runs += 1
    assert runs > 200


def test_wrong_json_type_is_parse_error(tmp_path, capsys):
    # a morphism without "source", and ranks written as a string
    morph = json.loads(_morphism_file(tmp_path, "m.json", [[["1"]], [["1"]]]).read_text())
    del morph["source"]
    bad = tmp_path / "no_source.json"
    bad.write_text(json.dumps(morph))
    _assert_parse_error(*run_cli(["homotopic", bad, bad], capsys))
    desc = json.loads((FIXTURES / "classical_xy.json").read_text())
    desc["ranks"] = "ab"
    bad.write_text(json.dumps(desc))
    _assert_parse_error(*run_cli(["verify", bad], capsys))


@pytest.mark.parametrize("rank", [10**30, 10**9, 3])
def test_rank_out_of_shape_is_shape_mismatch(tmp_path, capsys, monkeypatch, rank):
    # every rank is checked against its maps before FreeObj.of runs; a
    # guard stands in for it, so that a rank of 10**9 allocates nothing
    built = []

    def guarded_of(cls, r, offset=0):
        built.append(r)
        if r > 2:
            raise AssertionError(f"FreeObj.of reached with rank {r}")
        return cls(offsets=(offset,) * r)

    monkeypatch.setattr(FreeObj, "of", classmethod(guarded_of))
    fact = json.loads((FIXTURES / "classical_xy.json").read_text())
    bad_fact = dict(fact, ranks=[rank, 1])
    other = _morphism_file(tmp_path, "m.json", [[["1"]], [["1"]]])
    morph = json.loads(other.read_text())
    morph["source"]["ranks"] = [rank, 1]
    path = tmp_path / "bad.json"
    for argv, doc in (
        (["verify", path], bad_fact),
        (["homotopic", path, other], morph),
        (["dg", path], dict(morph, degree=-1)),
    ):
        path.write_text(json.dumps(doc))
        code, report = run_cli(argv, capsys)
        assert code == 1
        assert report["kind"] == "ShapeMismatch"
        assert report["error"] == f"grid must be 1 x {rank}, got 1 x [1]"
    assert max(built, default=0) <= 2


def test_flag_of_another_verb_is_usage_error(capsys):
    with pytest.raises(SystemExit) as usage_error:
        main(["verify", str(FIXTURES / "classical_xy.json"), "--g", "x"])
    assert usage_error.value.code == 2
    assert "--g" in capsys.readouterr().err


@pytest.mark.parametrize("verb, flag", [("endring", "--g"), ("dualq", "--x")])
def test_missing_required_flag_is_usage_error(verb, flag, capsys):
    with pytest.raises(SystemExit) as usage_error:
        main([verb, str(FIXTURES / "ring_f7xy_mod_xy.json")])
    assert usage_error.value.code == 2
    assert flag in capsys.readouterr().err


def test_deadline_bounds_the_algebra_solve(tmp_path, capsys):
    quantum = json.loads((FIXTURES / "quantum_context.json").read_text())
    trivial = {"d": 2, "ranks": [1, 1], "maps": [[["1"]], [[quantum["eta"]]]]}
    desc = {"context": quantum, "d": 2, "source": trivial, "target": trivial}
    phi, psi = tmp_path / "phi.json", tmp_path / "psi.json"
    phi.write_text(json.dumps(dict(desc, components=[[["1"]], [["1"]]])))
    psi.write_text(json.dumps(dict(desc, components=[[["3"]], [["3"]]])))
    code, rep = run_cli(["homotopic", phi, psi], capsys)
    assert code == 0 and rep["verdict"] == "homotopic"
    code, rep = run_cli(["homotopic", phi, psi, "--deadline", "1e-9"], capsys)
    assert code == 1
    assert rep["kind"] == "DeadlineExceeded"


def test_deadline_bounds_the_algebra_reduction(tmp_path, capsys):
    quantum = json.loads((FIXTURES / "quantum_context.json").read_text())
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(
        {"context": quantum, "d": 2, "ranks": [1, 1], "maps": [[["1"]], [[quantum["eta"]]]]}
    ))
    code, rep = run_cli(["reduce", path, "--f", quantum["eta"]], capsys)
    assert code == 0 and rep["verdict"] == "verified"
    code, rep = run_cli(["reduce", path, "--f", quantum["eta"], "--deadline", "1e-9"], capsys)
    assert code == 1
    assert rep["kind"] == "DeadlineExceeded" and rep["error"] == "field elimination: pivot 1 of 5"


def test_deadline_bounds_the_axiom_suite(capsys):
    # the quantum context reaches one field elimination, about 2 ms into
    # parsing; the 300 trials take about 2 s and only the trial loop polls
    ctx = FIXTURES / "quantum_context.json"
    args = ["axioms", "--ctx", ctx, "--trials", "300", "--seed", "1", "--deadline", "0.2"]
    code, rep = run_cli(args, capsys)
    assert code == 1
    assert rep["kind"] == "DeadlineExceeded"
    assert rep["error"].startswith("axioms: ") and rep["error"].endswith(" of 300 trials")


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("name", ["ctx_f7xy_xy.json", "quantum_context.json"])
def test_no_poll_is_reached_inside_an_axiom_check(name, d, monkeypatch):
    # an expiry inside a check would be caught as a failed check (exit 2)
    # instead of raised as an error (exit 1)
    polls = []

    def spy():
        frame = sys._getframe(1)
        while frame is not None and not (
            frame.f_code.co_name == "check" and frame.f_code.co_filename.endswith("axioms.py")
        ):
            frame = frame.f_back
        polls.append(frame is None)
        return False

    for module in list(sys.modules.values()):
        if module.__name__.startswith("dfactor") and getattr(module, "expired", None) is expired:
            monkeypatch.setattr(module, "expired", spy)
    ctx = context_from_json(json.loads((FIXTURES / name).read_text()))
    with one_call(deadline=time.monotonic() + 60):
        passed, _ = run_axiom_suite(ctx, d, seed=1, trials=10)
    assert passed
    assert len(polls) > 10  # more than the trial loop's own polls
    assert all(polls)


def test_deadline_bounds_ring_parsing(tmp_path, capsys):
    # the defining ideal (x*z, y*z) queues one pair when the ring is parsed
    ring = json.loads((FIXTURES / "ring_f7xyz_mod_xz_yz.json").read_text())
    path = tmp_path / "xy.json"
    path.write_text(json.dumps({
        "context": {"ring": ring, "twist": "identity", "eta": "x*y"},
        "d": 2, "ranks": [1, 1], "maps": [[["x"]], [["y"]]],
    }))
    code, rep = run_cli(["verify", path], capsys)
    assert code == 0 and rep["verdict"] == "verified"
    code, rep = run_cli(["verify", path, "--deadline", "1e-9"], capsys)
    assert code == 1 and rep["kind"] == "DeadlineExceeded"
    assert rep["error"] == "module groebner: 0 pairs done, 1 queued"


def test_no_callable_takes_a_deadline():
    """Only ``reuse.one_call`` takes a deadline, and only ``cli`` opens
    one, so no caller can forget to pass the deadline on."""
    takers, openers = [], []
    for path in sorted((FIXTURES.parent / "src" / "dfactor").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                if "deadline" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]:
                    takers.append(getattr(node, "name", "lambda"))
            elif isinstance(node, ast.Call) and "one_call" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                openers.append(path.name)
    assert takers == ["one_call"]
    assert openers == ["cli.py"]


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "abc"])
def test_deadline_must_be_positive_and_finite(value, capsys):
    # 0 meant no deadline at all, and nan and inf never expired
    for argv in (["--deadline", value], [f"--deadline={value}"]):
        with pytest.raises(SystemExit) as usage_error:
            main(["checktac", str(FIXTURES / "sos_2x2.json"), "--f", "x", *argv])
        assert usage_error.value.code == 2
        assert "--deadline" in capsys.readouterr().err


def test_piped_input_is_read_once():
    fixture = FIXTURES / "classical_xy.json"
    cmd = [sys.executable, "-m", "dfactor.cli", "verify"]
    by_path = subprocess.run(cmd + [str(fixture)], capture_output=True, text=True)
    piped = subprocess.run(
        cmd + ["/dev/stdin"], input=fixture.read_text(), capture_output=True, text=True
    )
    assert piped.returncode == by_path.returncode == 0
    want, got = json.loads(by_path.stdout), json.loads(piped.stdout)
    assert got["verdict"] == want["verdict"] == "verified"
    assert list(got["inputs"].values()) == list(want["inputs"].values())


def test_huge_characteristic_is_rejected_quickly(tmp_path, capsys):
    desc = json.loads((FIXTURES / "classical_xy.json").read_text())
    path = tmp_path / "huge.json"
    desc["context"]["ring"]["field"]["char"] = 1000000000000000003
    path.write_text(json.dumps(desc))
    start = time.monotonic()
    code, report = run_cli(["verify", path, "--deadline", "1"], capsys)
    assert time.monotonic() - start < 1.0
    _assert_parse_error(code, report)
    desc["context"]["ring"]["field"]["char"] = 2**31 - 1
    path.write_text(json.dumps(desc))
    code, report = run_cli(["verify", path], capsys)
    assert code == 0 and report["verdict"] == "verified"


@pytest.mark.parametrize(
    "field, variables",
    [
        ({"rationals": "no", "char": 7}, ["x", "y"]),  # was read as Q
        ({"rationals": 1}, ["x", "y"]),
        ({"rationals": True, "char": 7}, ["x", "y"]),
        ({"char": 7, "rationals": False}, ["x", "y"]),  # was read as F_7
        ({"char": 7}, ["x", "y", "y"]),  # the second y could never be named
        ({"char": 7}, ["x", "y", "y z"]),
        ({"char": 7}, ["x", "y", "2z"]),
        ({"char": 7}, ["x", "y", ""]),
    ],
)
def test_misread_descriptors_are_parse_errors(field, variables, tmp_path, capsys):
    desc = json.loads((FIXTURES / "classical_xy.json").read_text())
    desc["context"]["ring"].update(field=field, vars=variables)
    path = tmp_path / "misread.json"
    path.write_text(json.dumps(desc))
    _assert_parse_error(*run_cli(["verify", path], capsys))


def test_monomial_algebra_cap_is_checked_at_each_degree(tmp_path, capsys):
    # k<x,y>/(xx) has 87 words of length at most 7; the words up to the
    # degree cap 26 number about 800,000
    ring = {"gens": ["x", "y"], "monomial_rels": ["xx"], "field": {"char": 7}, "degree_cap": 26}
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps({
        "context": {"ring": ring, "twist": "identity", "eta": "0"},
        "d": 2, "ranks": [1, 1], "maps": [[["x"]], [["y"]]],
    }))
    start = time.monotonic()
    code, rep = run_cli(["verify", path, "--deadline", "0.2"], capsys)
    assert time.monotonic() - start < 1.0
    assert code == 1 and rep["error"] == "dimension 87 exceeds cap 64"


def test_reduce_window_respects_the_deadline(capsys):
    # unrolling and checking 100,000 positions takes over a second
    start = time.monotonic()
    code, rep = run_cli(
        ["reduce", FIXTURES / "classical_xy.json", "--f", "x", "--window", "100000",
         "--deadline", "0.25"],
        capsys,
    )
    assert time.monotonic() - start < 0.5
    assert code == 1 and rep["kind"] == "DeadlineExceeded"
    assert rep["error"].startswith("window [-50000, 50000]: ")


def test_missing_input_file_is_parse_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    _assert_parse_error(*run_cli(["verify", missing], capsys))
    _assert_parse_error(*run_cli(["axioms", "--ctx", missing], capsys))
