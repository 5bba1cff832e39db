"""Module engine: syzygies, membership lifts, colon ideals, solving."""

import dataclasses
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfactor import modgb
from dfactor.errors import DeadlineExceeded
from dfactor.fields import GF, QQ
from dfactor.modgb import (
    LinearSolution,
    NoSolutionCertificate,
    colon_ideal,
    is_module_groebner,
    is_regular,
    matrix_kernel,
    membership_lift,
    module_groebner,
    solve_linear,
    syzygy_gens,
    vec_divmod,
    vec_lead,
)
from dfactor.rings import GREVLEX, LEX, Ambient, Ideal, Poly, QuotientRing
from tests.oracles import all_pairs_module_groebner, merge_vec_divmod


@pytest.fixture
def amb():
    return Ambient(GF(7), ("x", "y"))


@pytest.fixture
def R(amb):
    return QuotientRing(amb)


@pytest.fixture
def R_xy(amb):
    return QuotientRing(amb, Ideal(amb, [amb.poly("x*y")]))


def test_module_groebner_is_groebner(amb):
    x, y = amb.poly("x"), amb.poly("y")
    vecs = [(x, y), (y, x), (amb.poly("x^2"), amb.zero())]
    gb = module_groebner(vecs, amb)
    assert is_module_groebner(gb, amb)


def test_membership_with_lift(amb):
    x, y = amb.poly("x"), amb.poly("y")
    gens = [(x,), (y,)]
    coeffs, cert = membership_lift(gens, (amb.poly("x^2 + 3*x*y"),), amb)
    assert cert is None
    acc = coeffs[0] * x + coeffs[1] * y
    assert acc == amb.poly("x^2 + 3*x*y")


def test_membership_failure_certificate(amb):
    x, y = amb.poly("x"), amb.poly("y")
    coeffs, cert = membership_lift([(x,), (y,)], (amb.one(),), amb)
    assert coeffs is None
    assert isinstance(cert, NoSolutionCertificate)
    assert cert.reverify(amb)


def test_syzygies_of_xy(amb):
    x, y = amb.poly("x"), amb.poly("y")
    syz = syzygy_gens([(x,), (y,)], amb)
    # all relations a*x + b*y = 0 are multiples of (y, -x)
    assert len(syz) == 1
    a, b = syz[0]
    assert a * x + b * y == amb.zero()
    assert {a.monic(), b.monic()} == {amb.poly("y"), amb.poly("x")}


def test_colon_examples(amb, R, R_xy):
    x = amb.poly("x")
    # (xy : x) = (y) in F7[x,y]
    basis, certs = colon_ideal([amb.poly("x*y")], x, R)
    assert basis == (amb.poly("y"),)
    # every returned generator multiplies g into the ideal
    for r, quots in zip(basis, certs):
        acc = amb.zero()
        for q, h in zip(quots, [amb.poly("x*y")]):
            acc = acc + q * h
        assert acc == r * x
    # (I : 1) = I
    gens = [amb.poly("x^2 - y"), amb.poly("x*y")]
    basis_one, _ = colon_ideal(gens, amb.one(), R)
    from dfactor.rings import groebner

    assert basis_one == groebner(gens)
    # ((0) : x) = (0) in a domain
    basis_zero, _ = colon_ideal([], x, R)
    assert basis_zero == ()


def test_colon_in_quotient_ring(amb, R_xy):
    # inside F7[x,y]/(xy): (0 : x) = (y)
    basis, _ = colon_ideal([], amb.poly("x"), R_xy)
    nonzero = [R_xy.nf(b) for b in basis if not R_xy.nf(b).is_zero]
    assert nonzero == [amb.poly("y")]


def test_is_regular(amb, R, R_xy):
    assert not is_regular(amb.poly("x"), R_xy)
    assert is_regular(amb.poly("x^2 + y^2"), R)
    Rx = QuotientRing(Ambient(GF(7), ("x",)))
    assert is_regular(Rx.amb.poly("x^3"), Rx)
    with pytest.raises(ValueError):
        is_regular(amb.poly("x*y"), R_xy)


def test_solve_linear_examples(amb, R):
    x, y = amb.poly("x"), amb.poly("y")
    res = solve_linear([(x, y)], [amb.poly("x*y")], R)
    assert isinstance(res, LinearSolution)
    s = res.solution
    assert s[0] * x + s[1] * y == amb.poly("x*y")

    res2 = solve_linear([(x, y)], [amb.one()], R)
    assert isinstance(res2, NoSolutionCertificate)
    assert res2.reverify(amb)

    # identity system
    rows = [(amb.one(), amb.zero()), (amb.zero(), amb.one())]
    rhs = [amb.poly("x^2"), amb.poly("y + 3")]
    res3 = solve_linear(rows, rhs, R)
    assert list(res3.solution) == rhs


def test_solve_linear_respects_quotient(amb, R_xy):
    # x*s = x^2*y has solution in the quotient (rhs is 0 there)
    res = solve_linear([(amb.poly("x"),)], [amb.poly("x^2*y")], R_xy)
    assert isinstance(res, LinearSolution)


def test_matrix_kernel(amb, R_xy):
    # kernel of (x) over F7[x,y]/(xy) is generated by (y)
    kern = matrix_kernel([(amb.poly("x"),)], R_xy)
    mons = {v[0].monic() for v in kern}
    assert amb.poly("y") in mons


from tests.oracles import bounded_degree_solvable as _bounded_degree_solvable


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_solve_linear_vs_bruteforce(seed):
    rng = random.Random(seed)
    amb = Ambient(GF(7), ("x", "y"))
    ring = QuotientRing(amb)

    def rand_poly(max_deg=2, max_terms=2):
        q = amb.zero()
        for _ in range(rng.randint(0, max_terms)):
            mon = tuple(rng.randint(0, max_deg) for _ in range(2))
            q = q + amb.monomial(mon, rng.randrange(7))
        return q

    rows = [tuple(rand_poly() for _ in range(2)) for _ in range(2)]
    rhs = [rand_poly() for _ in range(2)]
    res = solve_linear(rows, rhs, ring)
    bound = (
        max(q.total_degree() for q in rhs if not q.is_zero)
        if any(not q.is_zero for q in rhs)
        else 0
    )
    bound += max(
        (rows[i][j].total_degree() for i in range(2) for j in range(2) if not rows[i][j].is_zero),
        default=0,
    )
    bound = max(bound, 1)
    brute = _bounded_degree_solvable(rows, rhs, ring, bound)
    if isinstance(res, LinearSolution):
        sol_deg = max((s.total_degree() for s in res.solution if not s.is_zero), default=0)
        if sol_deg <= bound:
            assert brute
    else:
        assert not brute


def test_module_interreduction_polls_the_deadline(amb):
    # distinct lead positions queue no pairs: only interreduction can poll
    x, y = amb.poly("x"), amb.poly("y")
    vecs = [(x, y), (amb.zero(), y)]
    assert len(module_groebner(vecs, amb, deadline=time.monotonic() + 60)) == 2
    with pytest.raises(DeadlineExceeded, match=r"^module groebner interreduction: 0 of 2 elements$"):
        module_groebner(vecs, amb, deadline=time.monotonic() - 1)


def test_module_pair_loop_reports_progress_at_the_deadline(amb):
    # three leads at position 0 queue the pairs (0, 1) and (1, 2); the
    # chain criterion drops (0, 2), whose lcm x*y equals that of (1, 2)
    x, y = amb.poly("x"), amb.poly("y")
    vecs = [(x, y), (y, x), (amb.poly("x*y"), amb.one())]
    with pytest.raises(DeadlineExceeded, match=r"^module groebner: 0 pairs done, 2 queued$"):
        module_groebner(vecs, amb, deadline=time.monotonic() - 1)


# -- heap division of vectors against the merge reducer -----------------------


def _random_poly(rng, amb, max_terms, max_exp):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mon = tuple(rng.randint(0, max_exp) for _ in range(amb.nvars))
        if amb.field.char:
            terms[mon] = rng.randrange(1, amb.field.char)
        else:
            terms[mon] = Fraction(rng.choice((1, 2, 3, -1, -2, -5)), rng.randint(1, 4))
    key = amb.order.key
    return Poly(amb, tuple(sorted(terms.items(), key=lambda t: key(t[0]), reverse=True)))


def _check_vec_division(v, basis, amb):
    leads = [vec_lead(g) for g in basis]
    want = merge_vec_divmod(v, basis, amb, want_combo=True)
    assert vec_divmod(v, basis, amb, want_combo=True) == want
    assert vec_divmod(v, basis, amb, want_combo=True, leads=leads) == want
    assert vec_divmod(v, basis, amb) == (want[0], None)
    assert vec_divmod(v, basis, amb, leads=leads) == merge_vec_divmod(v, basis, amb, leads=leads)
    rem, combo = want
    recombined = list(rem)
    for c, g in zip(combo, basis):
        recombined = [a + c * b for a, b in zip(recombined, g)]
    assert tuple(recombined) == tuple(v)
    for pos, p in enumerate(rem):
        for lead in leads:
            if lead is not None and lead[0] == pos:
                assert not any(all(map(int.__le__, lead[1], m)) for m, _ in p.terms)


@pytest.mark.parametrize("field", [GF(7), QQ()], ids=["F7", "Q"])
@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_vec_divmod_matches_merge_reducer(field, order):
    amb = Ambient(field, ("x", "y", "z"), order)
    rng = random.Random(9001 + 10 * field.char + ("grevlex", "lex").index(order.name))
    for _ in range(150):
        size = rng.randint(1, 4)
        v = tuple(_random_poly(rng, amb, 6, 4) for _ in range(size))
        basis = []
        for _ in range(rng.randint(0, 5)):
            # zero up to a random position, then random (mostly non-monic) entries
            start = rng.randrange(size)
            basis.append(
                tuple(amb.zero() if i < start else _random_poly(rng, amb, 4, 2) for i in range(size))
            )
        _check_vec_division(v, basis, amb)


@pytest.mark.parametrize("field", [GF(7), QQ()], ids=["F7", "Q"])
@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_vec_divmod_edge_cases(field, order):
    amb = Ambient(field, ("x", "y"), order)
    zero, P = amb.zero(), amb.poly
    v = (P("x^2*y + 2*x + 3"), P("y^2 - x"), P("5*x*y"))
    _check_vec_division(v, [], amb)
    _check_vec_division((zero, zero, zero), [(P("x"), zero, P("y"))], amb)
    _check_vec_division(v, [(zero, zero, zero), (P("3*x + 1"), P("y"), zero)], amb)
    # non-monic leads whose tails reach later positions, and a later lead
    basis = [(P("2*x*y + y"), P("3*x"), P("y^2 + 1")), (zero, P("4*y"), P("x - 1"))]
    _check_vec_division(v, basis, amb)
    rem, combo = vec_divmod(v, basis, amb, want_combo=True)
    assert not combo[0].is_zero and not combo[1].is_zero
    # a position that only a reduction touched, with no lead of its own
    _check_vec_division((P("x"), zero), [(P("x"), P("y + 2"))], amb)


# -- the Gebauer–Möller engine against the all-pairs oracle -------------------


def _random_module(rng, amb, rank):
    """Generators with small leads, so that equal lcms are common, plus
    a duplicate, a scalar multiple and a zero vector, which the
    augmented system turns into a generator with a zero main block."""
    gens = []
    for _ in range(rng.randint(2, 4)):
        start = rng.randrange(rank)
        gens.append(
            tuple(amb.zero() if i < start else _random_poly(rng, amb, 2, 2) for i in range(rank))
        )
    gens.append(rng.choice(gens))
    gens.append(tuple(p.scale(3) for p in rng.choice(gens)))
    gens.insert(rng.randrange(len(gens)), tuple(amb.zero() for _ in range(rank)))
    return gens


@pytest.mark.parametrize("field", [GF(7), QQ()], ids=["F7", "Q"])
@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_module_groebner_matches_all_pairs_oracle(field, order, monkeypatch):
    amb = Ambient(field, ("x", "y"), order)
    ring = QuotientRing(amb, Ideal(amb, [amb.poly("x^2*y")]))
    rng = random.Random(9301 + 10 * field.char + ("grevlex", "lex").index(order.name))
    for _ in range(12):
        rank = rng.randint(1, 3)
        gens = _random_module(rng, amb, rank)
        target = tuple(_random_poly(rng, amb, 3, 2) for _ in range(rank))
        rows = [tuple(g[i] for g in gens) for i in range(rank)]
        member = tuple(g0 + g1 for g0, g1 in zip(gens[0], gens[-1]))

        def outputs():
            return (
                modgb.module_groebner(gens, amb),
                modgb.module_groebner(modgb._augment(gens, amb), amb),
                syzygy_gens(gens, amb),
                membership_lift(gens, target, amb),
                membership_lift(gens, member, amb),
                matrix_kernel(rows, ring),
            )

        got = outputs()
        with monkeypatch.context() as m:
            m.setattr(modgb, "module_groebner", lambda vecs, amb, deadline=None: (
                all_pairs_module_groebner(vecs, amb)
            ))
            want = outputs()
        assert got == want
        assert is_module_groebner(got[1], amb)
        assert got[4][1] is None  # a sum of two generators is a member


_P7 = Ambient(GF(7), ("x", "y", "z"))


def _pinned_pair_reductions(monkeypatch, call):
    calls, at_final_reduction = [0], []
    divmod, reduce_basis = modgb.vec_divmod, modgb._reduce_module_basis

    def counting_divmod(*args, **kwargs):
        calls[0] += 1
        return divmod(*args, **kwargs)

    def recording_reduce(*args):
        at_final_reduction.append(calls[0])
        return reduce_basis(*args)

    monkeypatch.setattr(modgb, "vec_divmod", counting_divmod)
    monkeypatch.setattr(modgb, "_reduce_module_basis", recording_reduce)
    call()
    return at_final_reduction


def test_syzygy_pair_reductions_pinned(monkeypatch):
    """S-pair reductions are deterministic: a count, not a timing.

    The all-pairs engine this one replaced (no pair criteria, lowest
    lcm degree first) took 83 reductions for these generators, not
    counting the final interreduction.
    """
    P = _P7.poly
    vecs = [(P("x^2"), P("y^2")), (P("x*y"), P("x + y")), (P("y^2"), P("x^2")),
            (P("x"), P("y")), (P("z"), P("x*z"))]
    assert _pinned_pair_reductions(monkeypatch, lambda: syzygy_gens(vecs, _P7)) == [22]


def test_membership_lift_pair_reductions_pinned(monkeypatch):
    """The all-pairs engine took 27 reductions for this lift."""
    P, zero = _P7.poly, _P7.zero()
    gens = [(P("x"), P("y"), P("z")), (P("y"), P("z"), P("x")), (P("z"), P("x"), P("y")),
            (P("x*y"), zero, P("z^2"))]
    target = (P("x^2"), P("y^2"), P("z^2"))
    got = _pinned_pair_reductions(monkeypatch, lambda: membership_lift(gens, target, _P7))
    assert got == [15]


def test_matrix_kernel_pair_reductions_pinned(monkeypatch):
    """The all-pairs engine took 37 reductions for this kernel."""
    P = _P7.poly
    ring = QuotientRing(_P7, Ideal(_P7, [P("x*y"), P("z^2")]))
    rows = [(P("x"), P("y"), P("x + z")), (P("y"), P("x^2"), _P7.zero())]
    assert _pinned_pair_reductions(monkeypatch, lambda: matrix_kernel(rows, ring)) == [19]


# -- certificates that a forger cannot pass off ---------------------------------


def test_forged_certificates_are_rejected(amb):
    x, y, one, zero = amb.poly("x"), amb.poly("y"), amb.one(), amb.zero()
    # the claim 1 is not in <1>, with an empty basis that proves nothing
    forged = NoSolutionCertificate(
        gens=((one,),), gb=(), remainder=(one, zero), main_len=1, target=(one, zero)
    )
    assert not forged.reverify(amb)
    _, cert = membership_lift([(x,), (y,)], (one,), amb)
    assert cert.reverify(amb)
    for k in range(len(cert.gb)):
        dropped = cert.gb[:k] + cert.gb[k + 1 :]
        assert not dataclasses.replace(cert, gb=dropped).reverify(amb)
    # a true remainder of another vector, not of the target
    _, other = membership_lift([(x,), (y,)], (amb.poly("2"),), amb)
    assert other.reverify(amb)
    assert not dataclasses.replace(cert, remainder=other.remainder).reverify(amb)
    # a target with a tag block, or of the wrong length
    assert not dataclasses.replace(cert, target=cert.target[:1] + (one, zero)).reverify(amb)
    assert not dataclasses.replace(cert, target=cert.target[:2]).reverify(amb)
