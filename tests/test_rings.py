"""Ring layer: normal forms, Gröbner bases, orders."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfactor import modgb
from dfactor._kernel import pure
from dfactor.errors import DeadlineExceeded
from dfactor.exprs import format_poly, parse_poly
from dfactor.fields import GF, QQ
from dfactor.reuse import one_call
from dfactor.rings import GREVLEX, LEX, Ambient, Ideal, QuotientRing, groebner
from tests.oracles import dict_mul, merge_divmod_basis


@pytest.fixture
def F7xy():
    return Ambient(GF(7), ("x", "y"))


@pytest.fixture
def R_xy(F7xy):
    return QuotientRing(F7xy, Ideal(F7xy, [F7xy.poly("x*y")]))


def test_parse_and_format_roundtrip(F7xy):
    p = F7xy.poly("3*x^2*y + x - 5")
    assert format_poly(p) == "3*x^2*y + x + 2"
    assert parse_poly(format_poly(p), F7xy) == p


def test_format_rational_signs():
    amb = Ambient(QQ(), ("x",))
    p = amb.poly("x^2 - 2*x + 1") * amb.const(-1)
    assert format_poly(p) == "-x^2 + 2*x - 1"
    assert parse_poly(format_poly(p), amb) == p


def test_grevlex_vs_lex():
    # x^3 beats x^2*z under grevlex; x*y^2 beats y^5 under lex
    amb_g = Ambient(GF(7), ("x", "y", "z"), GREVLEX)
    p = amb_g.poly("x^2*z + x^3")
    assert format_poly(p) == "x^3 + x^2*z"
    amb_l = Ambient(GF(7), ("x", "y"), LEX)
    q = amb_l.poly("y^5 + x*y^2")
    assert format_poly(q) == "x*y^2 + y^5"


def test_normal_form_examples(F7xy, R_xy):
    assert R_xy.nf(F7xy.poly("x*y + x")) == F7xy.poly("x")
    assert R_xy.nf(F7xy.zero()).is_zero
    # divide x^2*y^2 by {x*y} by hand: quotient x*y, remainder 0
    assert R_xy.nf(F7xy.poly("x^2*y^2")).is_zero


def test_normal_form_rejects_foreign_poly(F7xy, R_xy):
    other = Ambient(GF(7), ("x", "y", "z"))
    with pytest.raises(Exception):
        R_xy.nf(other.poly("x"))


def test_groebner_single_monomial(F7xy):
    basis = groebner([F7xy.poly("x*y")])
    assert basis == (F7xy.poly("x*y"),)


def test_groebner_two_monomials():
    amb = Ambient(GF(7), ("x", "y", "z"))
    basis = groebner([amb.poly("x*z"), amb.poly("y*z")])
    assert set(basis) == {amb.poly("x*z"), amb.poly("y*z")}


def test_groebner_lex_pair():
    amb = Ambient(GF(7), ("x", "y"), LEX)
    basis = groebner([amb.poly("x - y"), amb.poly("y^2")])
    assert set(basis) == {amb.poly("x - y"), amb.poly("y^2")}


def test_groebner_nontrivial_spair():
    # lead terms overlap: {x^2 - y, x*y - x} forces new elements
    amb = Ambient(GF(7), ("x", "y"))
    basis = groebner([amb.poly("x^2 - y"), amb.poly("x*y - x")])
    table = pure.Divisors(amb.field, [(b.terms,) for b in basis])
    for g in [amb.poly("x^2 - y"), amb.poly("x*y - x")]:
        assert amb.ops.divmod_basis((g.terms,), table) == ((),)
    # y^2 - y = y*(x^2 - y)*(-1) + (x + 1)*(x*y - x) ... reduces to 0
    assert amb.ops.divmod_basis((amb.poly("y^2 - y").terms,), table) == ((),)


def _random_poly(rng, amb, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mon = tuple(rng.randint(0, max_deg) for _ in amb.vars)
        terms[mon] = rng.randrange(0, amb.field.char or 7)
    p = amb.zero()
    for mon, c in terms.items():
        p = p + amb.monomial(mon, c)
    return p


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_order_properties(seed):
    # total, multiplicative, well-founded on random triples
    rng = random.Random(seed)
    for order in (GREVLEX, LEX):
        mons = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3)]
        a, b, c = (order.key(m) for m in mons)
        assert (a < b) or (b < a) or mons[0] == mons[1]
        ab = order.key(tuple(x + y for x, y in zip(mons[0], mons[2])))
        bb = order.key(tuple(x + y for x, y in zip(mons[1], mons[2])))
        if a < b:
            assert ab < bb
        one = order.key((0, 0, 0))
        for m, k in zip(mons, (a, b, c)):
            if sum(m):
                assert k > one
        # the kernel merges and sorts by heap_key: it must order exactly
        # in reverse
        ha, hb = order.heap_key(mons[0]), order.heap_key(mons[1])
        assert (ha < hb) == (a > b) and (ha == hb) == (a == b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_normal_form_idempotent_and_multiplicative(seed):
    rng = random.Random(seed)
    amb = Ambient(GF(7), ("x", "y"))
    ring = QuotientRing(amb, Ideal(amb, [amb.poly("x*y")]))
    for _ in range(5):
        f = _random_poly(rng, amb)
        g = _random_poly(rng, amb)
        assert ring.nf(ring.nf(f)) == ring.nf(f)
        assert ring.nf(f + g) == ring.nf(ring.nf(f) + ring.nf(g))
        assert ring.nf(f * g) == ring.nf(ring.nf(f) * ring.nf(g))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_groebner_permutation_and_scaling_invariance(seed):
    rng = random.Random(seed)
    amb = Ambient(GF(7), ("x", "y"))
    gens = [g for g in (_random_poly(rng, amb) for _ in range(3)) if not g.is_zero]
    if not gens:
        return
    reference = groebner(gens)
    shuffled = gens[:]
    rng.shuffle(shuffled)
    scaled = [g.scale(rng.randint(1, 6)) for g in shuffled]
    assert groebner(scaled) == reference
    printed_a = [format_poly(g) for g in reference]
    printed_b = [format_poly(g) for g in groebner(scaled)]
    assert printed_a == printed_b


def test_rational_groebner():
    amb = Ambient(QQ(), ("x", "y"))
    basis = groebner([amb.poly("2*x^2 - y"), amb.poly("3*x*y - x")])
    assert all(g.lead_coeff == 1 for g in basis)
    ring = QuotientRing(amb, Ideal(amb, basis))
    # x*(3*x*y - x) - 3*x^2*y + x^2 == 0 sanity
    assert ring.nf(amb.poly("x") * amb.poly("3*x*y - x") - amb.poly("3*x^2*y - x^2")).is_zero


def test_standard_monomials_finite_and_infinite():
    finite = QuotientRing.make(GF(7), ("x", "y"), ["x^2", "y^3"])
    mons = finite.standard_monomials()
    assert len(mons) == 6
    infinite = QuotientRing.make(GF(7), ("x", "y"), ["x*y"])
    assert infinite.standard_monomials() is None


def test_ring_json_roundtrip(R_xy):
    desc = R_xy.to_json()
    again = QuotientRing.from_json(desc)
    assert again == R_xy
    assert desc["ideal"] == ["x*y"]


# -- heap division against the merge reducer ---------------------------------


def _random_terms(rng, field, order, max_terms=6, max_exp=3):
    mons = set()
    size = rng.randint(0, max_terms)
    while len(mons) < size:
        mons.add(tuple(rng.randint(0, max_exp) for _ in range(3)))
    if field.char:
        coeffs = [rng.randrange(1, field.char) for _ in mons]
    else:
        coeffs = [Fraction(rng.choice((1, 2, 3, -1, -2, -5)), rng.randint(1, 4)) for _ in mons]
    return tuple(sorted(zip(mons, coeffs), key=lambda t: order.key(t[0]), reverse=True))


def _check_division(f, basis, field, order):
    """Heap division against the merge reducer, whose quotients show
    that f = sum(q * g) + remainder."""
    rem, quotients = merge_divmod_basis(f, basis, field, order.heap_key, want_quotients=True)
    table = pure.Divisors(field, [(g,) for g in basis])
    assert pure.divmod_basis((f,), table, field, order.heap_key) == (rem,)
    recombined = rem
    for q, g in zip(quotients, basis):
        recombined = pure.add(
            recombined, pure.mul(q, g, field, order.heap_key), field, order.heap_key
        )
    assert recombined == f
    leads = [g[0][0] for g in basis]
    assert not any(pure.mon_divides(gm, m) for m, _ in rem for gm in leads)


@pytest.mark.parametrize("field", [GF(7), QQ()], ids=["F7", "Q"])
@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_heap_division_matches_merge_reducer(field, order):
    rng = random.Random(7001 + 10 * field.char + ("grevlex", "lex").index(order.name))
    for _ in range(300):
        f = _random_terms(rng, field, order, max_terms=10, max_exp=5)
        basis = [
            g
            for g in (_random_terms(rng, field, order) for _ in range(rng.randint(0, 4)))
            if g
        ]  # coefficients are random, so most elements are not monic
        _check_division(f, basis, field, order)


@pytest.mark.parametrize("field", [GF(7), QQ()], ids=["F7", "Q"])
@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_heap_division_edge_cases(field, order):
    c = field.from_fraction(Fraction(3))
    x2, xy, y, one = (2, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 0)
    g = ((y, c), (one, field.one))  # 3*y + 1: not monic
    _check_division((), [g], field, order)
    _check_division(((x2, c), (y, c)), [], field, order)
    _check_division((), [], field, order)
    # the lead x^2 is irreducible by 3*y + 1; the first reducible term is x*y
    f = ((x2, field.one), (xy, c), (y, field.one))
    assert f[0][0] == x2
    _check_division(f, [g], field, order)
    (rem,) = pure.divmod_basis((f,), pure.Divisors(field, [(g,)]), field, order.heap_key)
    _, quotients = merge_divmod_basis(f, [g], field, order.heap_key, want_quotients=True)
    assert rem[0] == (x2, field.one) and quotients[0]


@pytest.mark.parametrize("gens", [("x*y", "y^2 - x"), ("y^2 - x", "x^3")], ids=["xy", "x3"])
@pytest.mark.parametrize("field", [GF(7), QQ()], ids=["F7", "Q"])
def test_normal_forms_by_a_warm_table(field, gens):
    """One ring divides 200 random polynomials in a row, so its divisor
    table and first-divisor memo stay warm across calls: each normal
    form is the merge reducer's remainder and that of a fresh table.
    Some polynomials have no divisible term and pass through whole.
    Modulo (y^2 - x, x^3), whose standard monomial x^2*y sits above the
    lead y^2, some have an irreducible leading term and later terms
    that reduce."""
    amb = Ambient(field, ("x", "y"))
    ring = QuotientRing(amb, Ideal(amb, [amb.poly(g) for g in gens]))
    basis = [b.terms for b in ring.ideal.basis]
    heap_key = amb.order.heap_key
    standard = set(ring.standard_monomials())
    mons = [(i, j) for i in range(5) for j in range(5 - i)]
    rng = random.Random(7501 + field.char + 10 * ("x^3" in gens))
    kinds = {"pass": 0, "late": 0}
    for k in range(200):
        pool = sorted(standard) if k % 4 == 0 else mons
        f = amb.zero()
        for mon in rng.sample(pool, rng.randint(1, min(5, len(pool)))):
            f = f + amb.monomial(mon, rng.choice((1, 2, 3, -1, -5)))
        if not f.terms:
            continue
        got = ring.nf(f)
        rem, _ = merge_divmod_basis(f.terms, basis, field, heap_key)
        assert got.terms == rem
        fresh = pure.Divisors(field, [(g,) for g in basis])
        assert pure.divmod_basis((f.terms,), fresh, field, heap_key) == (rem,)
        divisible = [m not in standard for m, _ in f.terms]
        kinds["pass"] += not any(divisible)
        kinds["late"] += not divisible[0] and any(divisible)
    assert kinds["pass"] >= 40
    assert kinds["late"] > 0 if "x^3" in gens else kinds["late"] == 0
    assert ring._gb_terms.firsts  # the memo carried over between calls


@pytest.mark.parametrize("field", [GF(7), QQ()], ids=["F7", "Q"])
@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_mul_matches_dict_product(field, order):
    rng = random.Random(7301 + 10 * field.char + ("grevlex", "lex").index(order.name))
    const = ((0, 0, 0), field.from_fraction(Fraction(-3, 2)))
    for _ in range(300):
        a = _random_terms(rng, field, order)
        b = _random_terms(rng, field, order, max_terms=rng.choice((1, 1, 4)))
        for ta, tb in ((a, b), (b, a), (a, (const,)), ((const,), a)):
            want = dict_mul(ta, tb, field, order.key)
            assert pure.mul(ta, tb, field, order.heap_key) == want


# -- Gröbner bases against sympy and pinned pair counts ----------------------

_DEG2 = [m for m in itertools.product(range(3), repeat=3) if sum(m) <= 2]


def _monic_key(terms, char):
    return frozenset((m, c % char if char else Fraction(c)) for m, c in terms)


@pytest.mark.parametrize("field", [GF(7), GF(101), QQ()], ids=["F7", "F101", "Q"])
@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_groebner_matches_sympy(field, order):
    sympy = pytest.importorskip("sympy")
    gens_sym = sympy.symbols("x y z")
    opts = {"modulus": field.char} if field.char else {"domain": sympy.QQ}
    amb = Ambient(field, ("x", "y", "z"), order)
    rng = random.Random(9100 + field.char + ("grevlex", "lex").index(order.name))
    for case in range(30 if field.char else 36):
        big = case >= 30  # over Q: 20-bit numerators over denominators up to 60

        def coeff():
            if big:
                return Fraction(rng.choice((1, -1)) * rng.randrange(2**19, 2**20), rng.randint(2, 60))
            return rng.choice((1, 2, 3, -1, -2, -3))

        raw = []
        for _ in range(rng.randint(2, 3 if big else 4)):  # 4 big ones mostly give (1)
            mons = rng.sample(_DEG2, rng.randint(2, 5))
            raw.append({m: coeff() for m in mons})
        gens = [amb.zero() for _ in raw]
        for k, terms in enumerate(raw):
            for m, c in terms.items():
                gens[k] = gens[k] + amb.monomial(m, c)
        polys = [
            sympy.Poly.from_dict(
                {m: sympy.Rational(c.numerator, c.denominator) for m, c in terms.items()},
                *gens_sym,
                **opts,
            )
            for terms in raw
        ]
        want = sympy.groebner(polys, *gens_sym, order=order.name, **opts)
        theirs = set()
        for g in want.polys:
            g = g.exquo_ground(g.LC(order=order.name))  # Poly.monic would use lex
            theirs.add(
                frozenset(
                    (m, int(c) % field.char if field.char else Fraction(int(c.p), int(c.q)))
                    for m, c in g.terms()
                )
            )
        basis = groebner(gens)
        assert all(b.lead_coeff == field.one for b in basis)
        assert {_monic_key(b.terms, field.char) for b in basis} == theirs


PAIR_COUNT_IDEALS = [
    ("cyclic-3", ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"], 5, 7),
    ("katsura-3", ["x + 2*y + 2*z - 1", "x^2 + 2*y^2 + 2*z^2 - x", "2*x*y + 2*y*z - y"], 7, 10),
    ("twisted", ["x^2*y - z^2 + x", "y^2*z - x*y + 1", "z^2*x - y^2 + z"], 13, 20),
    # over Q the run clears these denominators and makes them again on return
    (
        "twisted-fractions",
        ["3*x^2*y - 5/11*z^2 + 11*x", "2/3*y^2*z - 13*x*y + 1", "17*z^2*x - 4/9*y^2 + z"],
        13,
        20,
    ),
]


@pytest.mark.parametrize(
    "field,gens,reductions,divmods",
    [
        pytest.param(field, gens, reductions, divmods, id=name + ("-Q" if field == QQ() else ""))
        for name, gens, reductions, divmods in PAIR_COUNT_IDEALS
        for field in (GF(7), QQ())
    ],
)
def test_groebner_pair_reductions_pinned(monkeypatch, field, gens, reductions, divmods):
    """S-pair reductions are deterministic: a count, not a timing.

    Counted as ``modgb.vec_divmod`` calls before the final
    interreduction, and in total.  The chain criterion and sugar
    selection of the module engine give 5, 7 and 13; the ring engine
    this replaced also applied the product criterion and took 2, 4 and
    13.  Without the Gebauer–Möller update, every pair formed and
    reduced, these ideals take 10, 15 and 28.  Over Q the run is
    fraction-free, over ZZ, and takes the very steps of the run over
    F_7, which holds no Fraction either; its result is monic over Q.
    """
    amb = Ambient(field, ("x", "y", "z"))
    calls = [0]
    at_final_reduction = []
    vec_divmod = modgb.vec_divmod
    reduce_basis = modgb._reduce_module_basis

    def counting_divmod(*args, **kwargs):
        calls[0] += 1
        return vec_divmod(*args, **kwargs)

    def recording_reduce(*args):
        at_final_reduction.append(calls[0])
        return reduce_basis(*args)

    monkeypatch.setattr(modgb, "vec_divmod", counting_divmod)
    monkeypatch.setattr(modgb, "_reduce_module_basis", recording_reduce)
    basis = groebner([amb.poly(g) for g in gens])
    assert at_final_reduction == [reductions]
    assert calls[0] == divmods
    assert all(b.lead_coeff == field.one for b in basis)
    if field == QQ():
        assert all(type(c) is Fraction for b in basis for _, c in b.terms)


def test_groebner_deadline_reports_progress():
    # leads x^2, x*y, y^2: the pairs (0, 1) and (1, 2) are queued, and the
    # chain criterion drops (0, 2), whose lcm x^2*y^2 the lead x*y divides
    amb = Ambient(GF(7), ("x", "y"))
    gens = [amb.poly("x^2 - y"), amb.poly("x*y - 1"), amb.poly("y^2 - x")]
    with one_call(deadline=time.monotonic() + 60):
        assert groebner(gens)
    with one_call(deadline=time.monotonic() - 1):
        with pytest.raises(DeadlineExceeded, match=r"^module groebner: 0 pairs done, 2 queued$"):
            groebner(gens)
