"""Finite-dimensional algebras: the quantum-plane family and friends."""

import itertools
import math
import time

import pytest

from dfactor.fdalg import (
    AlgebraMap,
    CentralElement,
    FDAlgebra,
    algebra_from_json,
    check_twist_compatibility,
    is_left_regular,
    monomial_algebra,
    quotient_by_central,
)
from dfactor.fields import GF

Q = 2  # nonzero scalar in F_7 used by the fixtures
F7 = GF(7)


@pytest.fixture
def B():
    return monomial_algebra(("x", "y"), ["xx", "yy", "xyx", "yxy"], F7)


@pytest.fixture
def w(B):
    return CentralElement(B, B.parse(f"x*y - {Q}*y*x"))


def test_monomial_algebra_basis(B):
    assert B.dim == 5
    assert set(B.labels) == {"1", "x", "y", "x*y", "y*x"}
    # prefix- and suffix-closed
    for word in B.words:
        for k in range(len(word)):
            assert word[:k] in B.words
            assert word[k:] in B.words


def test_monomial_algebra_small_cases():
    kx = monomial_algebra(("x",), ["xx"], F7)
    assert kx.dim == 2
    with pytest.raises(ValueError):
        monomial_algebra(("x",), [], F7, degree_cap=5)  # free algebra never closes


def test_multiplication_annihilates(B):
    x, y = B.parse("x"), B.parse("y")
    assert B.mul(x, x) == B.zero()
    xy = B.mul(x, y)
    assert xy == B.parse("x*y")
    assert B.mul(xy, x) == B.zero()  # xyx is a relation


def test_exponents_parse_in_logarithmic_time():
    # every word of length 6 is a relation: x^6 = 0 and (x + 2*y)^5 != 0
    words = ["".join(w) for w in itertools.product("xy", repeat=6)]
    A = monomial_algebra(("x", "y"), words, F7)
    f = "(x + 2*y)"
    assert A.parse(f"{f}^5") == A.parse("*".join([f] * 5)) != A.zero()
    assert A.parse("x^5") == A.parse("x*x*x*x*x") != A.zero()
    assert A.parse(f"{f}^0") == A.one()
    n = 10**9
    start = time.perf_counter()
    assert A.parse(f"x^{n}") == A.zero()
    big = A.parse(f"(1 + x)^{n}")
    assert time.perf_counter() - start < 0.5
    binomial = " + ".join(f"{math.comb(n, k) % 7}*x^{k}" for k in range(6))
    assert big == A.parse(binomial)


def test_central_element_is_plainly_central(B, w):
    ok, witness = w.check_central(None)
    assert ok and witness is None


def test_quotient_by_central_quantum_plane(B, w):
    A, proj = quotient_by_central(B, w)
    assert A.dim == 4
    assert set(A.labels) == {"1", "x", "y", "x*y"}
    # yx = q^{-1} xy in the quotient
    qinv = pow(Q, 5, 7)  # inverse of 2 mod 7
    yx = A.mul(A.parse("y"), A.parse("x"))
    assert yx == A.scale(A.parse("x*y"), qinv)
    # projection is an algebra map on all pairs (validated on build),
    # kills w, and is surjective on basis images
    assert proj.apply(w.coords) == A.zero()


def test_quotient_edges(B, w):
    # w = 0: quotient is B itself
    A, _ = quotient_by_central(B, CentralElement(B, B.zero()))
    assert A.dim == B.dim
    # k<x>/(x^2) mod (x) has dimension 1
    kx = monomial_algebra(("x",), ["xx"], F7)
    A2, _ = quotient_by_central(kx, CentralElement(kx, kx.parse("x")))
    assert A2.dim == 1


def test_twist_compatibility(B, w):
    qinv = pow(Q, 5, 7)
    nu = AlgebraMap.from_generator_images(
        B, {"x": f"-{qinv}*x", "y": f"-{Q}*y"}, automorphism=True
    )
    report = check_twist_compatibility(nu, w)
    assert report.twisted_central and report.fixes_w_multiples and report.ok

    ident = AlgebraMap.from_generator_images(B, {"x": "x", "y": "y"})
    report_id = check_twist_compatibility(ident, w)
    # w is plainly central here, and every w*r is 0 or w with nu(w) = w
    assert report_id.ok

    # swapping x and y at q = 1 breaks compatibility with a witness
    B1 = monomial_algebra(("x", "y"), ["xx", "yy", "xyx", "yxy"], F7)
    w1 = CentralElement(B1, B1.parse("x*y - y*x"))
    swap = AlgebraMap.from_generator_images(B1, {"x": "y", "y": "x"})
    report_swap = check_twist_compatibility(swap, w1)
    assert not report_swap.ok
    assert report_swap.witness is not None


def test_is_left_regular(B, w):
    assert not is_left_regular(w)  # x*w = 0 already
    assert is_left_regular(CentralElement(B, B.one()))
    kx = monomial_algebra(("x",), ["xx"], F7)
    assert not is_left_regular(CentralElement(kx, kx.parse("x")))


def test_algebra_map_validation(B):
    with pytest.raises(ValueError):
        # x -> y, y -> y is not multiplicative (x^2 = 0 but y*y = 0 ... unital fails first on invertibility)
        AlgebraMap.from_generator_images(B, {"x": "y", "y": "y"}, automorphism=True)


def test_algebra_json(B):
    desc = {
        "gens": ["x", "y"],
        "monomial_rels": ["xx", "yy", "xyx", "yxy"],
        "field": {"char": 7},
    }
    alg = algebra_from_json(desc)
    assert alg.dim == 5
    assert alg == B


def test_structure_constant_validation_catches_errors():
    # break associativity in a hand-rolled table
    f = F7
    labels = ["1", "t"]
    # t*t = 1 is fine (group algebra of Z/2); t*t = t breaks the unit law? build bad one
    good = [
        [(1, 0), (0, 1)],
        [(0, 1), (1, 0)],
    ]
    FDAlgebra(f, labels, good, 0)
    bad = [
        [(1, 0), (0, 1)],
        [(0, 1), (0, 1)],  # t*t = t, 1*t = t: associativity (t t) t = t^2 = t vs t (t t) = t^2 = t ... unit okay; this one is associative actually
    ]
    # t*t = t with unit 1 is associative (idempotent), so it validates
    FDAlgebra(f, labels, bad, 0)
    with pytest.raises(ValueError):
        FDAlgebra(
            f,
            labels,
            [
                [(1, 0), (0, 1)],
                [(1, 0), (0, 1)],  # t*1 = 1 breaks the unit law
            ],
            0,
        )
