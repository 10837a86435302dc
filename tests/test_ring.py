import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assert_normal, eval_by_monomial, merge
from orbigw import ring
from orbigw.cyclotomic import Cyclotomic
from orbigw.genus0 import GenusZeroData, ModelConfig
from orbigw.hae import verify_hae
from orbigw.pmatrix import POLICIES, entry_to_json
from orbigw.report import canonical_json
from orbigw.ring import EXPONENT_BOUND, FIELD_BITS, RingContext, RingElement, certify_rules, decode, encode, fit_laurent_in_L
from orbigw.series import Series


def random_element(ctx: RingContext, rng, max_terms=4, max_deg=2) -> RingElement:
    gens = ctx.a_gens() + [("C", ctx.c_index(i)) for i in range(1, ctx.n // 2 + 1)]
    out = RingElement.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = RingElement.L_power(rng.randint(-2, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for g in rng.sample(gens, k=min(len(gens), rng.randint(0, 2))):
            term = term * RingElement.generator(g) ** rng.randint(1, max_deg)
        out = out + term
    return out


def test_generator_sets():
    assert RingContext(3).a_gens() == [("A", 1, 0)]
    assert RingContext(4).a_gens() == [("A", 1, 0)]
    assert RingContext(5).a_gens() == [("A", 1, 0), ("A", 1, 1), ("A", 1, 2), ("A", 2, 0)]
    assert RingContext(7).a_gens() == [
        ("A", 1, 0), ("A", 1, 1), ("A", 1, 2), ("A", 1, 3), ("A", 1, 4),
        ("A", 2, 0), ("A", 2, 1), ("A", 2, 2), ("A", 2, 3),
        ("A", 3, 0),
    ]


def test_symmetry_and_canonical_indices():
    ctx = RingContext(5)
    assert ctx.a_rep(4) == (1, -1)
    assert ctx.a_rep(0) == (0, 0) and ctx.a_rep(5) == (0, 0)
    assert RingContext(4).a_rep(2) == (0, 0)  # middle index vanishes for even n
    assert ctx.c_index(4) == 2 and ctx.c_index(5) == 1 and ctx.c_index(3) == 3


def test_A_telescoping_sum_is_zero():
    for n in (3, 4, 5, 6, 7):
        ctx = RingContext(n)
        total = RingElement.zero()
        for i in range(n + 1):
            total = total + ctx.A(i)
        assert total.is_zero()


def test_derive_on_L():
    ctx = RingContext(3)
    got = ctx.derive(RingElement.L_power(1))
    want = RingElement({(1, ()): Fraction(1), (4, ()): Fraction(-1, 27)})
    assert got == want  # D L = L + (-1)^n L^{n+1}/n^n with n = 3


@pytest.mark.parametrize("n", [4, 5, 7])
def test_derive_closure_stays_admitted(n):
    ctx = RingContext(n)
    admitted = set(ctx.a_gens())
    e = RingElement.scalar(Fraction(1))
    for g in admitted:
        e = e + RingElement.generator(g)
    for _ in range(5):
        e = ctx.derive(e)
        used = {g for g in e.generators_used() if g[0] == "A"}
        assert used <= admitted


def test_partial_derivative_examples():
    ctx = RingContext(5)
    a2 = RingElement.generator(("A", 2, 0))
    assert a2 * a2 != RingElement.zero()
    assert (a2 * a2).partial(("A", 2, 0)) == a2 * 2
    assert RingElement.L_power(7).partial(("A", 2, 0)).is_zero()
    # the rewritten top derivative depends on the distinguished generator as 2 L A
    top = ctx.normal_form(2, 1)
    assert top.partial(("A", 2, 0)) == RingElement.generator(("A", 2, 0)).mul_L(1) * 2


def test_eval_symmetry_example(ctx5, data5):
    ev = ctx5.evaluator(data5)
    expr = ctx5.A(1) + ctx5.A(4)
    assert expr.is_zero()  # canonicalized already in the ring
    assert (data5.A[1] + data5.A[4]).is_zero()
    val = ev.eval(ctx5.A(2))
    assert (val - data5.A[2]).is_zero()


def _exact(s: Series) -> tuple:
    return s.nums, s.den, s.prec


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_eval_matches_per_monomial_oracle_on_the_lift(n, policy, pmatrix_at):
    # one evaluator across every graded entry, each compared exactly with the oracle
    pm = pmatrix_at(n, policy)
    ev = pm.ctx.evaluator(pm.data)
    for key, e in pm.graded.items():
        assert _exact(ev.eval(e)) == _exact(eval_by_monomial(pm.data, e)), key


def test_eval_matches_per_monomial_oracle_on_the_anomaly_equation():
    r = verify_hae(3, 3)
    data = GenusZeroData.build(ModelConfig(3))
    ev = RingContext(3).evaluator(data)
    for side in (r.lhs, r.rhs):
        assert side.monomial_count() > 10
        assert _exact(ev.eval(side)) == _exact(eval_by_monomial(data, side))


def test_eval_negative_L_and_repeated_generators(ctx5, data5, rng):
    L, A, C = RingElement.L_power, RingElement.generator, lambda i: RingElement.generator(("C", i))
    elements = [
        L(-3, Fraction(2, 7)) * A(("A", 1, 2)) ** 3 * C(2) ** 2,
        L(-1) * C(1) ** 4 - L(-2, Fraction(5, 3)) * A(("A", 2, 0)) ** 2 * A(("A", 1, 1)),
        L(-5) * A(("A", 1, 0)) ** 2 * C(1) * C(2) ** 3 + L(4, Fraction(-1, 9)),
        RingElement.zero(),
    ] + [random_element(ctx5, rng, max_terms=5, max_deg=4) for _ in range(20)]
    assert any(e.uses_negative_L() for e in elements)
    reused = ctx5.evaluator(data5)
    for e in elements + elements:
        got = reused.eval(e)
        assert _exact(got) == _exact(eval_by_monomial(data5, e)), e
        # an evaluator that has seen every earlier element agrees with a fresh one
        assert _exact(got) == _exact(ctx5.evaluator(data5).eval(e)), e


def test_evaluator_raises_each_generator_power_once(ctx5, data5, monkeypatch):
    # every monomial L^k C_2^3 ends in the power C_2^3, which the evaluator forms once
    calls = []
    power = Series.__pow__
    monkeypatch.setattr(Series, "__pow__", lambda s, k: calls.append((s is data5.C[2], k)) or power(s, k))
    ev = ctx5.evaluator(data5)
    cube = RingElement.generator(("C", 2)) ** 3
    for k in range(-3, 4):
        assert ev.eval(cube.mul_L(k)) == data5.L_pow(k) * data5.C[2] ** 3
    assert calls.count((True, 3)) == 1 + 7  # the evaluator's one, and one per comparison


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rule_certification(n, request):
    ctx = request.getfixturevalue(f"ctx{n}")
    data = request.getfixturevalue(f"data{n}")
    rep = certify_rules(ctx, data)
    assert rep.ok, rep.failures()[:3]


def test_eval_is_ring_homomorphism(ctx3, data3, rng):
    ev = ctx3.evaluator(data3)
    for _ in range(100):
        a = random_element(ctx3, rng)
        b = random_element(ctx3, rng)
        prod = (ev.eval(a * b) - ev.eval(a) * ev.eval(b)).zero_order()
        tot = (ev.eval(a + b) - (ev.eval(a) + ev.eval(b))).zero_order()
        assert prod is None and tot is None


def test_derive_commutes_with_eval_randomized(ctx3, data3, rng):
    ev = ctx3.evaluator(data3)
    for _ in range(100):
        a = random_element(ctx3, rng, max_terms=3)
        d = (ev.eval(ctx3.derive(a)) - ev.eval(a).D()).zero_order()
        assert d is None


def test_derive_leibniz_formally(ctx5, rng):
    for _ in range(50):
        a = random_element(ctx5, rng, max_terms=2)
        b = random_element(ctx5, rng, max_terms=2)
        lhs = ctx5.derive(a * b)
        rhs = ctx5.derive(a) * b + a * ctx5.derive(b)
        assert (lhs - rhs).is_zero()


def test_fit_laurent_basic(data3):
    L = data3.L
    fit, checked = fit_laurent_in_L(L.truncate(24), L, max_degree=3)
    assert fit == {1: Fraction(1)}
    y = Series.one() + L**3 * Fraction(-1, 27)
    fit, _ = fit_laurent_in_L(y.truncate(24), L, max_degree=6)
    assert fit == {0: Fraction(1), 3: Fraction(-1, 27)}
    # a pole is refused: the fit is a polynomial in L
    with pytest.raises(ValueError, match=r"^pole order exceeds 0 at L\^-1$"):
        fit_laurent_in_L((Series.one() / L).truncate(20), L, max_degree=4)


def test_fit_laurent_rejects_non_members(data3):
    # x itself is not a Laurent polynomial of bounded degree in L
    x = Series({1: Fraction(1)}, data3.L.prec)
    with pytest.raises(ValueError):
        fit_laurent_in_L(x, data3.L, max_degree=4)


def test_ring_json_round_trip():
    # a column entry of the lift may carry a cyclotomic coefficient; its
    # canonical JSON text records every monomial and coefficient exactly
    z = Cyclotomic.zeta(5)
    entry = {(0, ((("A", 1, 1), 1),)): z, (-2, ()): Fraction(3, 7)}
    text = canonical_json(entry_to_json(entry))
    assert text == '[[-2,[],"3/7"],[0,[[["A",1,1],1]],["0","1","0","0"]]]'
    terms = {
        (le, tuple((tuple(g), ex) for g, ex in gens)): (
            Cyclotomic(5, [Fraction(c) for c in coeff]) if isinstance(coeff, list) else Fraction(coeff)
        )
        for le, gens, coeff in json.loads(text)
    }
    assert terms == entry


def test_ring_json_matches_entry_json():
    # a rational element serializes as its column entry does
    e = RingElement.generator(("A", 1, 1), Fraction(-5, 6)) + RingElement.L_power(-2, Fraction(3, 7))
    entry = {m: Fraction(c, e.den) for m, c in e.terms()}
    assert e.to_json() == entry_to_json(entry)
    assert canonical_json(e.to_json()) == '[[-2,[],"3/7"],[0,[[["A",1,1],1]],"-5/6"]]'


def test_non_rational_operands_rejected():
    z = Cyclotomic.zeta(5)
    with pytest.raises(TypeError):
        RingElement.scalar(z)
    with pytest.raises(TypeError):
        RingElement({(0, ()): Cyclotomic.one(5)})  # rational in value, but not a rational type
    with pytest.raises(TypeError):
        RingElement.scalar(Series.one())
    with pytest.raises(TypeError):
        RingElement.L_power(1, 0.5)
    a = RingElement.generator(("A", 1, 0))
    for other in (z, Series.one()):
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            assert getattr(a, op)(other) is NotImplemented, (other, op)
        with pytest.raises(TypeError):
            a * other
        with pytest.raises(TypeError):
            other - a
        with pytest.raises(TypeError):
            a + other


# -- properties of the integer form on random rational elements --------------------------

_GENS = [("A", 1, 0), ("A", 1, 1), ("A", 2, 0), ("C", 1), ("C", 2)]
_monomials = st.tuples(
    st.integers(-4, 4),
    st.lists(st.tuples(st.sampled_from(_GENS), st.integers(1, 3)), max_size=3, unique_by=lambda t: t[0]).map(
        lambda gs: tuple(sorted(gs))
    ),
)
_rationals = st.fractions(max_denominator=10**12).filter(bool) | st.integers(-(10**30), 10**30)
_elements = st.dictionaries(_monomials, _rationals, max_size=5).map(RingElement)


def _fraction_terms(e: RingElement) -> dict:
    return {m: Fraction(c, e.den) for m, c in e.terms()}


def _reference_product(a: RingElement, b: RingElement) -> dict:
    """The product with one Fraction per term and tuple monomials (``merge``), written independently of the ring."""
    out: dict = {}
    for m1, c1 in _fraction_terms(a).items():
        for m2, c2 in _fraction_terms(b).items():
            m = merge(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


_property = settings(max_examples=50, deadline=None, derandomize=True)


@_property
@given(_elements, _elements, _elements)
def test_ring_axioms(a, b, c):
    one, zero = RingElement.scalar(1), RingElement.zero()
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a and a + b == b + a
    assert a - a == zero and (a - a).den == 1
    assert a * 1 == a == a * one == one * a and a + zero == a
    assert -(-a) == a and a - b == -(b - a)
    for e in (a * b, a + b, a - b, a * c - b, a * Fraction(-3, 8), (a * b).partial(("A", 1, 0))):
        assert_normal(e)


@_property
@given(_elements, _elements, _rationals)
def test_product_matches_fraction_reference(a, b, q):
    assert _fraction_terms(a * b) == _reference_product(a, b)
    assert _fraction_terms(a * q) == {m: c * q for m, c in _fraction_terms(a).items() if q}
    assert _fraction_terms(a + b) == {
        m: c for m in {**dict(a.terms()), **dict(b.terms())} if (c := _fraction_terms(a).get(m, 0) + _fraction_terms(b).get(m, 0))
    }
    # construction from Fraction terms is exact and lands in normal form
    assert RingElement(_fraction_terms(a)) == a
    assert_normal(a)


def _reference_sum(pairs) -> dict:
    out: dict = {}
    for x, y in pairs:
        for m, c in _reference_product(x, y).items():
            out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


@_property
@given(st.lists(st.tuples(_elements, _elements), max_size=4), _rationals)
def test_sum_of_products_matches_separate_products(pairs, q):
    # scalar operands on either side, then the pairs with one side negated
    c = RingElement.scalar(q)
    pairs = pairs + [(c, y) for _, y in pairs[:1]] + [(x, c) for x, _ in pairs[-1:]]
    got = RingElement.sum_of_products(pairs)
    assert _fraction_terms(got) == _reference_sum(pairs)
    separate = RingElement.zero()
    for x, y in pairs:
        separate = separate + x * y
    assert got == separate
    assert_normal(got)
    for signed in ([(-x, y) for x, y in pairs], [(x, -y) for x, y in pairs]):
        cancelled = RingElement.sum_of_products(pairs + signed)
        assert cancelled == RingElement.zero() and cancelled.den == 1
        assert RingElement.sum_of_products(signed) == -got


def test_sum_of_products_examples():
    a, L = RingElement.generator(("A", 1, 0)), RingElement.L_power(1)
    assert RingElement.sum_of_products([]) == RingElement.zero()
    assert RingElement.sum_of_products([]).den == 1
    # unequal denominators meet over their lcm and reduce once
    pairs = [(a * Fraction(1, 3), L * Fraction(-1, 5)), (L * L * Fraction(1, 4), RingElement.scalar(6))]
    got = RingElement.sum_of_products(pairs)
    assert got == (a * L) * Fraction(-1, 15) + (L * L) * Fraction(3, 2)
    assert got.den == 30
    assert_normal(got)
    # the constant 1 gives the other operand; a constant 1/7 is no unit
    assert RingElement.sum_of_products([(a, RingElement.scalar(1))]) == a
    assert RingElement.sum_of_products([(a, RingElement.scalar(Fraction(1, 7)))]) == a * Fraction(1, 7)
    assert RingElement.sum_of_products([(RingElement.scalar(-2), a), (a, RingElement.scalar(2))]).is_zero()


def _context_elements(n: int):
    ctx = RingContext(n)
    gens = ctx.a_gens() + [ctx.c_gen(i) for i in range(1, n // 2 + 1)]
    monos = st.tuples(
        st.integers(-3, 3),
        st.lists(st.tuples(st.sampled_from(gens), st.integers(1, 2)), max_size=2, unique_by=lambda t: t[0]).map(
            lambda gs: tuple(sorted(gs))
        ),
    )
    return st.dictionaries(monos, _rationals, max_size=3).map(RingElement)


@pytest.mark.parametrize("n", [3, 4])
def test_leibniz_rule(n):
    ctx = RingContext(n)

    @_property
    @given(_context_elements(n), _context_elements(n))
    def check(a, b):
        d_ab = ctx.derive(a * b)
        assert d_ab == ctx.derive(a) * b + a * ctx.derive(b)
        assert_normal(d_ab)

    check()


# -- the packed monomial keys -------------------------------------------------------


def _all_generators() -> list:
    """The generators of n = 3..8: the admitted ones, the factor symbols, and one free derivative beyond each bound."""
    gens = []
    for n in range(3, 9):
        ctx = RingContext(n)
        gens += ctx.a_gens() + [ctx.c_gen(i) for i in range(1, n + 1)]
        gens += [("A", i, top + 1) for i, top in ctx.admitted.items()]
    return sorted(set(gens))


_tuple_monomials = st.tuples(
    st.integers(-200, 200),
    st.lists(st.tuples(st.sampled_from(_all_generators()), st.integers(1, 40)), max_size=6, unique_by=lambda t: t[0]).map(
        lambda gs: tuple(sorted(gs))
    ),
)


@_property
@given(_tuple_monomials)
def test_encode_decode_round_trip(m):
    key = encode(m)
    assert decode(key) == m
    assert (key == 0) == (m == (0, ()))
    assert RingElement({m: 1}).nums == {key: 1} and list(RingElement({m: 1}).terms()) == [(m, 1)]


@_property
@given(_tuple_monomials, _tuple_monomials)
def test_packed_product_matches_merged_tuples(m1, m2):
    assert decode(encode(m1) + encode(m2)) == merge(m1, m2)
    got = RingElement({m1: Fraction(2, 3)}) * RingElement({m2: -3})
    assert list(got.terms()) == [(merge(m1, m2), -2)] and got.den == 1
    # mul_L adds to the L field alone and partial lowers one generator's field
    assert list(RingElement({m1: 1}).mul_L(-7).terms()) == [((m1[0] - 7, m1[1]), 1)]
    for g, e in m1[1]:
        lowered = (m1[0], tuple((h, f - (h == g)) for h, f in m1[1] if (h, f) != (g, 1)))
        assert list(RingElement({m1: 1}).partial(g).terms()) == [(lowered, e)]


def test_out_of_range_exponents_raise():
    a, top = ("A", 1, 0), EXPONENT_BOUND - 1
    for bad in ((EXPONENT_BOUND, ()), (-EXPONENT_BOUND, ()), (0, ((a, EXPONENT_BOUND),)), (0, ((a, 0),)), (0, ((a, -1),))):
        with pytest.raises(ValueError, match="outside"):
            encode(bad)
        with pytest.raises(ValueError, match="outside"):
            RingElement({bad: 1})
    # a product of two monomials in range that leaves the bound stays inside its fields, and decoding refuses it
    for x in (RingElement.L_power(top), RingElement.L_power(-top), RingElement({(0, ((a, top),)): 1})):
        square = x * x
        assert square.monomial_count() == 1
        for read in (square.to_json, square.generators_used, lambda: RingContext(3).derive(square)):
            with pytest.raises(ValueError, match="outside"):
                read()
    # a key with a negative generator field, or a field beyond the registered slots, is no monomial
    with pytest.raises(ValueError, match="outside"):
        decode(-encode((0, ((a, 1),))))
    with pytest.raises(ValueError, match="outside"):
        decode(1 << (FIELD_BITS * (len(ring._GENS) + 1)))
