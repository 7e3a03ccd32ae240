import inspect
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from kappacalc import algebra, hopf, series
from kappacalc.algebra import (AlgebraError, AlgElement, Context,
                               ContextMismatch, ParityError, TensorElement,
                               _act_mono, _comm_mono, _mul_mono,
                               _sum_products, act_on, anticommutator,
                               commutator, graded_commutator, lift_in_A,
                               substitute_series, tensor_commutator)
from kappacalc.scalars import GaussScalar, I, MINUS_I
from kappacalc.series import SeriesError, TruncSeries

from oracle_rewriting import mono_to_word, normalize, word_to_key

CTX = Context(2, 3, (1, 0))
CTX3 = Context(3, 2, (1, 0, 0))


def test_context_validation():
    with pytest.raises(AlgebraError):
        Context(1, 3, (1,))
    with pytest.raises(AlgebraError):
        Context(2, 0, (1, 0))
    with pytest.raises(AlgebraError):
        Context(2, 3, (1, 0, 0))
    with pytest.raises(AlgebraError):
        Context(2, 2, (0.1, 0))
    with pytest.raises(AlgebraError):
        Context(2, 2, ("1", 0))
    for dim, order in ((2.0, 2), (2, 2.5), (2, True), (True, 2), ("2", 2),
                       (Fraction(2), 2)):
        with pytest.raises(AlgebraError):
            Context(dim, order, (1, 0))
    assert Context(2, 2, (Fraction(1, 10), 0)).direction[0] == Fraction(1, 10)
    assert CTX.is_timelike_axis()
    assert not Context(2, 3, (1, 1)).is_timelike_axis()
    assert CTX.metric(0) == -1 and CTX.metric(1) == 1


def test_generator_index_range():
    for make in (AlgElement.x, AlgElement.d, AlgElement.dx):
        for mu in (-1, 2, 9):
            with pytest.raises(AlgebraError):
                make(CTX, mu)
    assert AlgElement.dx(CTX, 1).render() == "dx1"


def test_defining_relations():
    x0, x1 = AlgElement.x(CTX, 0), AlgElement.x(CTX, 1)
    d0, d1 = AlgElement.d(CTX, 0), AlgElement.d(CTX, 1)
    dx0, dx1 = AlgElement.dx(CTX, 0), AlgElement.dx(CTX, 1)
    one = AlgElement.one(CTX)
    assert commutator(d0, x0) == -one
    assert commutator(d1, x1) == one
    assert commutator(d0, x1).is_zero()
    assert commutator(x0, x1).is_zero()
    assert commutator(d0, d1).is_zero()
    assert anticommutator(dx0, dx1).is_zero()
    assert (dx0 * dx0).is_zero()
    assert commutator(dx0, x0).is_zero()
    assert commutator(dx0, d0).is_zero()
    # Koszul sign
    assert dx1 * dx0 == -(dx0 * dx1)


def _random_monomial(rng, dim, max_exp=2):
    xexp = tuple(rng.randint(0, max_exp) for _ in range(dim))
    dexp = tuple(rng.randint(0, max_exp) for _ in range(dim))
    mask = rng.randint(0, (1 << dim) - 1)
    return (xexp, mask, dexp)


def test_normal_ordering_against_rewriting_oracle():
    rng = random.Random(7)
    dim = 2
    for _ in range(120):
        m1 = _random_monomial(rng, dim)
        m2 = _random_monomial(rng, dim)
        got = dict(_mul_mono(dim, m1, m2))
        word = mono_to_word(m1, dim) + mono_to_word(m2, dim)
        want = {word_to_key(w, dim): c for w, c in normalize(word).items()}
        got = {k: Fraction(c) for k, c in got.items() if c}
        assert got == want, (m1, m2)


def test_normal_ordering_oracle_dim3():
    rng = random.Random(11)
    for _ in range(40):
        m1 = _random_monomial(rng, 3, max_exp=1)
        m2 = _random_monomial(rng, 3, max_exp=1)
        got = {k: Fraction(c) for k, c in _mul_mono(3, m1, m2) if c}
        word = mono_to_word(m1, 3) + mono_to_word(m2, 3)
        want = {word_to_key(w, 3): c for w, c in normalize(word).items()}
        assert got == want


def test_element_ops_orders():
    x0 = AlgElement.x(CTX, 0)
    s = TruncSeries([1, 2, 3, 4])
    e = x0.scale(s)
    assert e.order == 3
    # a series above the context's order is truncated, one below refused
    assert x0.scale(TruncSeries([1, 2, 3, 4, 5])) == e
    with pytest.raises(SeriesError):
        x0.scale(TruncSeries([1, 2, 3]))
    with pytest.raises(SeriesError):
        AlgElement.from_series(CTX, TruncSeries([1, 2]))
    with pytest.raises(ContextMismatch):
        e + AlgElement.x(CTX3, 0)


# every constructor and function that once took a per-element order
# (AlgElement.__init__ is _Sparse.__init__)
ONE_ORDER = [
    algebra._Sparse.__init__, AlgElement._new, TensorElement.__init__,
    TensorElement._new, hopf.SymTensor.__init__, hopf.SymTensor._new,
    AlgElement.zero, AlgElement.scalar, AlgElement.one,
    AlgElement.x, AlgElement.dx, AlgElement.d, AlgElement._generator,
    TensorElement.zero, TensorElement.scalar, hopf.HopfStructure.sym,
    lift_in_A, hopf.HopfStructure.realize, hopf.HopfStructure.realize_word,
    hopf.HopfStructure.realize_atom, hopf.HopfStructure._realize_legs,
    hopf.HopfStructure._fold, algebra._numerators, series.entries]


@pytest.mark.parametrize("fn", ONE_ORDER, ids=lambda fn: fn.__qualname__)
def test_one_truncation_order(fn):
    # an element's only truncation order is its context's
    params = inspect.signature(fn).parameters.values()
    assert "order" not in [p.name for p in params]
    assert inspect.Parameter.VAR_POSITIONAL not in [p.kind for p in params]


def test_elements_keep_no_order_of_their_own():
    assert not hasattr(algebra._Sparse, "truncate")
    assert "order" not in algebra._Sparse.__slots__
    assert AlgElement.x(CTX, 0).order == CTX.order


def test_parity():
    dx0, dx1 = AlgElement.dx(CTX, 0), AlgElement.dx(CTX, 1)
    x0 = AlgElement.x(CTX, 0)
    assert x0.parity() == 0
    assert dx0.parity() == 1
    assert (dx0 * dx1).parity() == 0
    with pytest.raises(ParityError):
        (x0 + dx0).parity()
    # graded bracket picks the anticommutator exactly on odd pairs
    assert graded_commutator(dx0, dx1) == anticommutator(dx0, dx1)
    assert graded_commutator(x0, dx0) == commutator(x0, dx0)


def test_vacuum_and_act():
    x0, d0 = AlgElement.x(CTX, 0), AlgElement.d(CTX, 0)
    assert (d0 * x0).vacuum_project() == -AlgElement.one(CTX)
    assert act_on(d0, x0) == -AlgElement.one(CTX)
    assert act_on(d0, AlgElement.one(CTX)).is_zero()
    assert act_on(d0, x0 * x0) == x0.scale(-2)
    with pytest.raises(ContextMismatch):
        act_on(d0, AlgElement.x(CTX3, 0))


def test_classical_limit_and_min_degree():
    x0 = AlgElement.x(CTX, 0)
    e = x0.scale(TruncSeries([0, 1, 0, 0])) + AlgElement.d(CTX, 1)
    assert e.min_a0_degree() == 0
    assert e.classical_limit() == AlgElement.d(CTX, 1)
    assert AlgElement.zero(CTX).min_a0_degree() == CTX.order + 1


def test_lift_in_A():
    # A = -i a0 d0, so A^2 lifts to -a0^2 d0^2
    f = TruncSeries.monomial(1, 2, 3)
    e = lift_in_A(CTX, f)
    key = ((0, 0), 0, (2, 0))
    assert e.coefficient(key) == TruncSeries.monomial(-1, 2, 3)
    # exp(A) at order 2
    g = TruncSeries.t(2).exp()
    e = lift_in_A(Context(2, 2, (1, 0)), g)
    assert e.coefficient(((0, 0), 0, (1, 0))) == TruncSeries.monomial(MINUS_I, 1, 2)
    with pytest.raises(AlgebraError):
        lift_in_A(CTX, TruncSeries.t(1))


def test_substitute_series():
    d1 = AlgElement.d(CTX, 1)
    arg = d1.scale(TruncSeries.monomial(1, 1, 3))  # a0 d1
    f = TruncSeries.t(3).exp()
    e = substitute_series(f, arg)
    # exp(a0 d1) = sum a0^k d1^k / k!
    assert e.coefficient(((0, 0), 0, (0, 2))) == \
        TruncSeries.monomial(Fraction(1, 2), 2, 3)
    with pytest.raises(AlgebraError):
        substitute_series(f, d1)  # does not vanish at a0 = 0
    with pytest.raises(AlgebraError):
        substitute_series(f, AlgElement.x(CTX, 0))


def test_pow_and_scale_forms():
    x1 = AlgElement.x(CTX, 1)
    assert x1.pow(3) == x1 * x1 * x1
    assert x1.pow(0) == AlgElement.one(CTX)
    with pytest.raises(AlgebraError):
        x1.pow(-1)
    assert x1.scale(I).scale(MINUS_I) == x1
    assert x1.scale(Fraction(1, 2)).scale(2) == x1


def test_render_and_to_data():
    e = AlgElement.x(CTX, 0) * AlgElement.d(CTX, 1) + \
        AlgElement.dx(CTX, 1).scale(I)
    text = e.render()
    assert "x0" in text and "d1" in text and "dx1" in text
    data = e.to_data()
    assert data["order"] == CTX.order
    assert len(data["terms"]) == 2


def test_tensor_elements():
    x0 = AlgElement.x(CTX, 0)
    d0 = AlgElement.d(CTX, 0)
    one = AlgElement.one(CTX)
    t = TensorElement.outer([d0, one]) * TensorElement.outer([x0, one])
    u = TensorElement.outer([x0, one]) * TensorElement.outer([d0, one])
    assert t - u == TensorElement.scalar(CTX, 2, -1)
    assert tensor_commutator(TensorElement.outer([d0, one]),
                             TensorElement.outer([one, x0])).is_zero()
    with pytest.raises(AlgebraError):
        TensorElement.outer([AlgElement.dx(CTX, 0), one])


def test_outer_checks_each_factor():
    # factors of another dimension or order are refused, as by a * b
    x0 = AlgElement.x(CTX, 0)
    for other in (Context(3, CTX.order, (1, 0, 0)), Context(2, 2, (1, 0))):
        y = AlgElement.x(other, 1)
        with pytest.raises(ContextMismatch):
            TensorElement.outer([x0, y])
        with pytest.raises(ContextMismatch):
            TensorElement.outer([y, x0, x0])


def test_tensor_divide_and_limits():
    x0 = AlgElement.x(CTX, 0)
    one = AlgElement.one(CTX)
    t = TensorElement.outer([x0, one]).scale(TruncSeries.monomial(1, 1, 3))
    assert t.classical_limit().is_zero()


# -- the product-sum kernel against the per-term fold ---------------------------

# p/q with q <= 12 and |p/q| <= 7: the 645 values of st.fractions(-7, 7,
# max_denominator=12), sampled from a list built once
RATIONAL_VALUES = sorted({Fraction(p, q) for q in range(1, 13)
                          for p in range(-7 * q, 7 * q + 1)})
rationals = st.sampled_from(RATIONAL_VALUES)
# zero, purely real, purely imaginary and full Gaussian coefficients with
# mixed denominators
coefficients = st.one_of(
    st.just(GaussScalar(0)),
    rationals.map(GaussScalar),
    rationals.map(lambda q: GaussScalar(0, q)),
    st.tuples(rationals, rationals).map(lambda p: GaussScalar(*p)))


def series_at_least(order):
    """Series of order `order` to `order` + 2: the product loops skip
    every pair above the order."""
    return st.integers(order + 1, order + 3).flatmap(
        lambda n: st.lists(coefficients, min_size=n, max_size=n)
    ).map(TruncSeries)


def naive_sum_products(groups, order, key_map):
    """The per-term loop the kernel replaced: one TruncSeries product per
    pair and one TruncSeries sum per (key, factor)."""
    out = {}
    for n, left, right in groups:
        for k1, a in left.items():
            for k2, b in right.items():
                prod = a.truncate(order) * b.truncate(order)
                if prod.is_zero():
                    continue
                for key, m in key_map(k1, k2):
                    term = prod.scale(n * m)
                    out[key] = out[key] + term if key in out else term
    return {key: s for key, s in out.items() if not s.is_zero()}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 5), st.data())
def test_sum_products_against_per_term_fold(order, data):
    term_maps = st.dictionaries(st.integers(0, 3), series_at_least(order),
                                max_size=4)
    factors = st.integers(1, 3) | st.integers(-3, -1)
    groups = data.draw(st.lists(st.tuples(factors, term_maps, term_maps),
                                max_size=4))
    # several output keys per pair, repeated keys, integer factors
    table = data.draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3)), max_size=3)))
    # two groups with opposite factors whose products cancel on key 9
    a, b = data.draw(series_at_least(order)), data.draw(series_at_least(order))
    n = data.draw(factors)
    groups += [(n, {"c": a}, {0: b}), (-n, {"c": a}, {0: b})]
    table[("c", 0)] = [(9, 2)]

    calls = []

    def key_map(k1, k2):
        calls.append((k1, k2))
        return table.get((k1, k2), ())

    got = _sum_products(groups, order, key_map)
    want = naive_sum_products(groups, order, lambda k1, k2:
                              table.get((k1, k2), ()))
    assert got == want
    assert 9 not in got
    assert all(s.order == order and not s.is_zero() for s in got.values())
    # key_map is asked exactly for the pairs with a nonzero product
    assert calls == [(k1, k2) for _, left, right in groups
                     for k1, x in left.items() for k2, y in right.items()
                     if not (x.truncate(order) * y.truncate(order)).is_zero()]


# -- the module action's projected key map -----------------------------------


def test_act_key_map_against_rewriting_oracle():
    # every monomial pair at dim 2 with exponents <= 2, against the
    # derivative-free part of the rewritten word
    dim = 2
    exps = list(iproduct(range(3), repeat=dim))
    monos = [(x, mask, d) for x in exps for mask in range(1 << dim)
             for d in exps]
    for m1 in monos:
        for m2 in monos:
            word = mono_to_word(m1, dim) + mono_to_word(m2, dim)
            want = {}
            for w, c in normalize(word).items():
                if all(kind != "d" for kind, _ in w):
                    want[word_to_key(w, dim)] = c
            assert dict(_act_mono(dim, m1, m2)) == want, (m1, m2)


def test_comm_key_map_against_rewriting_oracle():
    # every monomial pair at dim 2 with exponents <= 2 and every dx mask,
    # odd-odd pairs included, against m1 m2 - m2 m1 rewritten; each
    # unordered pair is rewritten once in each order
    dim = 2
    exps = list(iproduct(range(3), repeat=dim))
    monos = [(x, mask, d) for x in exps for mask in range(1 << dim)
             for d in exps]
    for i, m1 in enumerate(monos):
        for m2 in monos[i:]:
            w1, w2 = mono_to_word(m1, dim), mono_to_word(m2, dim)
            want = normalize(w1 + w2)
            for w, c in normalize(w2 + w1).items():
                want[w] = want.get(w, 0) - c
            want = {word_to_key(w, dim): c for w, c in want.items() if c}
            assert dict(_comm_mono(dim, m1, m2)) == want, (m1, m2)
            assert dict(_comm_mono(dim, m2, m1)) == \
                {k: -c for k, c in want.items()}, (m2, m1)


def exponents(dim):
    return st.tuples(*[st.integers(0, 3)] * dim)


# dimensions 2 and 3 at the orders 1-3
contexts = st.tuples(st.sampled_from((CTX, CTX3)), st.integers(1, 3)).map(
    lambda p: Context(p[0].dim, p[1], p[0].direction))


def coefficient_series(ctx):
    return st.lists(coefficients, min_size=ctx.order + 1,
                    max_size=ctx.order + 1).map(TruncSeries)


def elements(ctx, dexps):
    """Elements built from key dicts: exponents 0-3 (derivative exponents
    drawn from `dexps`), every dx mask, Gaussian coefficients as in the
    kernel test above."""
    monos = st.tuples(exponents(ctx.dim), st.integers(0, (1 << ctx.dim) - 1),
                      dexps)
    return st.dictionaries(monos, coefficient_series(ctx), min_size=1,
                           max_size=4).map(lambda terms: AlgElement(ctx, terms))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(contexts, st.data())
def test_act_on_is_projected_product(ctx, data):
    exps = exponents(ctx.dim)
    # derivative-free keys are the ones the action keeps on the right
    b = data.draw(elements(ctx, st.one_of(st.just((0,) * ctx.dim), exps)))
    # and a left derivative survives only below a right x-exponent
    below = st.sampled_from([k[0] for k in b.terms] or [(0,) * ctx.dim])\
        .flatmap(lambda x2: st.tuples(*[st.integers(0, e) for e in x2]))
    a = data.draw(elements(ctx, st.one_of(exps, below)))
    got = act_on(a, b)
    assert got == (a * b).vacuum_project()
    # a chain projects from the right: (a b) |> 1 = (a (b |> 1)) |> 1
    assert act_on(a, b.vacuum_project()) == got


def tensors(ctx, legs):
    """Tensors built from key dicts: one one-form-free monomial per leg,
    exponents 0-2 at dim 2 and 0-1 at dim 3, so a three-leg product stays
    small."""
    exps = st.tuples(*[st.integers(0, 4 - ctx.dim)] * ctx.dim)
    keys = st.tuples(*[st.tuples(exps, st.just(0), exps)] * legs)
    return st.dictionaries(keys, coefficient_series(ctx), min_size=1,
                           max_size=4).map(
        lambda terms: TensorElement(ctx, legs, terms))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(contexts, st.sampled_from((2, 3)), st.data())
def test_brackets_are_product_differences(ctx, legs, data):
    # mixed-parity elements (their odd-odd term pairs included) and two- and
    # three-leg tensors; derivative-free terms make pairs that contract in
    # neither order
    dexps = st.one_of(st.just((0,) * ctx.dim), exponents(ctx.dim))
    a = data.draw(elements(ctx, dexps))
    b = data.draw(elements(ctx, dexps))
    assert commutator(a, b) == a * b - b * a
    assert anticommutator(a, b) == a * b + b * a
    t = data.draw(tensors(ctx, legs))
    u = data.draw(tensors(ctx, legs))
    assert tensor_commutator(t, u) == t * u - u * t
