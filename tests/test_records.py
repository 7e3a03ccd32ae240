import pytest

from kappacalc.algebra import Context
from kappacalc.cli import RunConfig
from kappacalc.reports import Check, SuiteReport


def test_record_fields_by_position_keyword_and_default():
    assert Check("c", False, "x") == Check(name="c", passed=False,
                                           residual="x")
    assert Check("c", True).residual is None
    cfg = RunConfig(dim=3, suites=("space",))
    assert (cfg.dim, cfg.order, cfg.suites) == (3, 3, ("space",))
    # a list or dict default is each record's own
    a, b = SuiteReport("a"), SuiteReport("b")
    a.record("one", True)
    assert b.checks == [] and RunConfig().bindings == {}
    RunConfig().bindings["q"] = 1
    assert RunConfig().bindings == {}
    for bad in (lambda: Check("c"), lambda: Check("c", True, None, 1),
                lambda: Check("c", True, name="d"),
                lambda: Check("c", True, colour=1)):
        with pytest.raises(TypeError):
            bad()


def test_frozen_records_hash_by_value_and_refuse_assignment():
    ctx = Context(2, 3, (1, 0))
    assert ctx == Context(2, 3, (1, 0)) != Context(2, 2, (1, 0))
    assert hash(ctx) == hash(Context(dim=2, order=3, direction=(1, 0)))
    assert len({Check("c", True), Check("c", True)}) == 1
    with pytest.raises(AttributeError):
        ctx.order = 4
    with pytest.raises(AttributeError):
        del ctx.dim
    # a mutable record compares by value and has no hash
    assert RunConfig(dim=2) == RunConfig(dim=2) != RunConfig()
    with pytest.raises(TypeError):
        hash(RunConfig())
    assert repr(Check("c", True)) == \
        "Check(name='c', passed=True, residual=None)"
