from dataclasses import fields

import hypercalc
from hypercalc.hyperops import EngineLimits


def test_every_export_resolves():
    missing = [name for name in hypercalc.__all__ if not hasattr(hypercalc, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(hypercalc.__all__)) == len(hypercalc.__all__)


def test_deleted_names_stay_gone():
    deleted = {"RenderStyle", "traversal_order", "rational_floor",
               "run", "HyperKind", "HyperRequest", "reduce", "low_op"}
    assert deleted.isdisjoint(hypercalc.__all__)


def test_settable_values_are_pinned():
    # every field is a value a caller can set; the work budgets are module
    # constants, so a new field here is a new option and needs this edit
    def names(cls):
        return [f.name for f in fields(cls)]

    assert names(hypercalc.NumericContext) == ["base", "digits", "guard_digits"]
    assert names(hypercalc.SeriesConfig) == ["target_error"]
    assert names(hypercalc.RootConfig) == ["x_tolerance"]
    assert names(EngineLimits) == ["max_height_steps"]
