import hypercalc


def test_every_export_resolves():
    missing = [name for name in hypercalc.__all__ if not hasattr(hypercalc, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(hypercalc.__all__)) == len(hypercalc.__all__)
