import klhom


def test_every_export_resolves():
    missing = [name for name in klhom.__all__ if not hasattr(klhom, name)]
    assert not missing


def test_no_duplicate_exports():
    assert len(set(klhom.__all__)) == len(klhom.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from klhom import *", namespace)
    assert set(klhom.__all__) <= namespace.keys()
