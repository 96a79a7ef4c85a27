"""The public API: every exported name resolves."""
import coxwalk


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from coxwalk import *", namespace)
    missing = [name for name in coxwalk.__all__ if name not in namespace]
    assert not missing


def test_all_names_are_attributes():
    assert len(set(coxwalk.__all__)) == len(coxwalk.__all__)
    for name in coxwalk.__all__:
        assert getattr(coxwalk, name) is not None, name
