"""The bundled scripts shipped as package data."""

from importlib.resources import files

from strandcheck.descent import (
    BUNDLE_ORDER,
    _build_bundle,
    builtin_descent_base,
    bundle_file_name,
)
from strandcheck.parser import format_script_file, script_file_for

KINDS = ("TA", "DD", "AC")


def _bundle_text(kind):
    resource = files("strandcheck") / "bundle" / bundle_file_name(kind)
    return resource.read_text(encoding="utf-8")


def test_bundle_resources_reachable():
    for kind in KINDS:
        resource = files("strandcheck") / "bundle" / bundle_file_name(kind)
        assert resource.is_file()
        assert _bundle_text(kind).startswith("[base]\n")


def test_regenerated_bundle_matches_data():
    """Deriving the bundle by search reproduces the shipped files exactly."""
    derived = _build_bundle(builtin_descent_base())
    assert tuple(s.name for s in derived) == BUNDLE_ORDER
    groups = {}
    for script in derived:
        groups.setdefault(script.signature.extension, []).append(script)
    assert sorted(groups) == sorted(KINDS)
    for kind, scripts in groups.items():
        text = format_script_file(script_file_for(scripts))
        assert text == _bundle_text(kind), bundle_file_name(kind)
