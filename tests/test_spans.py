"""The benchmark's tracer patches askit attributes by name: each must exist, and come back."""

import sys

import askit.api
import askit.clients
import askit.runner
from conftest import REPO

sys.path.insert(0, str(REPO / "perfbench"))

import spans  # noqa: E402


def test_install_then_uninstall_restores_every_attribute():
    owners = [module for name, module in sys.modules.items() if name.startswith("askit.")]
    owners += [askit.api.CompiledFunction, askit.clients.ReplayClient, askit.runner.Worker]
    before = [(owner, dict(vars(owner))) for owner in owners]
    undo = spans.install(spans.Tracer())
    try:
        assert undo
        for owner, attribute, original in undo:
            assert owner.__dict__[attribute] is not original, attribute
    finally:
        spans.uninstall(undo)
    for owner, attributes in before:
        assert dict(vars(owner)) == attributes, owner.__name__
