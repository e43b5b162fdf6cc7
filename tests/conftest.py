"""Shared fixtures for the test suite."""

import pytest

from repro.locking.rules import ColouredRules, ConventionalRules
from repro.obs.audit.testing import install_online_audit
from repro.runtime.runtime import LocalRuntime
from repro.sim.kernel import Kernel
from repro.util.uid import UidGenerator

@pytest.fixture(autouse=True)
def _online_invariant_audit(request):
    """Run chaos and property suites under the online auditor.

    Every Observability hub created in these modules — each Cluster's and
    each LocalRuntime's own among them — gets the history layer bound and
    its findings asserted empty after the test.  Findings are hard
    failures.
    """
    module = request.node.module.__name__.rsplit(".", 1)[-1]
    audited = (module == "test_chaos_invariants"
               or module.startswith("test_prop_"))
    if not audited:
        yield
        return
    with install_online_audit():
        yield


@pytest.fixture
def runtime():
    """A fresh local runtime with coloured rules (the default)."""
    return LocalRuntime()


@pytest.fixture
def conventional_runtime():
    """A runtime restricted to conventional (Moss) locking rules."""
    return LocalRuntime(rules=ConventionalRules())


@pytest.fixture
def kernel():
    """A fresh discrete-event simulation kernel."""
    return Kernel()


@pytest.fixture
def uids():
    """A uid generator for ad-hoc identities in unit tests."""
    return UidGenerator("test")
