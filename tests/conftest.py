import numpy as np
import pytest

from shellfem.assembly import FormAssembler
from shellfem.geometry import ExpressionChart, SymbolicChart
from shellfem.norms import NormEngine

from oracles import PlainLayout


def _origin(layout):
    """The label of `layout`: "dg" for the oracles' plain P1 layout,
    "mixed" for the package's enriched one."""
    return "dg" if isinstance(layout, PlainLayout) else "mixed"


@pytest.fixture
def form_builds(monkeypatch):
    """List that records, in order, the layout ("mixed": the package's
    enriched one, "dg": the oracles' plain P1 one) of every assembler that
    builds its forms during the test."""
    builds = []
    forms = FormAssembler.forms

    def counting_forms(self):
        if self._forms is None:
            builds.append(_origin(self.layout))
        return forms(self)
    monkeypatch.setattr(FormAssembler, "forms", counting_forms)
    return builds


@pytest.fixture
def gram_builds(monkeypatch):
    """List that records, in order, the layout ("mixed" or "dg", as in
    `form_builds`) of every norm engine that builds its Gram matrix during
    the test."""
    builds = []
    grams = NormEngine.grams

    def counting_grams(self):
        if self._grams is None:
            builds.append(_origin(self.layout))
        return grams(self)
    monkeypatch.setattr(NormEngine, "grams", counting_grams)
    return builds


@pytest.fixture
def chart_evaluations(monkeypatch):
    """List that records, in order, the method ("evaluate" or "derivatives") and
    the number of points of every such chart call (on either chart class)
    during the test."""
    calls = []
    for cls in (SymbolicChart, ExpressionChart):
        for name in ("evaluate", "derivatives"):
            def counting(self, points, _name=name, _fn=getattr(cls, name)):
                calls.append((_name, np.asarray(points).size // 2))
                return _fn(self, points)
            monkeypatch.setattr(cls, name, counting)
    return calls
