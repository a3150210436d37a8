import pytest

from shellfem.assembly import FormAssembler


@pytest.fixture
def form_builds(monkeypatch):
    """List that records, in order, the method ("mixed" or "dg") of every
    assembler that builds its forms during the test."""
    builds = []
    forms = FormAssembler.forms

    def counting_forms(self):
        if self._forms is None:
            builds.append("mixed" if self.layout.with_aux else "dg")
        return forms(self)
    monkeypatch.setattr(FormAssembler, "forms", counting_forms)
    return builds
