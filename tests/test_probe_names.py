"""The names the benchmark's probe patches (`perfbench/probe.py`,
`Tracer.install`) exist where it looks for them, and come back unchanged.

Only a traced benchmark run calls the probe, so without this test a rename
such as `report.full_report` or `DigitCensus.from_digits` turning into a
plain function would go unnoticed until then.
"""

import importlib
from pathlib import Path

from benfordkit import cli, gof, ingest, law, report, simulate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OWNERS = {"cli": cli, "gof": gof, "ingest": ingest, "law": law, "report": report,
          "simulate": simulate, "DigitCensus": gof.DigitCensus}


def test_install_patches_the_layer_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    probe = importlib.import_module("probe")
    before = {label: dict(vars(owner)) for label, owner in OWNERS.items()}
    with probe.Tracer().install():
        during = {label: dict(vars(owner)) for label, owner in OWNERS.items()}
    patched = {(label, name) for label in OWNERS for name, value in during[label].items()
               if before[label].get(name) is not value}
    assert {("report", "full_report"), ("DigitCensus", "from_digits")} <= patched
    # The probe rewraps the classmethod's function; any other kind breaks it.
    assert isinstance(before["DigitCensus"]["from_digits"], classmethod)
    for label, name in patched:
        restored = vars(OWNERS[label])[name]
        if name in before[label]:
            assert restored is before[label][name], (label, name)
        else:  # served by the module's __getattr__ before the probe set it
            assert restored is during[label][name].__wrapped__, (label, name)
