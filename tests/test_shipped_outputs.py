"""Byte-identity gate: the CSVs of the six commands on the shipped scenarios.

Every command runs in-process on each scenario in ``scenarios/`` and the
sha256 of each CSV it writes is compared with the reference digests in
``perfbench/reference_digests.json`` (keys ``<scenario>-<command>/<file>``).
A change that moves any number of these tables, or its last bit, fails here;
a deliberate numeric change has to say so and record the new digests.
"""
import hashlib
import json
from pathlib import Path

import pytest

from impact_hedger.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "perfbench" / "reference_digests.json").read_text())
COMMANDS = ("gexp", "price", "solve", "closedform", "value", "verify")
SCENARIOS = sorted(p.stem for p in (ROOT / "scenarios").glob("*.ini"))


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_shipped_csvs_match_the_reference_digests(tmp_path, scenario):
    config = ROOT / "scenarios" / f"{scenario}.ini"
    for command in COMMANDS:
        run = f"{scenario}-{command}"
        out = tmp_path / run
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        written = {f"{run}/{p.name}": p for p in sorted(out.glob("*.csv"))}
        expected = {k for k in REFERENCE if k.startswith(f"{run}/")}
        assert set(written) == expected
        changed = [
            key
            for key, path in written.items()
            if hashlib.sha256(path.read_bytes()).hexdigest() != REFERENCE[key]
        ]
        assert not changed, f"CSV bytes differ from the reference: {changed}"
