"""The exercised-code gate (``make exercised``): allowlist hygiene and
the function-level tracer it is built on."""

import sys

from repro import exercised
from repro.sim.timebase import ns_from_ms
from repro.winsys import boot


def _allowlist_lines():
    return [
        line
        for line in exercised.ALLOWLIST.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]


def test_allowlist_entries_are_unique_reasoned_and_defined():
    paths = {exercised.module_name(p): p for p in exercised.PACKAGE.rglob("*.py")}
    keys = []
    for line in _allowlist_lines():
        key, tab, reason = line.partition("\t")
        module, _, qualname = key.partition(":")
        assert tab and reason.strip(), f"entry without a reason: {line!r}"
        assert exercised.is_gated(module), f"not a simulator module: {line!r}"
        assert qualname in exercised.defined_functions(paths[module]), key
        keys.append(key)
    assert len(keys) == len(set(keys)), "duplicate allowlist entries"
    assert len(exercised.read_allowlist()) == len(keys)


def test_tracer_records_what_ran_and_nothing_else():
    previous = sys.getprofile()
    with exercised.Tracer() as tracer:
        system = boot("nt40")
        system.run_for(ns_from_ms(50))
    assert sys.getprofile() is previous
    ran = tracer.ran()
    assert ("repro.winsys.kernel", "Kernel._on_clock_tick") in ran
    assert ("repro.sim.engine", "Simulator._compact") not in ran
