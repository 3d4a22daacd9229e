"""Unit and property tests for the fault-injection subsystem.

The load-bearing property is the determinism contract: identical
``(seed, FaultPlan)`` pairs must yield byte-identical runs, and an
empty plan must leave the machine bit-identical to an uninstrumented
one.  The unit tests pin each injection mechanism to its observable
machine-side evidence (disk service time, spurious-interrupt counts,
queue drops, TLB charges, requeue demotions).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.terminal import TerminalApp
from repro.experiments.common import inject_keystroke
from repro.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SCENARIOS,
    get_scenario,
    scenario_names,
)
from repro.fleet.population import APP_PROFILES
from repro.fleet.session import FleetSessionApp
from repro.sim.timebase import ns_from_ms
from repro.sim.work import HwEvent
from repro.winsys import boot


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan: pure-data validation and round-trips
# ----------------------------------------------------------------------
class TestPlanData:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec.make("x", "cosmic-rays")

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec.make("x", "disk-stall", start_ms=50.0, end_ms=50.0)

    def test_duplicate_fault_names_rejected(self):
        a = FaultSpec.make("dup", "disk-stall")
        b = FaultSpec.make("dup", "irq-storm")
        with pytest.raises(ValueError):
            FaultPlan("p", (a, b))

    def test_spec_dict_round_trip(self):
        spec = FaultSpec.make(
            "s", "irq-storm", {"vector": "nic", "burst": 5}, start_ms=10.0, end_ms=90.0
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_plan_dict_round_trip_and_fingerprint(self):
        plan = get_scenario("degraded")
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        assert again.fingerprint() == plan.fingerprint()
        json.loads(plan.fingerprint())  # fingerprint is valid JSON

    def test_param_order_does_not_matter(self):
        a = FaultSpec.make("s", "disk-stall", {"a": 1, "b": 2})
        b = FaultSpec.make("s", "disk-stall", {"b": 2, "a": 1})
        assert a == b

    def test_plan_kinds_deduplicated_in_order(self):
        plan = get_scenario("irq-storm")
        assert plan.kinds == ["irq-storm"]
        assert len(plan) == 2  # nic + keyboard storms


class TestScenarios:
    def test_all_scenarios_build(self):
        for name in scenario_names():
            plan = get_scenario(name)
            assert len(plan) >= 1

    def test_unknown_scenario_lists_choices(self):
        with pytest.raises(KeyError, match="degraded"):
            get_scenario("nope")

    def test_degraded_covers_every_kind(self):
        assert set(get_scenario("degraded").kinds) == set(FAULT_KINDS)

    def test_scenario_names_match_registry(self):
        assert set(scenario_names()) == set(SCENARIOS)


# ----------------------------------------------------------------------
# Injector mechanics, one observable per fault kind
# ----------------------------------------------------------------------
def _typed_run(os_name, seed, plan, chars=6, app_cls=TerminalApp):
    system = boot(os_name, seed=seed)
    app = app_cls(system)
    app.start(foreground=True)
    injector = None
    if plan is not None:
        injector = FaultInjector(system, plan).install()
    for index in range(chars):
        inject_keystroke(system, chr(ord("a") + index))
        system.run_for(ns_from_ms(40))
    system.run_for(ns_from_ms(300))
    return system, injector


def _single(kind, name="f", params=None, end_ms=400.0):
    return FaultPlan(
        "test-" + kind, (FaultSpec.make(name, kind, params or {}, 5.0, end_ms),)
    )


class TestInjector:
    def test_install_twice_rejected(self):
        system = boot("nt40", seed=0)
        injector = FaultInjector(system, _single("irq-storm"))
        injector.install()
        with pytest.raises(RuntimeError):
            injector.install()

    def test_disk_stall_adds_service_time(self):
        plan = _single(
            "disk-stall", params={"mean_period_ms": 20.0, "stall_ms": 30.0}
        )
        editor = lambda system: FleetSessionApp(system, APP_PROFILES["editor"])
        system, injector = _typed_run("nt40", 0, plan, app_cls=editor)
        assert injector.counts["f"] >= 1
        assert system.machine.disk.injected_service_ns > 0
        assert injector.summary()["disk_injected_ms"] > 0

    def test_irq_storm_counts_spurious_only(self):
        plan = _single(
            "irq-storm", params={"vector": "nic", "burst": 5, "mean_period_ms": 25.0}
        )
        system, injector = _typed_run("nt40", 0, plan)
        spurious = system.machine.interrupts.spurious.get("nic", 0)
        assert spurious == injector.counts["f"] * 5
        # Genuine deliveries are tallied separately from spurious ones.
        assert system.machine.interrupts.delivered.get("nic", 0) == 0

    def test_queue_pressure_floods_and_capacity_drops(self):
        plan = _single(
            "queue-pressure",
            params={"burst": 200, "mean_period_ms": 15.0, "capacity": 4},
        )
        system, injector = _typed_run("nt40", 0, plan)
        assert injector.counts["f"] >= 1
        dropped = sum(t.queue.dropped_count for t in system.kernel.threads)
        assert dropped > 0
        assert injector.summary()["messages_dropped"] == dropped

    def test_queue_capacity_restored_after_window(self):
        plan = _single(
            "queue-pressure",
            params={"burst": 1, "capacity": 4},
            end_ms=100.0,
        )
        system, _ = _typed_run("nt40", 0, plan)
        assert all(t.queue.capacity is None for t in system.kernel.threads)

    def test_memory_pressure_charges_tlb_flushes(self):
        plan = _single("memory-pressure", params={"mean_period_ms": 10.0})
        system, injector = _typed_run("nt40", 0, plan)
        assert injector.counts["f"] >= 1
        assert system.machine.perf.total(HwEvent.TLB_FLUSH) > 0

    def test_sched_jitter_uninstalled_after_window(self):
        plan = _single("sched-jitter", params={"probability": 1.0}, end_ms=100.0)
        system, _ = _typed_run("nt40", 0, plan)
        assert system.kernel.scheduler._requeue_jitter is None

    def test_empty_plan_is_bit_identical_to_no_injector(self):
        plain, _ = _typed_run("nt40", 0, None)
        empty, injector = _typed_run("nt40", 0, FaultPlan("empty"))
        assert injector.total_injections() == 0
        assert plain.now == empty.now
        assert plain.perf.snapshot() == empty.perf.snapshot()
        assert plain.sim.events_executed == empty.sim.events_executed


# ----------------------------------------------------------------------
# Determinism: identical (seed, plan) -> byte-identical archives
# ----------------------------------------------------------------------
def _archive_bytes(seed, plan):
    """A run's archival record, as the exact bytes a --save would emit."""
    system, injector = _typed_run("nt40", seed, plan, chars=4)
    record = {
        "now_ns": system.now,
        "events_executed": system.sim.events_executed,
        "summary": injector.summary(),
        "interrupts": dict(system.machine.perf._tally)[HwEvent.INTERRUPTS],
    }
    return json.dumps(record, sort_keys=True).encode()


_KIND_PARAMS = {
    "disk-stall": {"mean_period_ms": 25.0, "stall_ms": 20.0},
    "irq-storm": {"vector": "nic", "burst": 4, "mean_period_ms": 25.0},
    "queue-pressure": {"burst": 3, "mean_period_ms": 25.0},
    "sched-jitter": {"probability": 0.5},
    "memory-pressure": {"mean_period_ms": 20.0},
    # No remote link on the probe system: the apply/restore pair must
    # no-op without perturbing the byte-identical archive.
    "link-degrade": {"loss_add": 0.2, "jitter_add_ms": 10.0},
}


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    kinds=st.lists(
        st.sampled_from(sorted(FAULT_KINDS)), min_size=1, max_size=3, unique=True
    ),
)
@settings(max_examples=8, deadline=None)
def test_identical_seed_and_plan_yield_byte_identical_archives(seed, kinds):
    plan = FaultPlan(
        "prop",
        tuple(
            FaultSpec.make(f"f{i}", kind, _KIND_PARAMS[kind], 5.0, 350.0)
            for i, kind in enumerate(kinds)
        ),
    )
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    assert _archive_bytes(seed, plan) == _archive_bytes(seed, plan)


def test_different_seeds_diverge():
    plan = get_scenario("smoke")
    assert _archive_bytes(0, plan) != _archive_bytes(1, plan)


def test_adding_a_fault_does_not_perturb_existing_streams():
    """Streams are keyed by fault name, so extending a plan leaves the
    original faults' draws untouched (the rng.py contract)."""
    base = FaultPlan(
        "grow", (FaultSpec.make("a", "irq-storm", _KIND_PARAMS["irq-storm"], 5.0, 350.0),)
    )
    grown = FaultPlan(
        "grow",
        base.faults
        + (FaultSpec.make("b", "memory-pressure", _KIND_PARAMS["memory-pressure"], 5.0, 350.0),),
    )
    _, small = _typed_run("nt40", 0, base, chars=4)
    _, big = _typed_run("nt40", 0, grown, chars=4)
    assert small.counts["a"] == big.counts["a"]
