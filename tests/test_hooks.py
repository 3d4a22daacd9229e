"""Unit tests for the API hook registry."""

from repro.winsys.hooks import ApiCallRecord, HookManager


def record(api="GetMessage", time_ns=0):
    return ApiCallRecord(time_ns=time_ns, thread_name="app", api=api, queue_len=0)


class TestHookManager:
    def test_register_and_fire(self):
        hooks = HookManager()
        seen = []
        hooks.register("GetMessage", seen.append)
        hooks.fire(record())
        assert len(seen) == 1

    def test_unrelated_api_not_delivered(self):
        hooks = HookManager()
        seen = []
        hooks.register("PeekMessage", seen.append)
        hooks.fire(record("GetMessage"))
        assert seen == []

    def test_wildcard_hook(self):
        hooks = HookManager()
        seen = []
        hooks.register("*", seen.append)
        hooks.fire(record("GetMessage"))
        hooks.fire(record("PeekMessage"))
        hooks.fire(record("anything"))
        assert len(seen) == 3

    def test_multiple_hooks_same_api(self):
        hooks = HookManager()
        a, b = [], []
        hooks.register("GetMessage", a.append)
        hooks.register("GetMessage", b.append)
        hooks.fire(record())
        assert len(a) == len(b) == 1

    def test_unregister(self):
        hooks = HookManager()
        seen = []
        hooks.register("GetMessage", seen.append)
        hooks.unregister("GetMessage", seen.append)
        hooks.fire(record())
        assert seen == []

    def test_unregister_missing_is_noop(self):
        HookManager().unregister("GetMessage", lambda r: None)

    def test_calls_seen_counts_all(self):
        hooks = HookManager()
        hooks.fire(record())
        hooks.fire(record("PeekMessage"))
        assert hooks.calls_seen == 2
