"""Property-based tests for the remote transport."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.remote.transport import RtoEstimator, TransportConfig
from repro.sim.timebase import ns_from_ms


@given(
    samples=st.lists(
        st.integers(min_value=1, max_value=ns_from_ms(5_000)),
        max_size=50,
    ),
    timeouts=st.lists(st.integers(min_value=0, max_value=5), max_size=50),
)
@settings(max_examples=100)
def test_rto_always_within_clamp(samples, timeouts):
    """Whatever sample/timeout interleaving occurs, the RTO stays in
    ``[rto_min, rto_max]`` — the invariant the retransmission schedule's
    boundedness rests on."""
    config = TransportConfig()
    estimator = RtoEstimator(config)
    events = [("sample", s) for s in samples] + [
        ("timeout", None) for t in timeouts for _ in range(t)
    ]
    for kind, value in events:
        if kind == "sample":
            estimator.sample(value)
        else:
            estimator.on_timeout()
        assert ns_from_ms(config.rto_min_ms) <= estimator.rto_ns() <= ns_from_ms(
            config.rto_max_ms
        )
        assert 1 <= estimator.backoff <= 64
