# Developer / CI entry points. All targets run from the repo root with
# the in-tree sources (no install needed).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

SMOKE_OUT   := .smoke-out
SMOKE_CACHE := .smoke-cache

.PHONY: test benchmarks bench-json perf-gate perf-baseline profile-hotpath \
	experiments experiments-smoke faults-smoke remote-smoke \
	obs-smoke obs-overhead envelope-smoke fleet-smoke chaos-smoke \
	chaos-stress docs-check verify-integrity golden-check \
	golden-update verify clean

test:
	$(PYTHON) -m pytest -x -q

benchmarks:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Simulator perf metrics: run the engine + fast-forward benchmarks and
# distil them into BENCH_simulator.json-shaped metrics (see
# src/repro/perfgate.py).  .bench-raw.json is scratch output.
bench-json:
	$(PYTHON) -m pytest benchmarks/test_simulator_perf.py \
		benchmarks/test_fastforward.py \
		benchmarks/test_fleet_scale.py \
		benchmarks/test_remote_transport.py \
		benchmarks/test_envelope_overhead.py \
		--benchmark-only --benchmark-json=.bench-raw.json -q
	$(PYTHON) -m repro.perfgate collect .bench-raw.json -o .bench-current.json

# CI gate: fail if any tracked metric regressed >25% against the
# committed baseline (or the fast-forward speedup fell below 5x).
perf-gate: bench-json
	$(PYTHON) -m repro.perfgate check .bench-current.json \
		--baseline BENCH_simulator.json

# Re-bless the committed perf baseline after a reviewed change.
perf-baseline: bench-json
	cp .bench-current.json BENCH_simulator.json
	@echo "perf baseline updated: BENCH_simulator.json"

# cProfile the engine hot paths (calendar churn + keystroke pipeline);
# writes the top-20 cumulative report to .profile-hotpath.txt.
profile-hotpath:
	$(PYTHON) -m repro.profilehotpath -o .profile-hotpath.txt

# The full paper reproduction (parallel, cached under ~/.cache/repro).
experiments:
	$(PYTHON) -m repro.experiments --save out/

# CI gate: two cheap experiments through the pool path, with the
# watchdog armed and an isolated cache, then validate the run manifest.
experiments-smoke:
	rm -rf $(SMOKE_OUT) $(SMOKE_CACHE)
	$(PYTHON) -m repro.experiments fig1 fig4 --jobs 2 --timeout 300 \
		--save $(SMOKE_OUT) --cache-dir $(SMOKE_CACHE) --checks-only
	$(PYTHON) -c "\
	from repro.core.serialize import load_json, manifest_from_dict; \
	m = manifest_from_dict(load_json('$(SMOKE_OUT)/manifest.json')); \
	assert m['failures'] == 0, m; \
	assert len(m['experiments']) == 2, m; \
	print('smoke ok: %d runs, jobs=%d, code %s' % (len(m['experiments']), m['jobs'], m['code_version']))"
	rm -rf $(SMOKE_OUT) $(SMOKE_CACHE)

# CI gate for the fault-injection subsystem: the tiny 'smoke' plan on
# one OS must inject faults and be byte-reproducible, and an archived
# ext-faults run must record its injected-fault counts in the manifest.
faults-smoke:
	rm -rf $(SMOKE_OUT) $(SMOKE_CACHE)
	$(PYTHON) -c "\
	import json; \
	from repro.experiments import ext_faults; \
	runs = [ext_faults.run(seed=0, chars=10, scenario='smoke', os_names=('nt40',)) for _ in range(2)]; \
	blobs = [json.dumps(r.data, sort_keys=True) for r in runs]; \
	assert blobs[0] == blobs[1], 'smoke plan not byte-reproducible'; \
	total = runs[0].data['injected_faults']['total']; \
	assert total > 0, runs[0].data['injected_faults']; \
	print('faults smoke ok: %d injections, reproducible' % total)"
	$(PYTHON) -m repro.experiments ext-faults --jobs 1 \
		--save $(SMOKE_OUT) --cache-dir $(SMOKE_CACHE) --checks-only
	$(PYTHON) -c "\
	from repro.core.serialize import load_json, manifest_from_dict; \
	m = manifest_from_dict(load_json('$(SMOKE_OUT)/manifest.json')); \
	assert m['failures'] == 0, m; \
	(entry,) = m['experiments']; \
	assert entry['faults']['total'] > 0, entry; \
	print('faults manifest ok: %d injections across %s' % \
	      (entry['faults']['total'], sorted(entry['faults']['by_os'])))"
	rm -rf $(SMOKE_OUT) $(SMOKE_CACHE)

# CI gate for the remote-interaction subsystem: the lossy-link
# transport schedule must replay byte-identically, a network fault
# scenario must compose with the configured link, a traced remote
# session must emit a structurally valid (Perfetto-loadable) trace
# with the per-direction net tracks present, and an archived
# ext-remote run must pass every frontier shape check.
remote-smoke:
	rm -rf $(SMOKE_OUT) $(SMOKE_CACHE)
	$(PYTHON) -c "\
	from repro.obs import observed, chrome_trace, validate_chrome_trace; \
	from repro.remote import LinkConfig, TransportConfig, run_remote_session; \
	link = LinkConfig.symmetric('smoke', rtt_ms=60.0, jitter_ms=4.0, loss=0.25); \
	runs = [run_remote_session('nt40', 0, link, TransportConfig(), chars=12) for _ in range(2)]; \
	assert runs[0].schedule_digest == runs[1].schedule_digest, 'schedule not byte-identical'; \
	assert runs[0].channel['retransmits'] > 0, runs[0].channel; \
	degraded = run_remote_session('nt40', 0, link, TransportConfig(), chars=12, scenario='net-congest'); \
	assert degraded.schedule_digest != runs[0].schedule_digest, 'scenario did not compose'; \
	session_ctx = observed(trace=True, metrics=True); \
	session = session_ctx.__enter__(); \
	run_remote_session('nt40', 0, link, TransportConfig(), chars=12); \
	trace = chrome_trace(session.tracer, label='remote'); \
	session_ctx.__exit__(None, None, None); \
	problems = validate_chrome_trace(trace); \
	assert not problems, problems[:5]; \
	assert any('net-' in str(e.get('args', {}).get('name', '')) \
	           for e in trace['traceEvents'] if e.get('name') == 'thread_name'), \
	       'net tracks missing from trace'; \
	print('remote smoke ok: digest %s…, %d retransmits, %d trace events' % \
	      (runs[0].schedule_digest[:12], runs[0].channel['retransmits'], \
	       len(trace['traceEvents'])))"
	$(PYTHON) -m repro.experiments ext-remote --jobs 1 \
		--save $(SMOKE_OUT) --cache-dir $(SMOKE_CACHE) --checks-only
	$(PYTHON) -c "\
	from repro.core.serialize import load_json, manifest_from_dict; \
	m = manifest_from_dict(load_json('$(SMOKE_OUT)/manifest.json')); \
	assert m['failures'] == 0, m; \
	print('remote manifest ok: %d experiment(s)' % len(m['experiments']))"
	rm -rf $(SMOKE_OUT) $(SMOKE_CACHE)

# CI gate for the observability layer: one cheap experiment with trace
# and metrics outputs on; the trace must be structurally valid
# (Perfetto-loadable), the metrics snapshot must round-trip, and the
# stats subcommand must render the manifest.
obs-smoke:
	rm -rf $(SMOKE_OUT)
	$(PYTHON) -m repro.experiments run fig1 --no-cache --checks-only \
		--save $(SMOKE_OUT) \
		--trace-out $(SMOKE_OUT)/trace.json \
		--metrics-out $(SMOKE_OUT)/metrics.json
	$(PYTHON) -c "\
	import json; \
	from repro.obs import validate_chrome_trace; \
	from repro.core.serialize import load_json, metrics_from_dict; \
	trace = load_json('$(SMOKE_OUT)/trace.json'); \
	problems = validate_chrome_trace(trace); \
	assert not problems, problems[:5]; \
	metrics = metrics_from_dict(load_json('$(SMOKE_OUT)/metrics.json')); \
	assert metrics['counters'], 'no counters collected'; \
	print('obs smoke ok: %d trace events, %d counters' % \
	      (len(trace['traceEvents']), len(metrics['counters'])))"
	$(PYTHON) -m repro.experiments stats $(SMOKE_OUT)/manifest.json > /dev/null
	rm -rf $(SMOKE_OUT)

# CI gate: the disabled observability path must stay within 5% of an
# uninstrumented run (see benchmarks/test_obs_overhead.py).
obs-overhead:
	$(PYTHON) -m pytest benchmarks/test_obs_overhead.py -q

# CI gate for the stage-envelope layer: every completed envelope must
# conserve time exactly (stage durations sum to the measured wait, in
# integer nanoseconds), the per-stage Perfetto tracks must pass the
# structural trace validator, and a sweep archived with the stage flags
# on must render the breakdown and budget-alert sections in stats.
envelope-smoke:
	rm -rf $(SMOKE_OUT)
	$(PYTHON) -c "\
	from repro.obs import observed, chrome_trace, validate_chrome_trace; \
	from repro.experiments.registry import run_experiment; \
	ctx = observed(trace=True, metrics=False); \
	session = ctx.__enter__(); \
	run_experiment('fig1', seed=0); \
	recorders = session.envelope_recorders; \
	trace = chrome_trace(session.tracer, label='envelope'); \
	ctx.__exit__(None, None, None); \
	envelopes = [e for r in recorders for e in r.completed]; \
	assert envelopes, 'no envelopes recorded'; \
	bad = [e.to_dict() for e in envelopes \
	       if sum(e.stage_ns.values()) != e.done_ns - e.inject_ns]; \
	assert not bad, ('conservation violated', bad[:3]); \
	problems = validate_chrome_trace(trace); \
	assert not problems, problems[:5]; \
	stage_tracks = [e for e in trace['traceEvents'] \
	                if e.get('name') == 'thread_name' \
	                and str(e.get('args', {}).get('name', '')).startswith('stage:')]; \
	assert stage_tracks, 'stage tracks missing from trace'; \
	print('envelope conservation ok: %d envelope(s), %d stage track(s)' % \
	      (len(envelopes), len(stage_tracks)))"
	$(PYTHON) -m repro.experiments run fig1 --no-cache --checks-only \
		--save $(SMOKE_OUT) --stage-sample-rate 1.0 --stage-budget handler=0.1
	$(PYTHON) -c "\
	from repro.core.serialize import load_json, manifest_from_dict; \
	m = manifest_from_dict(load_json('$(SMOKE_OUT)/manifest.json')); \
	obs = m['obs']; \
	assert obs.get('stages'), 'manifest missing stage attribution'; \
	assert obs.get('stage_alerts'), 'tight handler budget produced no alerts'; \
	print('envelope manifest ok: %d group(s), %d alert(s)' % \
	      (len(obs['stages']['groups']), len(obs['stage_alerts'])))"
	$(PYTHON) -m repro.experiments stats $(SMOKE_OUT)/manifest.json \
		| grep -q "stage breakdown (envelopes)"
	@echo "envelope smoke ok"
	rm -rf $(SMOKE_OUT)

# CI gate for the fleet layer: a reduced ext-fleet sweep end to end
# through the runner — the manifest must carry the merged-sketch
# provenance, the stats subcommand must render the fleet block, and the
# fleet-report verb must produce the capacity plan.
fleet-smoke:
	rm -rf $(SMOKE_OUT) $(SMOKE_CACHE)
	$(PYTHON) -m repro.experiments ext-fleet --jobs 1 \
		--save $(SMOKE_OUT) --cache-dir $(SMOKE_CACHE) --checks-only
	$(PYTHON) -c "\
	from repro.core.serialize import load_json, manifest_from_dict; \
	m = manifest_from_dict(load_json('$(SMOKE_OUT)/manifest.json')); \
	assert m['failures'] == 0, m; \
	(entry,) = m['experiments']; \
	fleet = entry['fleet']; \
	assert fleet['sessions'] > 0 and fleet['merged_digest'], fleet; \
	assert fleet['merge'] == 'commutative-bucket-add', fleet; \
	print('fleet manifest ok: %d sessions, digest %s' % \
	      (fleet['sessions'], fleet['merged_digest']))"
	$(PYTHON) -m repro.experiments stats $(SMOKE_OUT)/manifest.json \
		| grep -q "merged wait-time sketches"
	$(PYTHON) -m repro.experiments fleet-report $(SMOKE_OUT) \
		| grep -q "capacity plan"
	@echo "fleet smoke ok"
	rm -rf $(SMOKE_OUT) $(SMOKE_CACHE)

# CI gate for the chaos-hardening layer: a hedged run and a healable
# chaos schedule must both match the chaos-free run's fleet digest; an
# unhealable (poison) schedule must account every lost session exactly
# (expected == completed + quarantined + skipped) with the digest
# stamped partial; and --strict-complete must turn the partial run into
# the reserved exit code 4.
chaos-smoke:
	rm -rf $(SMOKE_OUT) $(SMOKE_CACHE)
	$(PYTHON) -c "\
	from repro.obs.logging import set_level; set_level('error'); \
	from repro.fleet.population import PopulationConfig; \
	from repro.fleet.shards import run_fleet; \
	config = PopulationConfig(seed=7, size=24, chars_range=(4, 6)); \
	clean = run_fleet(config, shards=2, batch_size=6); \
	hedged = run_fleet(config, shards=2, batch_size=6, hedge=True); \
	assert hedged.digest == clean.digest, (hedged.digest, clean.digest); \
	healed = run_fleet(config, shards=2, batch_size=6, retries=2, \
	                   backoff_s=0.0, chaos='flaky-crash', chaos_seed=3); \
	assert healed.digest == clean.digest, (healed.digest, clean.digest); \
	assert healed.complete and not healed.failures, healed.provenance(); \
	lossy = run_fleet(config, shards=2, batch_size=6, \
	                  chaos='poison-sessions', chaos_seed=3); \
	accounted = lossy.sessions_completed + lossy.sessions_quarantined \
	            + lossy.sessions_skipped; \
	assert accounted == lossy.sessions_expected, lossy.provenance(); \
	assert lossy.sessions_quarantined > 0, lossy.provenance(); \
	assert lossy.digest_scope == 'partial', lossy.provenance(); \
	print('chaos smoke ok: healed digest %s == clean; %d/%d accounted, %d quarantined' \
	      % (healed.digest, accounted, lossy.sessions_expected, \
	         lossy.sessions_quarantined))"
	$(PYTHON) -m repro.experiments ext-fleet --jobs 1 \
		--chaos poison-sessions --strict-complete \
		--save $(SMOKE_OUT) --cache-dir $(SMOKE_CACHE) --checks-only \
		> /dev/null 2>&1; \
	status=$$?; test $$status -eq 4 \
		|| { echo "expected exit 4 (incomplete fleet), got $$status"; exit 1; }
	@echo "chaos exit-code ok: --strict-complete returned 4 on a partial fleet"
	rm -rf $(SMOKE_OUT) $(SMOKE_CACHE)

# Heavier, not in verify: every chaos scenario x several seeds (seed
# base randomized but printed, so failures replay from the log line).
chaos-stress:
	$(PYTHON) -m repro.chaos.stress --rounds 3

# CI gate for the documentation: every intra-repo markdown link must
# resolve, every --flag a doc mentions must exist in some CLI parser,
# and docs/index.md must cover every docs/ page.
docs-check:
	$(PYTHON) -m repro.docscheck

# CI gate for measurement integrity: the invariant catalog must pass on
# every OS personality under every named fault scenario, each seeded
# trace corruption must trip exactly its matching invariant, and the
# committed golden records must match the current code.
verify-integrity:
	$(PYTHON) -m repro.verify.integrity

# Golden-trace regression only (subset of verify-integrity, faster).
golden-check:
	$(PYTHON) -m repro.verify.golden

# Re-bless the golden records after a reviewed, intentional change.
golden-update:
	$(PYTHON) -m repro.verify.golden --update

# The default local verification flow: unit tests, the runner's pool
# path, the measurement-integrity gate, the observability gates, the
# fleet and docs gates, then the perf-regression gate.
verify: test experiments-smoke verify-integrity obs-smoke obs-overhead \
	envelope-smoke fleet-smoke chaos-smoke remote-smoke docs-check perf-gate

clean:
	rm -rf $(SMOKE_OUT) $(SMOKE_CACHE) out/ .pytest_cache
	rm -f .bench-raw.json .bench-current.json
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
