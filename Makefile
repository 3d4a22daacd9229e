# Developer / CI entry points. All targets run from the repo root with
# the in-tree sources (no install needed).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

SMOKE_OUT   := .smoke-out
SMOKE_CACHE := .smoke-cache
# Experiments that analyse a Word or PowerPoint capture another of them
# made first (fig5 -> table2, fig8 -> table1 and fig12).
SHARED_CAPTURES := fig5 table2 fig8 table1 fig12

.PHONY: test benchmarks bench-json perf-gate perf-baseline \
	experiments experiments-smoke faults-smoke remote-smoke \
	obs-smoke obs-overhead envelope-smoke fleet-smoke chaos-smoke \
	chaos-stress docs-check verify-integrity exercised golden-check \
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

# The full paper reproduction (parallel, cached under ~/.cache/repro).
experiments:
	$(PYTHON) -m repro.experiments --save out/

# CI gate: two cheap experiments through the pool path, with the
# watchdog armed and an isolated cache, then validate the run manifest.
# A --resume round trip into another directory then re-runs nothing:
# every entry is preserved, with its archive copied next to the new
# manifest.  Reuse never changes an answer: the experiments that share
# captures, run in one process, archive byte-identical results to each
# run alone in its own process.  Last, fig7, whose Win95 idle traces
# cross about 1,400 idle backgrounds tied with a clock tick, and fig9
# and fig10, whose OLE edits keep a thread busy across thousands of
# clock ticks, archive the same payload digests with fast-forward on and
# off (--no-fast-forward, the slow path; each with --no-cache, since the
# cache key omits the flag).  fig7 and fig10 also have golden records
# outside the golden set, which tests/test_fastforward.py checks on both
# paths.
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
	$(PYTHON) -m repro.experiments --resume $(SMOKE_OUT) \
		--save $(SMOKE_OUT)/resumed --cache-dir $(SMOKE_CACHE) --checks-only
	$(PYTHON) -c "\
	import os; \
	from repro.core.serialize import load_json, manifest_from_dict; \
	m = manifest_from_dict(load_json('$(SMOKE_OUT)/resumed/manifest.json')); \
	assert m['failures'] == 0, m; \
	assert all(e['resumed'] for e in m['experiments']), m; \
	missing = [e['saved'] for e in m['experiments'] \
	           if not os.path.exists('$(SMOKE_OUT)/resumed/%s' % e['saved'])]; \
	assert not missing, missing; \
	print('resume smoke ok: %d entries preserved with their archives' % len(m['experiments']))"
	$(PYTHON) -m repro.experiments $(SHARED_CAPTURES) --jobs 1 --no-cache \
		--save $(SMOKE_OUT)/shared --checks-only
	for id in $(SHARED_CAPTURES); do \
		$(PYTHON) -m repro.experiments $$id --jobs 1 --no-cache \
			--save $(SMOKE_OUT)/alone-$$id --checks-only && \
		cmp $(SMOKE_OUT)/shared/$$id-seed0.json \
			$(SMOKE_OUT)/alone-$$id/$$id-seed0.json || exit 1; \
	done
	@echo "capture reuse smoke ok: $(SHARED_CAPTURES) archive the same in one process as alone"
	$(PYTHON) -m repro.experiments fig7 fig9 fig10 --jobs 1 --no-cache \
		--save $(SMOKE_OUT)/busy --checks-only
	$(PYTHON) -m repro.experiments fig7 fig9 fig10 --jobs 1 --no-cache \
		--no-fast-forward --save $(SMOKE_OUT)/busy-slow --checks-only
	$(PYTHON) -c "\
	from repro.core.serialize import load_json; \
	from repro.verify.golden import payload_digest; \
	ids = ('fig7', 'fig9', 'fig10'); \
	digest = lambda d, e: payload_digest(load_json('$(SMOKE_OUT)/%s/%s-seed0.json' % (d, e))); \
	differ = [e for e in ids if digest('busy', e) != digest('busy-slow', e)]; \
	assert not differ, ('the slow path changed the payload digest', differ); \
	print('fast/slow smoke ok on both paths: ' + ', '.join( \
	      '%s %s' % (e, digest('busy', e)[7:23]) for e in ids))"
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
# transport schedule must replay byte-identically, the quiescent jump
# must cross ticks and leave the schedule the slow path
# (fast-forward off) produces, a network fault
# scenario must compose with the configured link, a traced remote
# session must emit a structurally valid (Perfetto-loadable) trace
# with the per-direction net tracks present, and an archived
# ext-remote run must pass every frontier shape check.
remote-smoke:
	rm -rf $(SMOKE_OUT) $(SMOKE_CACHE)
	$(PYTHON) -c "\
	from repro.obs import observed, chrome_trace, validate_chrome_trace; \
	from repro.remote import LinkConfig, RemoteSession, TransportConfig, run_remote_session; \
	from repro.sim.engine import fast_forward_scope; \
	from repro.winsys import boot; \
	link = LinkConfig.symmetric('smoke', rtt_ms=60.0, jitter_ms=4.0, loss=0.25); \
	runs = [run_remote_session('nt40', 0, link, TransportConfig(), chars=12) for _ in range(2)]; \
	assert runs[0].schedule_digest == runs[1].schedule_digest, 'schedule not byte-identical'; \
	assert runs[0].channel['retransmits'] > 0, runs[0].channel; \
	system = boot('nt40', seed=0); \
	fast = RemoteSession(system, link, TransportConfig()).run(chars=12); \
	assert fast.schedule_digest == runs[0].schedule_digest, 'schedule not byte-identical'; \
	assert system.kernel.ticks_crossed > 0, 'the quiescent jump crossed no tick'; \
	slow_ctx = fast_forward_scope(False); \
	slow_ctx.__enter__(); \
	slow = run_remote_session('nt40', 0, link, TransportConfig(), chars=12); \
	slow_ctx.__exit__(None, None, None); \
	assert slow.schedule_digest == runs[0].schedule_digest, 'the slow path changed the schedule'; \
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
	print('remote smoke ok: digest %s…, %d retransmits, %d ticks crossed, %d trace events' % \
	      (runs[0].schedule_digest[:12], runs[0].channel['retransmits'], \
	       system.kernel.ticks_crossed, len(trace['traceEvents'])))"
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

# CI gate: a session with no live tracer or registry and envelopes off
# binds no hook site, and must stay within 5% of an uninstrumented run
# (see benchmarks/test_obs_overhead.py).
obs-overhead:
	$(PYTHON) -m pytest benchmarks/test_obs_overhead.py -q

# CI gate for the stage-envelope layer: every completed envelope must
# conserve time exactly (stage durations sum to the measured wait, in
# integer nanoseconds), the per-stage Perfetto tracks must pass the
# structural trace validator, and a sweep archived with the stage flags
# on must render the breakdown and budget-alert sections in stats.  The
# same sweep with a live tracer and registry (--trace-out,
# --metrics-out) must record the same stage section: the recorder sees
# the same crossings whoever else listens.
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
	$(PYTHON) -m repro.experiments run fig1 --no-cache --checks-only \
		--save $(SMOKE_OUT)/sinks --stage-sample-rate 1.0 --stage-budget handler=0.1 \
		--trace-out $(SMOKE_OUT)/sinks/trace.json \
		--metrics-out $(SMOKE_OUT)/sinks/metrics.json
	$(PYTHON) -c "\
	from repro.core.serialize import load_json; \
	alone, sinks = (load_json(d + '/manifest.json')['obs'] \
	                for d in ('$(SMOKE_OUT)', '$(SMOKE_OUT)/sinks')); \
	differ = [key for key in ('stages', 'stage_alerts') if sinks.get(key) != alone.get(key)]; \
	assert alone.get('stages') and not differ, ('differs with live sinks', differ); \
	print('envelope sinks ok: same stage section with a live tracer and registry')"
	@echo "envelope smoke ok"
	rm -rf $(SMOKE_OUT)

# CI gate for the fleet layer: a reduced ext-fleet sweep end to end
# through the runner — the manifest must carry the merged-sketch
# provenance, a run observed with sampled stage envelopes must record
# the same fleet digest (fleet sessions ignore the caller's session),
# so must a run on the slow simulation path (--no-fast-forward; its
# own --no-cache, since the cache key omits the flag), the stats
# subcommand must render the fleet block, and the fleet-report verb
# must produce the capacity plan.
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
	$(PYTHON) -m repro.experiments ext-fleet --jobs 1 --stage-sample-rate 0.5 \
		--save $(SMOKE_OUT)/sampled --cache-dir $(SMOKE_CACHE) --checks-only
	$(PYTHON) -c "\
	from repro.core.serialize import load_json; \
	digest = lambda d: load_json(d + '/manifest.json')['experiments'][0]['fleet']['merged_digest']; \
	plain, sampled = digest('$(SMOKE_OUT)'), digest('$(SMOKE_OUT)/sampled'); \
	assert sampled == plain, 'sampled run changed the fleet digest: %s != %s' % (sampled, plain); \
	print('sampled fleet digest ok: %s' % sampled)"
	$(PYTHON) -m repro.experiments ext-fleet --jobs 1 --no-fast-forward \
		--no-cache --save $(SMOKE_OUT)/slow --checks-only
	$(PYTHON) -c "\
	from repro.core.serialize import load_json; \
	digest = lambda d: load_json(d + '/manifest.json')['experiments'][0]['fleet']['merged_digest']; \
	plain, slow = digest('$(SMOKE_OUT)'), digest('$(SMOKE_OUT)/slow'); \
	assert slow == plain, 'the slow path changed the fleet digest: %s != %s' % (slow, plain); \
	print('slow-path fleet digest ok: %s' % slow)"
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

# CI gate for dead code: run the whole production surface under a
# function-level profile hook; every function in the simulator packages
# must run or carry a reason in exercised-allowlist.txt (see
# docs/architecture.md, "Exercised code").  Takes minutes, so the wall
# time is printed.
exercised:
	@start=$$(date +%s); $(PYTHON) -m repro.exercised; status=$$?; \
	echo "exercised: wall time $$(( $$(date +%s) - start )) s"; exit $$status

# Golden-trace regression only (subset of verify-integrity, faster).
golden-check:
	$(PYTHON) -m repro.verify.golden

# Re-bless the golden records after a reviewed, intentional change.
golden-update:
	$(PYTHON) -m repro.verify.golden --update

# The default local verification flow: unit tests, the runner's pool
# path, the measurement-integrity gate, the exercised-code gate, the
# observability gates, the fleet and docs gates, then the
# perf-regression gate.
verify: test experiments-smoke verify-integrity exercised obs-smoke obs-overhead \
	envelope-smoke fleet-smoke chaos-smoke remote-smoke docs-check perf-gate

clean:
	rm -rf $(SMOKE_OUT) $(SMOKE_CACHE) out/ .pytest_cache
	rm -f .bench-raw.json .bench-current.json
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
