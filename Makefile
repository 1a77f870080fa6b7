# Developer conveniences for the ABS reproduction.

.PHONY: install test test-fast test-process test-backends test-exchange test-analysis test-diverse test-service analyze docs-check lint check bench bench-full bench-exchange bench-service bench-sparse bench-list bench-e2e bench-e2e-smoke bench-compare trace-demo examples clean

install:
	pip install -e .[test]

test:
	pytest tests/

test-fast:              ## skip the slow example subprocess smoke tests
	pytest tests/ --ignore=tests/integration/test_examples.py

test-process:           ## only the multiprocessing (worker supervision) tests
	pytest -m process tests/

test-backends:          ## backend suite: as-installed, with the C compiler masked (plus the determinism contracts and the sync ledger, so the default auto backend is run on its numpy path too), then twice on one fresh TMPDIR (compile, then load from the kernel cache)
	pytest tests/backends -q
	REPRO_NO_CC=1 pytest tests/backends tests/test_determinism.py tests/abs/test_sync_ledger.py \
		tests/abs/test_transport_determinism.py tests/service/test_service_determinism.py -q
	tmp=$$(mktemp -d) && TMPDIR=$$tmp pytest tests/backends -q && TMPDIR=$$tmp pytest tests/backends -q; \
		rc=$$?; rm -rf "$$tmp"; exit $$rc

test-exchange:          ## exchange + process suites on the shm rings
	pytest -m "exchange_shm or process" tests/ -q

test-analysis:          ## static-analyzer + interleaving-explorer suite
	PYTHONPATH=src pytest -m analysis tests/

test-diverse:           ## Diverse-ABS suite: niched pool + variant fleet + controller
	PYTHONPATH=src pytest -m diverse tests/

test-service:           ## warm-fleet solver service: queue, cache, re-arm, determinism
	PYTHONPATH=src pytest -m service tests/

analyze:                ## project-invariant lint + exhaustive seqlock/SPSC + service-lifecycle race check
	PYTHONPATH=src python -m repro analyze --interleave

docs-check:             ## validate doc links + CLI examples against the live parser
	PYTHONPATH=src python -m repro.analysis.docscheck

lint: analyze           ## analyze, then ruff/mypy when installed (pip install -e .[lint])
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests benchmarks; \
		else echo "ruff not installed -- skipped (pip install -e .[lint])"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy; \
		else echo "mypy not installed -- skipped (pip install -e .[lint])"; fi

check: docs-check       ## the full static gate: ruff/mypy (when installed) + docs + analyzer at warning threshold + shallow interleave
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests benchmarks; \
		else echo "ruff not installed -- skipped (pip install -e .[lint])"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy; \
		else echo "mypy not installed -- skipped (pip install -e .[lint])"; fi
	PYTHONPATH=src python -m repro analyze --fail-on warning
	PYTHONPATH=src python -m repro analyze --interleave --interleave-depth 4 --fail-on warning

bench:                  ## reduced-scale: regenerates every paper table/figure
	pytest benchmarks/ --benchmark-only

bench-full:             ## full instance lists (minutes to hours)
	REPRO_FULL=1 pytest benchmarks/ --benchmark-only

bench-exchange:         ## host-side exchange + GA hot-path speedup (Figure 5 rings)
	pytest benchmarks/bench_exchange.py -q

bench-service:          ## warm fleet vs cold one-shot jobs/sec + cache hits -> BENCH_service.json
	pytest benchmarks/bench_service.py -q

bench-sparse:           ## CSR kernels: flips/s at fixed degree stays flat from n=2000 to n=20000 (the per-flip cost guard CI runs)
	pytest benchmarks/bench_ablation_sparse.py -q

bench-e2e:              ## repository benchmark, all four workloads (extra flags via ARGS="--workload W --out F")
	python -m benchmarks.e2e run $(ARGS)

bench-e2e-smoke:        ## repository benchmark at tiny size, untraced and traced: every metric emitted, answers checked, tracing changes no answer (the only check of the methods the e2e tracer wraps)
	python -m pytest benchmarks/e2e -q

bench-compare:          ## compare two e2e result files against the BENCHMARK.json bounds: A=old.json B=new.json (FILE#SET works)
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-compare A=<results.json[#set]> B=<results.json[#set]>"; exit 2; }
	python -m benchmarks.e2e compare "$(A)" "$(B)"

bench-list:             ## list benchmark artifacts (canonical home: benchmarks/results/)
	@ls -1 benchmarks/results/BENCH_*.json 2>/dev/null || echo "no artifacts yet -- run make bench (writes benchmarks/results/BENCH_<name>.json)"

trace-demo:             ## traced solve + schema validation of the JSONL trace
	PYTHONPATH=src python -m repro random 96 /tmp/abs-trace-demo.qubo --seed 7
	PYTHONPATH=src python -m repro solve /tmp/abs-trace-demo.qubo --rounds 12 --blocks 8 \
		--adapt --seed 7 --trace-out /tmp/abs-trace-demo.jsonl --log-level info
	PYTHONPATH=src python -m repro trace /tmp/abs-trace-demo.jsonl

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

clean:                  ## build/test leftovers only: never a committed path (benchmarks/results/ is evidence)
	rm -rf build dist *.egg-info .pytest_cache benchmarks/e2e/.work
	find . -name __pycache__ -type d -exec rm -rf {} +
