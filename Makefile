# Convenience targets for the FINGERS reproduction.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: install test test-fast bench bench-cli bench-sweep bench-engine examples clean loc lint chaos check

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-cli:
	$(PYTHON) -m repro bench

# Declarative sweep -> result store -> markdown/HTML report
# (docs/BENCHMARKS.md).  Resumable: a warm re-run executes zero cells.
bench-sweep:
	$(PYTHON) -m repro exp run examples/sweeps/smoke.toml
	$(PYTHON) -m repro exp report smoke

# Engine comparison: frontier vs recursive vs legacy on the dense
# benchmark graph; rows land in the store under run "engine-frontier"
# and the report's policy-speedup table shows the ratios
# (docs/KERNELS.md, "Frontier engine").
bench-engine:
	$(PYTHON) -m repro exp run examples/sweeps/engine_frontier.toml
	$(PYTHON) -m repro exp report engine-frontier

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/social_motif_census.py
	$(PYTHON) examples/clique_communities.py
	$(PYTHON) examples/design_space_exploration.py
	$(PYTHON) examples/trace_and_validate.py
	$(PYTHON) examples/software_vs_hardware.py
	$(PYTHON) examples/run_sweep.py

# Static analysis: the in-tree linter + plan verifier always run; ruff
# and mypy run only where installed (the container image does not ship
# them — CI installs both).
lint:
	$(PYTHON) -m repro lint
	$(PYTHON) -m repro lint-plan --all
	@command -v ruff >/dev/null 2>&1 \
		&& ruff check src tests \
		|| echo "ruff not installed; skipping"
	@command -v mypy >/dev/null 2>&1 \
		&& mypy --config-file pyproject.toml \
		|| echo "mypy not installed; skipping"

# Chaos gate: the smoke sweep under ~30% injected shard crashes plus
# transient faults must exit 0, match the fault-free run bit for bit,
# and show nonzero retry counters (docs/RESILIENCE.md).
chaos:
	$(PYTHON) -m pytest tests/chaos -x -q

check: test-fast lint chaos

# Python line counts: src/ alone (ROADMAP's size figure), then the total
# over src, tests, benchmarks and examples.
loc:
	@echo "src $$(find src -name '*.py' -exec cat {} + | wc -l)"
	@echo "total $$(find src tests benchmarks examples -name '*.py' -exec cat {} + | wc -l)"

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
