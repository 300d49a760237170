# Convenience targets for the reproduction workflow.

PYTHON ?= python3

.PHONY: install test bench examples outputs clean

install:
	$(PYTHON) -m pip install -e .

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; done

# The final artefacts EXPERIMENTS.md points at.
outputs:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache .hypothesis test_output.txt bench_output.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
