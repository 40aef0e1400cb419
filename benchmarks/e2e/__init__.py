"""End-to-end benchmark: four whole-deployment workloads, per-layer attribution.

See ``README.md`` in this directory.  Entry points::

    PYTHONPATH=src python -m benchmarks.e2e [--seed 7] [--repeats 3]
        [--workload NAME] [--quick] [--output FILE]
    python -m benchmarks.e2e compare A.json B.json
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
"""
