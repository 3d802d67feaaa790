"""Performance ledger: the benchmark every performance claim is measured with.

Run it from the repository root::

    python -m benchmarks.ledger [--workload NAME ...] [--seed N] [--json PATH]

See ``benchmarks/ledger/README.md`` for the workloads, the metrics and
how to compare two runs (``python -m benchmarks.ledger.compare``).
"""
