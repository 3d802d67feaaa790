"""Benchmarks: the ledger (``python -m benchmarks.ledger``) holds the
metrics of record, and ``benchmarks/gates.py`` the speedup and serve
floors the ledger has no field for.

Being a package lets pytest collect ``benchmarks/ledger/test_ledger.py``
as ``benchmarks.ledger.test_ledger`` and lets the tests import
``benchmarks.gates``.
"""
