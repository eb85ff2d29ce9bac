"""Reference implementations the equivalence tests and benchmarks compare against.

Importable as ``tests.oracles`` from both ``tests/`` and ``benchmarks/``
(pytest puts the repository root on ``sys.path`` through the root
``conftest.py``).
"""
