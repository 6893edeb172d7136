"""Self-tests of the benchmark (not in the tier-1 ``testpaths``):
``PYTHONPATH=src python -m pytest bench/tests -q``."""
