"""The repository benchmark: workloads, measurement runner and comparison.

See ``bench/README.md``.  The runner (``python3 -m bench``) never
imports the program; each measured pass runs in a child interpreter
(``bench.child``) with the program's ``src`` on its path.
"""
