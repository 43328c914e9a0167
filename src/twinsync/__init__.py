"""Lockstep digital-twin simulator for k-coverage drone swarms.

A "physical" world (with injected threats) and its twin advance step by
step in one process; pluggable checkers watch for divergence and trigger
twin resynchronization. The analysis layer scores runs on the deviation
versus update-count trade-off.
"""

__version__ = "0.1.0"
