"""Frozen copy of the numerical modules of mlharq at commit 1adad113f3b6.

The benchmark checks the outputs of the package under test against this
copy: scatter-eval probabilities and throughputs, and mc-oracle reports.
The four modules are byte-for-byte the files of that commit; this package
file is the only addition, and it imports nothing so that the copy loads
without the optimizer, sweep and CLI modules.  The copy is committed,
not extracted from git history, because the benchmark must also run in an
exported tree that has no history.  Pass --ref-commit to run.py to take
the references from another commit of a git checkout instead.
"""
