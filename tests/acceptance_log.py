"""Lines printed by the acceptance suite, echoed again in the terminal summary.

A module of its own rather than a name in conftest.py: perfbench/tests has a
conftest.py too, so `import conftest` is ambiguous in a pytest run that
collects both directories.
"""

acceptance_lines: list[str] = []
