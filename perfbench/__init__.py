"""Wall-clock benchmark of the repro package (see run.py)."""
