#!/usr/bin/env python3
"""Side studies: design conditioning, fixed-design equivalence, analytic
bias/variance against Monte Carlo, and effective-parameter reports."""
from __future__ import annotations

import sys

from smootherlab.cli import main

EXTRA = sys.argv[1:]

STEPS = [
    ["cond-study", "--out", "runs/diagnostics/conditioning"],
    ["fixed-design", "--out", "runs/diagnostics/fixed_design"],
    ["bias-variance", "--out", "runs/diagnostics/bias_variance"],
    ["bias-variance", "--out", "runs/diagnostics/bias_variance_knn",
     "--set", "model.kind=knn", "--set", "model.k=5"],
    ["bias-variance", "--out", "runs/diagnostics/bias_variance_minnorm",
     "--set", "model.kind=minnorm"],
    ["effparams", "--out", "runs/diagnostics/effparams"],
]

if __name__ == "__main__":
    for step in STEPS:
        code = main(step + EXTRA)
        if code != 0:
            sys.exit(code)
