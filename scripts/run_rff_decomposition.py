#!/usr/bin/env python3
"""Random-feature linear models: composite sweep, moving peaks, fold-back.

Thin wrapper over the CLI so the run is reproducible from the shell verbatim.
Desk scale by default; pass --full-scale for the large preset (slow).
"""
from __future__ import annotations

import sys

from smootherlab.cli import run_steps

EXTRA = sys.argv[1:]  # e.g. --full-scale or --threads 8

STEPS = [
    ["sweep", "--out", "runs/rff/sweep", "--svg"],
    ["peaks", "--out", "runs/rff/peaks", "--svg"],
    ["back-to-u", "--out", "runs/rff/back_to_u", "--svg"],
]

if __name__ == "__main__":
    run_steps(STEPS, ["--set", "family=rff_linear"] + EXTRA)
