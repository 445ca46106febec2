#!/usr/bin/env python3
"""Tree and boosting families: composite sweeps and ensemble fold-back."""
from __future__ import annotations

import sys

from smootherlab.cli import run_steps

EXTRA = sys.argv[1:]

STEPS = [
    ["sweep", "--out", "runs/tree/sweep", "--set", "family=tree", "--svg"],
    ["back-to-u", "--out", "runs/tree/back_to_u", "--set", "family=tree", "--svg"],
    ["sweep", "--out", "runs/boost/sweep", "--set", "family=boosting", "--svg"],
    ["back-to-u", "--out", "runs/boost/back_to_u", "--set", "family=boosting",
     "--svg"],
    ["select", "--out", "runs/boost/select"],
]

if __name__ == "__main__":
    run_steps(STEPS, EXTRA)
