"""Sweep schedules, family adapters and diagnostic studies."""
