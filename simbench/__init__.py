"""Simulator benchmark package (see run.py)."""
