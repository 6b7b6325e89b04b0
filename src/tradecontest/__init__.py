"""Deterministic multi-agent trading contest engine and daily backtester."""

__version__ = "0.1.0"
