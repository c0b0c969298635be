"""Adaptive-shield specification compiler and simulation runtime."""

__version__ = "0.1.0"
