"""Uncertainty-adaptive endpoint sampling and evaluation for trajectory-prediction heatmaps."""

__version__ = "0.1.0"
