"""Continuous-field order-book model: simulator, stationary theory, analyzers, ingestion."""

__version__ = "0.1.0"
