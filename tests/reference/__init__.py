"""Legible test-only reference implementations of optimized models."""
