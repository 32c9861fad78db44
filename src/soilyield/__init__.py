"""Soil-nutrient regression toolkit.

Predicts leaf yield from tabular soil measurements with three model
families (multiple linear regression, ridge regression, random forest)
behind a deterministic, fully seeded pipeline.
"""

__version__ = "0.1.0"
