"""Simultaneous long-short feedback trading.

Closed-form gain functions for the generalized long-short controller,
geometric Brownian motion price analytics, target-tracking parameter
search and a multi-series backtest pipeline.
"""

from . import backtest, gbm, optimizer, strategy
from .backtest import *  # noqa: F403
from .gbm import *  # noqa: F403
from .optimizer import *  # noqa: F403
from .strategy import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted({*backtest.__all__, *gbm.__all__, *optimizer.__all__, *strategy.__all__})
