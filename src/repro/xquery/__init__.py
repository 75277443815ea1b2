"""Pathfinder-style XQuery front-end: parser, planner, closure codegen, engine."""

from .ast import Module
from .engine import (EngineOptions, MonetXQuery, PlanCacheStats,
                     PreparedQuery, QueryResult)
from .parser import parse, parse_expression
from .planner import ModulePlan, plan_expression, plan_module
from .updates import XMLUpdater

__all__ = [
    "EngineOptions",
    "Module",
    "ModulePlan",
    "MonetXQuery",
    "PlanCacheStats",
    "PreparedQuery",
    "QueryResult",
    "XMLUpdater",
    "parse",
    "parse_expression",
    "plan_expression",
    "plan_module",
]
