"""Concrete problem instances with exact oracle implementations."""

from .congestion import CongestionProblem
from .resource import ResourceProblem
from .traffic import TrafficProblem, load_network, pigou_network, grid_network

PROBLEM_CLASSES = {cls.name: cls for cls in (ResourceProblem, CongestionProblem, TrafficProblem)}

__all__ = [
    "CongestionProblem",
    "ResourceProblem",
    "TrafficProblem",
    "load_network",
    "pigou_network",
    "grid_network",
    "PROBLEM_CLASSES",
]
