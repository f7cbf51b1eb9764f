"""Spatial graph substrates: road network, transit network, shortest paths.

The paper's two graph layers (Definitions 1 and 2) are implemented here:

* :class:`~repro.network.road.RoadNetwork` — the street graph carrying
  trajectory demand ``f_e`` per road edge.
* :class:`~repro.network.transit.TransitNetwork` — bus stops affiliated
  with road vertices, transit edges carrying their underlying road path,
  and routes as stop sequences.
"""

from repro.network.adjacency import AdjacencyBuilder, adjacency_matrix
from repro.network.flow import FlowNetwork, edge_connectivity, local_edge_connectivity
from repro.network.geometry import (
    angle_between_bearings,
    bearing,
    euclidean,
    haversine_km,
    turn_angle,
)
from repro.network.paths import count_turns, is_simple_stop_sequence, polyline_length
from repro.network.road import RoadNetwork
from repro.network.shortest_path import (
    dijkstra,
    reconstruct_edge_path,
    reconstruct_vertex_path,
    shortest_path,
)
from repro.network.transit import Route, TransitNetwork

__all__ = [
    "AdjacencyBuilder",
    "adjacency_matrix",
    "FlowNetwork",
    "edge_connectivity",
    "local_edge_connectivity",
    "angle_between_bearings",
    "bearing",
    "euclidean",
    "haversine_km",
    "turn_angle",
    "count_turns",
    "is_simple_stop_sequence",
    "polyline_length",
    "RoadNetwork",
    "dijkstra",
    "reconstruct_edge_path",
    "reconstruct_vertex_path",
    "shortest_path",
    "Route",
    "TransitNetwork",
]
