"""Data layer: synthetic city generation and on-disk formats.

The paper builds on DIMACS road graphs, NYC/Chicago taxi trip records and
bus-route shapefiles — none of which is available offline. The
:mod:`repro.data.synth` generator produces city-like substitutes with the
statistics the algorithms actually consume;
:mod:`repro.data.dimacs`, :mod:`repro.data.gtfs`, and
:mod:`repro.data.tripcsv` load/store real data when it is available.
"""

from repro.data.datasets import (
    Dataset,
    borough_like,
    build_dataset,
    chicago_like,
    list_profiles,
    nyc_like,
)
from repro.data.dimacs import read_dimacs, write_dimacs
from repro.data.gtfs import read_gtfs, write_gtfs
from repro.data.synth import SynthConfig, generate_road_network, generate_transit_network, generate_trips
from repro.data.tripcsv import read_trips_csv, write_trips_csv

__all__ = [
    "Dataset",
    "borough_like",
    "build_dataset",
    "chicago_like",
    "list_profiles",
    "nyc_like",
    "read_dimacs",
    "write_dimacs",
    "read_gtfs",
    "write_gtfs",
    "SynthConfig",
    "generate_road_network",
    "generate_transit_network",
    "generate_trips",
    "read_trips_csv",
    "write_trips_csv",
]
