"""Unit tests for DIMACS, GTFS-lite, and trip-CSV IO round trips."""

import os

import pytest

from repro.data.dimacs import read_dimacs, write_dimacs
from repro.data.gtfs import read_gtfs, write_gtfs
from repro.data.tripcsv import read_trips_csv, write_trips_csv
from repro.trajectory.trips import TripRecord
from repro.utils.errors import DataError, ValidationError


class TestDimacs:
    def test_roundtrip(self, tiny_dataset, tmp_path):
        road = tiny_dataset.road
        gr = str(tmp_path / "city.gr")
        co = str(tmp_path / "city.co")
        write_dimacs(road, gr, co)
        back = read_dimacs(gr, co)
        assert back.n_vertices == road.n_vertices
        assert back.n_edges == road.n_edges
        # Lengths survive within the metre quantization.
        for eid in range(road.n_edges):
            assert back.edge_length(eid) == pytest.approx(
                road.edge_length(eid), abs=1e-3
            )
        # Coordinates survive within the micro-degree quantization.
        assert back.coords == pytest.approx(road.coords, abs=1e-5)

    def test_graph_only(self, tiny_dataset, tmp_path):
        gr = str(tmp_path / "g.gr")
        write_dimacs(tiny_dataset.road, gr)
        back = read_dimacs(gr)
        assert back.n_edges == tiny_dataset.road.n_edges
        assert (back.coords == 0).all()

    def test_missing_file(self):
        with pytest.raises(DataError):
            read_dimacs("/nonexistent/file.gr")

    def test_malformed_problem_line(self, tmp_path):
        p = tmp_path / "bad.gr"
        p.write_text("p wrong 3 3\na 1 2 5\n")
        with pytest.raises(DataError):
            read_dimacs(str(p))

    def test_no_problem_line(self, tmp_path):
        p = tmp_path / "bad2.gr"
        p.write_text("c only a comment\n")
        with pytest.raises(DataError):
            read_dimacs(str(p))


class TestGtfs:
    def test_roundtrip(self, tiny_dataset, tmp_path):
        transit = tiny_dataset.transit
        gtfs_dir = str(tmp_path / "gtfs")
        write_gtfs(transit, gtfs_dir)
        for name in ("stops.txt", "routes.txt", "trips.txt", "stop_times.txt"):
            assert os.path.exists(os.path.join(gtfs_dir, name))
        back = read_gtfs(gtfs_dir)
        assert back.n_stops == transit.n_stops
        assert back.n_routes == transit.n_routes
        for r_old, r_new in zip(transit.routes, back.routes):
            assert r_old.stops == r_new.stops
        assert back.stop_coords == pytest.approx(transit.stop_coords, abs=1e-5)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataError):
            read_gtfs(str(tmp_path / "nope"))

    def test_unknown_stop_reference(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "stops.txt").write_text("stop_id,stop_name,stop_lon,stop_lat\n0,s,0,0\n")
        (d / "routes.txt").write_text("route_id,route_short_name,route_type\nr1,R1,3\n")
        (d / "trips.txt").write_text("route_id,trip_id\nr1,t1\n")
        (d / "stop_times.txt").write_text(
            "trip_id,stop_sequence,stop_id\nt1,0,0\nt1,1,MISSING\n"
        )
        with pytest.raises(DataError):
            read_gtfs(str(d))


class TestTripCsv:
    def test_roundtrip(self, tmp_path):
        trips = [TripRecord(0, 5, 1.25, 4.5), TripRecord(3, 2, 0.8, 2.0)]
        path = str(tmp_path / "trips.csv")
        write_trips_csv(trips, path)
        back = read_trips_csv(path)
        assert back == trips

    def test_missing_file(self):
        with pytest.raises(DataError):
            read_trips_csv("/nonexistent/trips.csv")

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("pickup_vertex,dropoff_vertex\n1,2\n")
        with pytest.raises(DataError):
            read_trips_csv(str(p))

    @pytest.mark.parametrize(
        "row, field", [("0,1,nan,5", "distance_km"), ("0,1,1,inf", "duration_min")]
    )
    def test_non_finite_row_refused_naming_the_field(self, tmp_path, row, field):
        # Such a record used to load and then be dropped by the demand
        # aggregation without a word.
        p = tmp_path / "trips.csv"
        p.write_text("pickup_vertex,dropoff_vertex,distance_km,duration_min\n" + row + "\n")
        with pytest.raises(ValidationError, match=f"^{field} must be finite"):
            read_trips_csv(str(p))
