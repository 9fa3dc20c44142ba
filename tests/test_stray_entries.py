"""Coordinates without an edge: the constructors' fill check and its cost.

A rate matrix holds exactly 1 and a log matrix exactly 0 wherever the graph
has no edge; loops and both orientations of every edge may hold anything.
"""

import tracemalloc

import numpy as np
import pytest

from arbx import (
    BadParamsError,
    LogRateMatrix,
    RateMatrix,
    check_antisymmetry,
    generate_graph,
    new_graph,
)
from helpers import random_log_matrix

PATH = new_graph(4, [(1, 2), (2, 3), (3, 4), (2, 2)])


class TestStrayCoordinateIsNamed:
    def test_log_matrix(self):
        arr = np.zeros((4, 4))
        arr[3, 0] = 0.5
        arr[0, 2] = 0.25  # (1, 3) comes first in row-major order
        with pytest.raises(BadParamsError, match=r"exactly 0; \(1, 3\) holds 0\.25$"):
            LogRateMatrix(PATH, arr)

    def test_rate_matrix(self):
        arr = np.ones((4, 4))
        arr[3, 1] = 2.5
        with pytest.raises(BadParamsError, match=r"exactly 1; \(4, 2\) holds 2\.5$"):
            RateMatrix(PATH, arr)


class TestEdgeCoordinatesAreFree:
    @pytest.mark.parametrize("i,j", [(1, 2), (2, 1), (2, 2)])
    def test_one_coordinate(self, i, j):
        arr = np.zeros((4, 4))
        arr[i - 1, j - 1] = 0.5
        assert LogRateMatrix(PATH, arr).value(i, j) == 0.5
        assert RateMatrix(PATH, np.exp(arr)).rate(i, j) == np.exp(0.5)

    def test_loop_without_edge_is_stray(self):
        arr = np.zeros((4, 4))
        arr[2, 2] = 0.5
        with pytest.raises(BadParamsError, match=r"\(3, 3\) holds 0\.5$"):
            LogRateMatrix(PATH, arr)

    def test_antisymmetry_reports_loops_and_edges_not_strays(self):
        arr = np.zeros((4, 4))
        arr[1, 1] = 0.5
        arr[2, 1] = 0.25
        e = LogRateMatrix(PATH, arr)
        assert [v.pair for v in check_antisymmetry(e)] == [(2, 2), (2, 3)]


def test_construction_memory_is_one_matrix():
    # the copy the matrix keeps is n^2 floats; the check adds an n^2 bool mask
    n = 2000
    g = generate_graph("pa", n, m=3, seed=1)
    arr = np.array(random_log_matrix(g, 1).entries)
    rates = np.exp(arr)
    LogRateMatrix(g, arr)  # warm the graph's cached properties
    for build, entries in [(LogRateMatrix, arr), (RateMatrix, rates)]:
        tracemalloc.start()
        try:
            build(g, entries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8, (build.__name__, peak)
