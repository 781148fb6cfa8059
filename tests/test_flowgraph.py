from collections.abc import Iterator

import numpy as np
import pytest

from aoi_mg11.analytic import SystemConfig, interdeparture_mgf
from aoi_mg11.distributions import Deterministic, Exponential
from aoi_mg11.errors import ParameterDomainError
from aoi_mg11.flowgraph import (
    Q0,
    Q1,
    ClockProbabilities,
    EdgeWeights,
    FlowGraph,
    build_graph,
    clock_probs,
    edge_weights,
    path_enumeration_oracle,
    solve_transfer_by_elimination,
    transfer_function,
)

from conftest import random_system_config

REF = SystemConfig(1.5, (0.5, 0.3, 0.2), Exponential(1.0))
UNIT = EdgeWeights(1.0, 1.0, 1.0, 1.0, 1.0)


def enumerate_paths(g: FlowGraph, max_edges: int) -> Iterator[tuple[float, ...]]:
    """Depth-first enumeration of the edge labels of every source-to-sink path
    with <= max_edges edges whose labels are all nonzero; a zero label is no
    edge, so the paths left out add nothing to the path sum.

    Intended for small depths; the number of paths grows exponentially.
    """
    stack: list[tuple[int, tuple[float, ...]]] = [(Q0, ())]
    while stack:
        node, labels = stack.pop()
        if len(labels) >= max_edges:
            continue
        if g.exit[node]:
            yield labels + (g.exit[node],)
        for dst in np.flatnonzero(g.mat[node]):
            stack.append((dst, labels + (g.mat[node, dst],)))


class TestClockProbs:
    def test_reference_values(self):
        pr = clock_probs(REF, 1)
        assert pr.a == pytest.approx(0.5, abs=1e-12)
        assert pr.u == pytest.approx(0.4, abs=1e-12)
        assert pr.b == pytest.approx(0.3, abs=1e-12)
        assert pr.v == pytest.approx(0.3, abs=1e-12)
        assert pr.z == pytest.approx(0.5, abs=1e-12)

    def test_single_stream_degenerate(self):
        cfg = SystemConfig(1.5, (1.0,), Exponential(1.0))
        pr = clock_probs(cfg, 1)
        assert pr.z == 0.0 and pr.v == 0.0 and pr.a == 1.0
        assert pr.u == pytest.approx(0.4, abs=1e-12)
        assert pr.b == pytest.approx(0.6, abs=1e-12)

    def test_branch_identities(self, rng):
        for _ in range(20):
            cfg = random_system_config(rng)
            for i in range(1, cfg.num_streams + 1):
                pr = clock_probs(cfg, i)
                assert pr.a + pr.z == pytest.approx(1.0, abs=1e-12)
                assert pr.b + pr.u + pr.v == pytest.approx(1.0, abs=1e-12)


class TestTransferFunction:
    def test_unit_weights_give_one(self, rng):
        for _ in range(25):
            a = rng.uniform(0.05, 0.95)
            u = rng.uniform(0.05, 0.95)
            b = a * (1 - u)
            v = (1 - a) * (1 - u)
            pr = ClockProbabilities(a=a, b=b, u=u, v=v, z=1 - a)
            assert transfer_function(UNIT, pr) == pytest.approx(1.0, rel=1e-12)

    def test_matches_interdeparture_mgf(self):
        pr = clock_probs(REF, 1)
        w = edge_weights(REF, -0.5)
        assert transfer_function(w, pr) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_single_stream_reduction(self):
        cfg = SystemConfig(1.5, (1.0,), Exponential(1.0))
        pr = clock_probs(cfg, 1)
        for s in (-0.25, -0.5, -1.0):
            w = edge_weights(cfg, s)
            reduced = pr.u * w.d3 * pr.a * w.d1 / (1.0 - pr.b * w.d2)
            assert transfer_function(w, pr) == pytest.approx(reduced, rel=1e-12)
            assert reduced == pytest.approx(interdeparture_mgf(cfg, 1, s), rel=1e-12)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_pole_where_the_denominator_cancels(self, i):
        # at s = 0 with P(lam) = e^-30 the denominator is the difference of two
        # terms of order 1, about 1e-14 apart and mostly rounding: the route's
        # documented limit
        cfg = SystemConfig(1.5, (0.5, 0.3, 0.2), Deterministic(20.0))
        with pytest.raises(ParameterDomainError, match="^transfer function denominator .* too close to 0$"):
            transfer_function(edge_weights(cfg, 0.0), clock_probs(cfg, i))


def _graph(edges, exits):
    """A FlowGraph from {(src, dst): label} and {src: label to the sink}."""
    mat, exit_vec = np.zeros((4, 4)), np.zeros(4)
    for (src, dst), label in edges.items():
        mat[src, dst] = label
    for src, label in exits.items():
        exit_vec[src] = label
    return FlowGraph(mat=mat, exit=exit_vec)


class TestElimination:
    def test_single_path_graph(self):
        g = _graph({(Q0, Q1): 1.0}, {Q1: 1.0})
        assert solve_transfer_by_elimination(g) == pytest.approx(1.0, abs=1e-15)

    def test_matches_closed_form(self):
        pr = clock_probs(REF, 1)
        w = edge_weights(REF, -0.5)
        g = build_graph(pr, w)
        assert solve_transfer_by_elimination(g) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_divergent_self_loop_is_singular(self):
        # b*D2 = 1 with v = 0: the q1 self-loop geometric series diverges
        g = _graph({(Q0, Q1): 0.5, (Q1, Q1): 1.0}, {Q1: 0.5})
        with pytest.raises(ParameterDomainError, match=r"^flow-graph system is ill-conditioned \(cond=inf\)$"):
            solve_transfer_by_elimination(g)

    @pytest.mark.parametrize("nodes", [2, 3, 5])
    def test_any_node_count(self, nodes, rng):
        # random substochastic graphs, edges into the source included: the
        # node equations against the path sum sum_k (W^k t)[source], whose
        # terms shrink by a factor of at most 0.9 a step
        for _ in range(20):
            labels = rng.uniform(0.0, 1.0, (nodes, nodes + 1))
            labels *= rng.uniform(0.3, 0.9, (nodes, 1)) / labels.sum(axis=1, keepdims=True)
            g = FlowGraph(mat=labels[:, :nodes], exit=labels[:, nodes])
            v, total = np.eye(nodes)[Q0], 0.0
            for _ in range(500):
                total += v @ g.exit
                v = v @ g.mat
            assert solve_transfer_by_elimination(g) == pytest.approx(total, rel=1e-12)


class TestPathEnumeration:
    def test_reference_value_and_bound(self):
        pr = clock_probs(REF, 1)
        w = edge_weights(REF, -0.5)
        value, bound = path_enumeration_oracle(pr, w, max_edges=64)
        assert bound < 1e-8
        assert abs(value - 1.0 / 3.0) <= bound + 1e-12

    def test_shortest_path_only(self):
        cfg = SystemConfig(1.5, (1.0,), Exponential(1.0))
        pr = clock_probs(cfg, 1)
        w = edge_weights(cfg, -0.5)
        value, _ = path_enumeration_oracle(pr, w, max_edges=2)
        assert value == pytest.approx(pr.a * pr.u * w.d1 * w.d3, rel=1e-14)

    def test_total_probability_at_s_zero(self):
        pr = clock_probs(REF, 1)
        value, bound = path_enumeration_oracle(pr, UNIT, max_edges=60)
        assert abs(value - 1.0) <= bound + 1e-12
        assert bound < 1e-3

    def test_path_counts(self):
        pr = clock_probs(REF, 1)
        g = build_graph(pr, UNIT)
        paths = list(enumerate_paths(g, 3))
        assert sum(1 for p in paths if len(p) == 2) == 1
        assert sum(1 for p in paths if len(p) == 3) == 2

    def test_dfs_agrees_with_length_aggregated_sum(self):
        pr = clock_probs(REF, 1)
        w = edge_weights(REF, -0.5)
        g = build_graph(pr, w)
        for depth in (2, 4, 6, 8):
            brute = sum(np.prod(p) for p in enumerate_paths(g, depth))
            value, _ = path_enumeration_oracle(pr, w, max_edges=depth)
            assert value == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("depth", [3, 5, 7, 9, 11])
    def test_doubling_matches_brute_force_off_powers_of_two(self, depth):
        pr = clock_probs(REF, 3)
        w = edge_weights(REF, -0.25)
        brute = sum(np.prod(p) for p in enumerate_paths(build_graph(pr, w), depth))
        value, _ = path_enumeration_oracle(pr, w, max_edges=depth)
        assert value == pytest.approx(brute, rel=1e-13)

    @pytest.mark.parametrize("i, s", [(1, 0.0), (3, 0.0), (3, -0.5), (2, -1.0)])
    def test_doubling_matches_step_by_step_sum(self, i, s):
        # sum_{k<n} start W^k t, one product a step, with |W| for the tail
        pr = clock_probs(REF, i)
        w = edge_weights(REF, s)
        g = build_graph(pr, w)
        mat, exit_vec = g.mat, g.exit
        v = np.eye(4)[Q0]
        v_abs = v.copy()
        total = 0.0
        for _ in range(1000):
            total += v @ exit_vec
            v = v @ mat
            v_abs = v_abs @ np.abs(mat)
        tail = v_abs @ np.linalg.solve(np.eye(4) - np.abs(mat), np.abs(exit_vec))
        value, bound = path_enumeration_oracle(pr, w, max_edges=1000)
        assert value == pytest.approx(total, rel=1e-14)
        assert bound == pytest.approx(tail, rel=1e-14)
        assert 0.0 < bound

    def test_astronomical_depth(self):
        pr = clock_probs(REF, 3)
        value, bound = path_enumeration_oracle(pr, UNIT, max_edges=1 << 40)
        assert np.isfinite(value) and np.isfinite(bound)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_divergence_detected(self):
        pr = clock_probs(REF, 1)
        big = EdgeWeights(3.0, 3.0, 3.0, 3.0, 3.0)
        with pytest.raises(ParameterDomainError, match=r"^path sum tail does not converge \(spectral radius "):
            path_enumeration_oracle(pr, big, max_edges=10)

    def test_max_edges_precondition(self):
        pr = clock_probs(REF, 1)
        with pytest.raises(ParameterDomainError):
            path_enumeration_oracle(pr, UNIT, max_edges=1)


class TestFourWayAgreement:
    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize("s, expected", [(0.0, 1.0), (-0.5, 0.5)])
    def test_service_that_always_beats_the_arrival(self, i, s, expected):
        # P(lam) == 1.0 in floats: b = v = 0, and edge_weights sets D2 = D4 = 1
        cfg = SystemConfig(1.0, (0.5, 0.5), Deterministic(1e-20))
        assert cfg.service_beats_arrival() == 1.0
        pr, w = clock_probs(cfg, i), edge_weights(cfg, s)
        assert pr.b == pr.v == 0.0 and w.d2 == w.d4 == 1.0
        value, bound = path_enumeration_oracle(pr, w, max_edges=4096)
        assert bound == 0.0
        routes = (
            interdeparture_mgf(cfg, i, s),
            transfer_function(w, pr),
            solve_transfer_by_elimination(build_graph(pr, w)),
            value,
        )
        assert routes == pytest.approx((expected,) * 4, rel=1e-15)

    def test_random_configs(self, rng):
        for _ in range(20):
            cfg = random_system_config(rng)
            for i in range(1, cfg.num_streams + 1):
                pr = clock_probs(cfg, i)
                for s in (0.0, -0.25, -0.5, -1.0):
                    ref = interdeparture_mgf(cfg, i, s)
                    w = edge_weights(cfg, s)
                    assert transfer_function(w, pr) == pytest.approx(ref, rel=1e-10)
                    assert solve_transfer_by_elimination(build_graph(pr, w)) == pytest.approx(
                        ref, rel=1e-10
                    )
                    value, bound = path_enumeration_oracle(pr, w, max_edges=2048)
                    assert abs(value - ref) <= bound + 1e-10 * abs(ref)

    def test_graph_shape(self):
        pr = clock_probs(REF, 1)
        g = build_graph(pr, UNIT)
        # no edge into the source, an exit only from Q1, ten edges in all
        assert not g.mat[:, Q0].any()
        assert np.flatnonzero(g.exit).tolist() == [Q1]
        assert np.count_nonzero(g.mat) + np.count_nonzero(g.exit) == 10
