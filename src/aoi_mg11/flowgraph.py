"""Semi-Markov chain of the interdeparture time and its detour flow graph.

The chain tracks whether the server is idle or busy and whether the packet in
service belongs to the tagged stream. Each transition carries a branch
probability (a, b, u, v, z) and, in the flow graph, an MGF edge weight
(D1..D5). The source-to-sink transfer function of the weighted graph equals
the interdeparture-time MGF; this module computes it three independent ways:

  * the closed-form rational expression,
  * direct elimination on the flow graph's node equations,
  * a truncated sum over source-to-sink paths with a verified tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import SystemConfig, clock_mgf_A, clock_mgf_B, system_time_mgf
from .errors import ParameterDomainError

__all__ = [
    "ClockProbabilities",
    "EdgeWeights",
    "FlowGraph",
    "clock_probs",
    "edge_weights",
    "build_graph",
    "transfer_function",
    "solve_transfer_by_elimination",
    "path_enumeration_oracle",
]

# transient nodes, as indices into FlowGraph.mat and FlowGraph.exit: idle /
# busy with the tagged stream / busy with another stream / idle after a
# foreign delivery; the sink (a tagged delivery) has no index
Q0, Q1, Q1P, Q0P = range(4)


@dataclass(frozen=True)
class ClockProbabilities:
    """Branch probabilities out of the chain's states, from a checked SystemConfig (clock_probs)."""

    a: float
    b: float
    u: float
    v: float
    z: float


@dataclass(frozen=True)
class EdgeWeights:
    """MGF values of the five clock variables at a fixed argument s."""

    d1: float
    d2: float
    d3: float
    d4: float
    d5: float

    def __post_init__(self):
        if any(not math.isfinite(x) for x in (self.d1, self.d2, self.d3, self.d4, self.d5)):
            raise ParameterDomainError("edge weights must be finite")


def clock_probs(cfg: SystemConfig, i: int) -> ClockProbabilities:
    """Branch probabilities when stream i is the tagged stream."""
    lam = cfg.total_rate
    li = cfg.stream_rate(i)
    p = cfg.service_beats_arrival()
    a, z = li / lam, (lam - li) / lam
    return ClockProbabilities(a=a, b=a * (1.0 - p), u=p, v=z * (1.0 - p), z=z)


def edge_weights(cfg: SystemConfig, s: float) -> EdgeWeights:
    """Clock MGFs at s: D1=E[e^{sA}], D2=E[e^{sB}], D3=E[e^{sU}], D4=E[e^{sV}], D5=E[e^{sZ}].

    A and Z share one law, as do B and V; U is distributed as the system time.
    Where every service beats the next arrival in floats (P(lam) == 1.0, e.g.
    Deterministic(1e-20) at lam = 1), the B/V clocks never fire (b = v = 0)
    and their weight is set to 1.
    """
    d1 = clock_mgf_A(cfg, s)
    d3 = system_time_mgf(cfg, s)
    p = cfg.service_beats_arrival()
    d2 = clock_mgf_B(cfg, s) if p < 1.0 else 1.0
    return EdgeWeights(d1=d1, d2=d2, d3=d3, d4=d2, d5=d1)


@dataclass(frozen=True, eq=False)
class FlowGraph:
    """The detour flow graph as matrices over the transient nodes Q0, Q1, Q1P, Q0P.

    mat[i, j] is the label of the edge i -> j and exit[i] that of the edge
    i -> sink; a zero entry is no edge.
    """

    mat: np.ndarray
    exit: np.ndarray


def build_graph(pr: ClockProbabilities, w: EdgeWeights) -> FlowGraph:
    """The ten labeled edges of the detour flow graph."""
    ad1, bd2, ud3, vd4, zd5 = pr.a * w.d1, pr.b * w.d2, pr.u * w.d3, pr.v * w.d4, pr.z * w.d5
    mat = np.array(
        [
            [0.0, ad1, zd5, 0.0],  # Q0
            [0.0, bd2, vd4, 0.0],  # Q1
            [0.0, bd2, vd4, ud3],  # Q1P
            [0.0, ad1, zd5, 0.0],  # Q0P
        ]
    )
    return FlowGraph(mat=mat, exit=np.array([0.0, ud3, 0.0, 0.0]))


def transfer_function(w: EdgeWeights, pr: ClockProbabilities) -> float:
    """Closed-form source-to-sink transfer function of the detour flow graph."""
    a, b, u, v, z = pr.a, pr.b, pr.u, pr.v, pr.z
    d1, d2, d3, d4, d5 = w.d1, w.d2, w.d3, w.d4, w.d5
    num = u * d3 * (b * d2 * z * d5 + a * d1 - a * d1 * v * d4)
    left, right = (1.0 - b * d2) * (1.0 - u * d3 * z * d5), v * d4 * (1.0 + u * d3 * a * d1)
    den = left - right
    # relative to the two terms: below this, den is mostly their rounding error
    if abs(den) <= 1e-12 * max(abs(left), abs(right)):
        raise ParameterDomainError(f"transfer function denominator {den!r} too close to 0")
    return num / den


def solve_transfer_by_elimination(g: FlowGraph) -> float:
    """Transfer to the sink from the node equations (I - mat^T) H = e_source, as exit . H.

    H(node) sums H(src) * label over the edges into the node, on any number of nodes. A
    system whose 2-norm condition number exceeds 1e12 (inf for a singular one) is refused.
    """
    eye = np.eye(len(g.exit))
    system = eye - g.mat.T
    cond = float(np.linalg.cond(system))
    if not cond <= 1e12:
        raise ParameterDomainError(f"flow-graph system is ill-conditioned (cond={cond!r})")
    return float(g.exit @ np.linalg.solve(system, eye[Q0]))


def path_enumeration_oracle(
    pr: ClockProbabilities, w: EdgeWeights, max_edges: int
) -> tuple[float, float]:
    """Sum of edge-label products over all source-to-sink paths with <= max_edges edges.

    Paths are aggregated by length: with W the transient-node transition
    matrix and t the exit vector, the paths of k + 1 edges sum to
    (W^k t)[source]. The partial sum S_n = sum_{k<n} W^k and the power W^n are
    built by doubling over the bits of max_edges (S_2n = S_n + W^n S_n, and
    S_n+1 = S_n + W^n), about 2 log2(max_edges) matrix products in all; no linear
    solve of the flow graph is involved. Returns (partial_sum, tail_bound)
    where tail_bound is the exact sum of |label products| over all discarded
    longer paths, computed from the geometric tail of the absolute-value
    matrix.
    """
    if max_edges < 2:
        raise ParameterDomainError(f"max_edges must be >= 2, got {max_edges}")
    g = build_graph(pr, w)
    mat, exit_vec = g.mat, g.exit
    mat_abs = np.abs(mat)
    rho = float(np.max(np.abs(np.linalg.eigvals(mat_abs))))
    if rho >= 1.0:
        raise ParameterDomainError(f"path sum tail does not converge (spectral radius {rho!r})")

    # W and |W| side by side; row 0 of each is the source node
    pair = np.stack([mat, mat_abs])
    partial = np.zeros_like(pair)
    eye = np.eye(len(exit_vec))
    power = np.stack([eye, eye])
    for bit in bin(max_edges)[2:]:
        partial += power @ partial
        power = power @ power
        if bit == "1":
            partial += power
            power = power @ pair
    total = float(partial[0, 0] @ exit_vec)
    # sum over paths with > max_edges edges, all labels in absolute value
    tail = float(power[1, 0] @ np.linalg.solve(eye - mat_abs, np.abs(exit_vec)))
    return total, tail
