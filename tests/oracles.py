"""Slow reference implementations the fast code is checked against.

Everything here favours obviousness over speed: full recomputation each
sweep, explicit path enumeration, dense matrices.  Keep it that way.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from twotier import community


def naive_weighted_degree(degree: int, weight_sum: int) -> int:
    return round(math.sqrt(degree * weight_sum))


def naive_wks(adj: dict[str, dict[str, int]]) -> dict[str, int]:
    """Weighted k-shell by literal pruning with full recomputation.

    At level k, repeatedly delete every remaining node whose weighted
    degree (recomputed from scratch on the surviving subgraph) is <= k;
    when nothing is deletable, move to k+1.  Deleted nodes get shell k.
    """
    alive = set(adj)
    shell: dict[str, int] = {}
    k = 1
    while alive:
        removed_any = True
        while removed_any:
            removed_any = False
            for node in sorted(alive):
                deg = sum(1 for n in adj[node] if n in alive)
                wsum = sum(w for n, w in adj[node].items() if n in alive)
                if naive_weighted_degree(deg, wsum) <= k:
                    shell[node] = k
                    alive.discard(node)
                    removed_any = True
        k += 1
    return shell


def _all_shortest_paths(adj: dict, source, target) -> list[list]:
    """Every shortest path from source to target, by explicit enumeration."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    if target not in dist:
        return []
    paths = []

    def walk(node, trail):
        if node == source:
            paths.append(list(reversed(trail + [node])))
            return
        for prev in adj[node]:
            if dist.get(prev, -1) == dist[node] - 1:
                walk(prev, trail + [node])

    walk(target, [])
    return paths


def brute_betweenness(adj: dict) -> dict:
    """Betweenness over unordered pairs by enumerating every shortest path."""
    nodes = sorted(adj)
    score = {v: 0.0 for v in nodes}
    for i, s in enumerate(nodes):
        for t in nodes[i + 1 :]:
            paths = _all_shortest_paths(adj, s, t)
            if not paths:
                continue
            for path in paths:
                for inner in path[1:-1]:
                    score[inner] += 1.0 / len(paths)
    return score


def bfs_closeness(adj: dict, node, total_nodes: int) -> float:
    """Closeness with the disconnected-graph correction.

    (r / (n - 1)) * (r / sum of distances), where r is the number of other
    nodes reached; 0 when nothing is reachable.
    """
    dist = {node: 0}
    queue = deque([node])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    reached = len(dist) - 1
    if reached == 0 or total_nodes < 2:
        return 0.0
    s = sum(dist.values())
    return (reached / (total_nodes - 1)) * (reached / s)


def brute_coverage(frames, seeds) -> float:
    """Mean, over the frames holding at least one node, of the fraction of
    a frame's nodes that are a seed or adjacent to one.

    The covered set is built seed by seed; the fractions are summed left to
    right, as ``twotier.graph.mean`` does, so results compare exactly.
    """
    seeds = list(seeds)
    values = []
    for frame in frames:
        if len(frame) == 0:
            continue
        covered = set()
        for seed in seeds:
            if seed in frame:
                covered.add(seed)
                covered.update(frame.neighbors(seed))
        values.append(len(covered) / len(frame))
    if not values:
        raise ValueError("coverage of a network with no populated frames is undefined")
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def matrix_modularity(adj: dict, assignment: dict) -> float:
    """Modularity from the dense adjacency matrix, summed over ordered pairs."""
    nodes = sorted(adj)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    a = np.zeros((n, n))
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            a[index[u], index[v]] = w
    k = a.sum(axis=1)
    two_m = a.sum()
    if two_m == 0:
        raise ValueError("graph has no edges")
    q = 0.0
    for i in range(n):
        for j in range(n):
            if assignment[nodes[i]] == assignment[nodes[j]]:
                q += a[i, j] - k[i] * k[j] / two_m
    return q / two_m


def edge_sum_modularity(graph, assignment) -> float:
    """Modularity with float sums over node strengths and listed edges, in
    the operation order ``community.modularity`` must reproduce exactly."""
    m2 = 2.0 * graph.total_weight
    internal: dict[int, float] = {}
    tot: dict[int, float] = {}
    for node in graph.nodes:
        c = assignment[node]
        tot[c] = tot.get(c, 0.0) + graph.strength(node)
    for u, v, w in graph.edges():
        if assignment[u] == assignment[v]:
            c = assignment[u]
            internal[c] = internal.get(c, 0.0) + 2.0 * w
    q = 0.0
    for c in sorted(tot):
        q += internal.get(c, 0.0) / m2 - (tot[c] / m2) ** 2
    return q


def random_weighted_adj(rng, max_nodes: int = 50, max_edges: int = 200,
                        max_weight: int = 9) -> dict[str, dict[str, int]]:
    """A random simple weighted graph as a plain adjacency dict."""
    n = rng.randint(2, max_nodes)
    names = [f"n{i:02d}" for i in range(n)]
    adj: dict[str, dict[str, int]] = {v: {} for v in names}
    m = rng.randint(0, max_edges)
    for _ in range(m):
        u, v = rng.sample(names, 2)
        if v in adj[u]:
            continue
        w = rng.randint(1, max_weight)
        adj[u][v] = w
        adj[v][u] = w
    return adj


# -- the plain forms of the optimised tier-two loops ------------------------
#
# Each function below is the straightforward version of a loop the package
# runs in a faster form; the tests require both to give equal results.


def dict_brandes_betweenness(agraph) -> dict:
    """Brandes' betweenness keyed by node, every source visited.

    Same operations in the same order as ``abstraction.betweenness``, over
    per-source dicts instead of index lists.
    """
    order = list(agraph.nodes)
    score = {v: 0.0 for v in order}
    for source in order:
        stack = []
        preds = {v: [] for v in order}
        sigma = {v: 0.0 for v in order}
        sigma[source] = 1.0
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for u in agraph.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
                if dist[u] == dist[v] + 1:
                    sigma[u] += sigma[v]
                    preds[u].append(v)
        delta = {v: 0.0 for v in order}
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                score[w] += delta[w]
    return {v: value * 0.5 for v, value in score.items()}


def full_sweep_move_nodes(adj, k, com, order, m2, isolate) -> bool:
    """``community._move_nodes`` evaluating every node in every sweep.

    Reads ``_MAX_SWEEPS`` and ``_EPS`` from the community module at call
    time, so patching the cap there caps both versions.
    """
    eps = community._EPS
    tot: dict[int, float] = {}
    for v, c in enumerate(com):
        tot[c] = tot.get(c, 0.0) + k[v]
    next_label = max(com, default=-1) + 1
    moved_any = False
    for _sweep in range(community._MAX_SWEEPS):
        moves = 0
        for v in order:
            cv = com[v]
            nbw: dict[int, float] = {}
            for u, w in adj[v].items():
                cu = com[u]
                nbw[cu] = nbw.get(cu, 0.0) + w
            tot[cv] -= k[v]
            best_c, best_gain = cv, nbw.get(cv, 0.0) - k[v] * tot[cv] / m2
            for c in sorted(nbw):
                if c == cv:
                    continue
                gain = nbw[c] - k[v] * tot[c] / m2
                if gain > best_gain + eps or (
                    gain > best_gain - eps and best_c != cv and c < best_c
                ):
                    best_c, best_gain = c, gain
            if isolate and best_gain < -eps:
                best_c = next_label
                next_label += 1
            com[v] = best_c
            tot[best_c] = tot.get(best_c, 0.0) + k[v]
            if best_c != cv:
                moves += 1
        if moves == 0:
            break
        moved_any = True
    return moved_any


def pairwise_reemergence_candidates(
    frames, t, unmatched, pending, waiting, alpha, beta
) -> list:
    """``evolution._reemergence_candidates`` by testing every pending track
    against every unmatched community (``waiting`` is ignored)."""
    candidates = []
    for track, old_ref in sorted(pending.items()):
        if t - old_ref.frame < 2:
            continue
        old_members = frames[old_ref.frame][old_ref.community]
        for j in unmatched:
            shared = len(old_members & frames[t][j])
            if shared == 0:
                continue
            if (shared / len(old_members) >= alpha
                    or shared / len(frames[t][j]) >= beta):
                candidates.append((-shared, j, -old_ref.frame, track))
    return candidates
