"""Slow reference implementations the fast code is checked against.

Everything here favours obviousness over speed: full recomputation each
sweep, explicit path enumeration, dense matrices.  Keep it that way.
"""

from __future__ import annotations

import math
from collections import Counter, deque

import numpy as np

from twotier import community
from twotier.evolution import CommunityRef, EventKind, EvolutionEvent, Timeline


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


def reference_classify(frames, alpha=0.5, beta=0.5, continue_jaccard=0.5):
    """``evolution.classify`` on member sets, by the rules its docstrings
    state: every frame kept, overlaps counted pair by pair with ``&``, and
    no member index.  ``frames[u][j]`` is community j of frame u; the
    result is a :class:`Timeline`.
    """
    frames = [[frozenset(c) for c in frame] for frame in frames]
    events, track_of = [], {}
    last = {}  # pending track -> the ref of its last occurrence
    next_track = 0

    def members(ref):
        return frames[ref.frame][ref.community]

    def include(a, b):
        shared = len(a & b)
        return shared / len(a) >= alpha or shared / len(b) >= beta

    def event(kind, frame, track, preds, succs):
        return EvolutionEvent(
            kind, frame, track, tuple(preds), tuple(succs),
            sum(len(members(r)) for r in preds) if preds else None,
            sum(len(members(r)) for r in succs) if succs else None,
        )

    for u, comms in enumerate(frames):
        prev = frames[u - 1] if u else []
        p_ref = [CommunityRef(u - 1, i) for i in range(len(prev))]
        n_ref = [CommunityRef(u, j) for j in range(len(comms))]
        pairs = {(i, j) for i, p in enumerate(prev) for j, n in enumerate(comms)
                 if include(p, n)}
        # an exclusive pair of equal sizes below the Jaccard bar is unmatched
        for i, j in sorted(pairs):
            exclusive = [q for q in pairs if q[0] == i or q[1] == j] == [(i, j)]
            p, n = prev[i], comms[j]
            if (exclusive and len(p) == len(n)
                    and len(p & n) / len(p | n) < continue_jaccard):
                pairs.discard((i, j))
        succ = [sorted(j for a, j in pairs if a == i) for i in range(len(prev))]
        pred = [sorted(i for i, b in pairs if b == j) for j in range(len(comms))]

        def best(options, overlap):
            return min(options, key=lambda k: (-overlap(k), k))

        track = {}
        for j in range(len(comms)):
            if not pred[j]:
                continue
            i = best(pred[j], lambda i: len(prev[i] & comms[j]))
            if best(succ[i], lambda k: len(prev[i] & comms[k])) == j:
                track[j] = track_of[p_ref[i]]
            else:
                track[j] = next_track
                next_track += 1
        unmatched = [j for j in range(len(comms)) if not pred[j]]
        candidates = sorted(
            (-len(members(ref) & comms[j]), j, -ref.frame, t)
            for t, ref in last.items() for j in unmatched
            if include(members(ref), comms[j])
        )
        resumed = {}
        for _, j, _, t in candidates:
            if j not in resumed and t not in resumed.values():
                resumed[j] = t
        for j in unmatched:
            if j in resumed:
                track[j] = resumed[j]
                old = last.pop(track[j])
                events.append(event(EventKind.SUSPEND, old.frame, track[j], [old], []))
                events.append(event(EventKind.REEMERGE, u, track[j], [old], [n_ref[j]]))
            else:
                track[j] = next_track
                next_track += 1
                events.append(event(EventKind.FORM, u, track[j], [], [n_ref[j]]))
        for j in range(len(comms)):
            ps = [p_ref[i] for i in pred[j]]
            if len(ps) >= 2:
                events.append(event(EventKind.MERGE, u, track[j], ps, [n_ref[j]]))
            elif len(ps) == 1 and len(succ[pred[j][0]]) == 1:
                before, after = len(prev[pred[j][0]]), len(comms[j])
                kind = (EventKind.GROW if after > before else EventKind.SHRINK
                        if after < before else EventKind.CONTINUE)
                events.append(event(kind, u, track[j], ps, [n_ref[j]]))
        for i in range(len(prev)):
            if len(succ[i]) >= 2:
                events.append(event(EventKind.SPLIT, u, track_of[p_ref[i]], [p_ref[i]],
                                    [n_ref[j] for j in succ[i]]))
            elif not succ[i]:
                last[track_of[p_ref[i]]] = p_ref[i]
        track_of.update((n_ref[j], track[j]) for j in range(len(comms)))
    for t, ref in sorted(last.items()):
        events.append(event(EventKind.DISSOLVE, ref.frame, t, [ref], []))
    order = list(EventKind)
    events.sort(key=lambda e: (e.frame, order.index(e.kind), e.successors, e.predecessors))
    return Timeline(events, track_of)


def nmi(labels_a, labels_b) -> float:
    """Normalized mutual information of two labelings of the same items,
    ``2 I(A; B) / (H(A) + H(B))`` (the arithmetic-mean normalization), by
    counting label pairs.  Two labelings that each put every item in one
    group agree fully and score 1.0.
    """
    n = len(labels_a)
    if n == 0 or n != len(labels_b):
        raise ValueError("need two labelings of the same non-empty items")

    def entropy(counts):
        return -sum(c / n * math.log(c / n) for c in counts.values())

    count_a, count_b = Counter(labels_a), Counter(labels_b)
    joint = Counter(zip(labels_a, labels_b))
    mutual = sum(
        c / n * math.log(c * n / (count_a[a] * count_b[b])) for (a, b), c in joint.items()
    )
    h_a, h_b = entropy(count_a), entropy(count_b)
    if h_a + h_b == 0:
        return 1.0
    return max(0.0, 2 * mutual / (h_a + h_b))
