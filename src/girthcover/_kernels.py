"""Inner loop of the exact girth search.

The kernel runs a pruned BFS from each of the given roots over a CSR
adjacency and returns the length of the shortest cycle found below a cap.
Taking the minimum over the roots of dist[u] + dist[v] + 1 for non-tree
edges uv never undershoots the girth: every candidate closes a walk
containing a cycle of at most that length.  It equals the girth as soon as
one root lies on a shortest cycle.  Rooting at every vertex guarantees that;
so does rooting at one vertex per orbit of a group of automorphisms, because
an automorphism carries a shortest cycle through any vertex onto a shortest
cycle through that vertex's orbit representative; and so does rooting at a
set of vertices that meets every cycle.

The loop runs as plain Python on lists (the CSR arrays converted with
``tolist``), because indexing a list is several times faster than indexing
a numpy array one scalar at a time.
"""

from __future__ import annotations


def _girth_scan(indptr, indices, n, cap, roots):
    """min(girth, cap) over BFS from ``roots``, run as Python on lists.

    cap is exclusive: cap means "no cycle < cap".  roots must be distinct
    vertices; each one stamps the vertices it reaches.
    """
    indptr, indices, roots = indptr.tolist(), indices.tolist(), roots.tolist()
    dist, parent, stamp, queue = [0] * n, [0] * n, [-1] * n, [0] * n
    best = cap
    for r in roots:
        if best <= 3:
            break
        head = 0
        tail = 1
        queue[0] = r
        stamp[r] = r
        dist[r] = 0
        parent[r] = -1
        while head < tail:
            u = queue[head]
            head += 1
            du = dist[u]
            # A vertex at depth du can only start a cycle of length >= 2*du + 1.
            if 2 * du + 1 >= best:
                break
            pu = parent[u]
            for w in indices[indptr[u] : indptr[u + 1]]:
                if w == pu:
                    continue
                if stamp[w] == r:
                    if parent[w] != u:
                        cand = du + dist[w] + 1
                        if cand < best:
                            best = cand
                else:
                    stamp[w] = r
                    dist[w] = du + 1
                    parent[w] = u
                    queue[tail] = w
                    tail += 1
    return best


girth_scan = _girth_scan
