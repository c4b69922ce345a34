// Package maxflow implements Dinic's blocking-flow maximum-flow algorithm,
// the network-flow engine behind the Gomory–Hu tree construction of
// Section 4.1 (the paper cites Dinic [22] for exactly this role).
//
// The network is directed internally; BuildUndirected inserts the
// symmetric arc pair used when cutting the undirected decomposition graph.
package maxflow

import "mpl/internal/pipeline"

const inf = int64(1) << 62

// Network is a flow network over vertices [0, n), built by BuildUndirected.
type Network struct {
	n     int
	to    []int32
	cap   []int64
	head  [][]int32
	level []int32
	iter  []int32
	// queue is the BFS work list, retained across MaxFlow phases.
	queue []int32
	// headBack is the flat backing of head.
	headBack []int32
}

// BuildUndirected constructs, in one preallocated shot, the network of the
// undirected edges {u[i], v[i]} with capacity w[i] in each direction, the
// standard encoding for undirected min-cut. Arcs 2i and 2i+1 are the i-th
// edge's two directions (the ei^1 residual pairing), and each vertex lists
// its arcs in edge order. All storage is carved from the scratch arena
// (nil-safe): two passes over the edges (degree count, fill) build it with
// no per-arc appends, which is what makes the Gomory–Hu construction's n−1
// throwaway networks affordable on the hot path. Pair with ReleaseScratch.
func BuildUndirected(n int, u, v []int32, w []int64, sc *pipeline.Scratch) *Network {
	m := len(u)
	arcs := 2 * m
	nw := &Network{
		n:        n,
		to:       sc.Int32s(arcs),
		cap:      sc.Int64s(arcs),
		level:    sc.Int32s(n),
		iter:     sc.Int32s(n),
		queue:    sc.Int32s(n)[:0],
		headBack: sc.Int32s(arcs),
		head:     make([][]int32, n),
	}
	// Pass 1: arc count per vertex (level doubles as the counter — it is
	// zeroed again below, before any flow runs).
	deg := nw.level
	for i := 0; i < m; i++ {
		deg[u[i]]++
		deg[v[i]]++
	}
	off := 0
	for x := 0; x < n; x++ {
		d := int(deg[x])
		nw.head[x] = nw.headBack[off : off : off+d]
		off += d
	}
	// Pass 2: fill in edge order.
	for i := 0; i < m; i++ {
		ai := int32(2 * i)
		bi := ai + 1
		nw.head[u[i]] = append(nw.head[u[i]], ai)
		nw.to[ai], nw.cap[ai] = v[i], w[i]
		nw.head[v[i]] = append(nw.head[v[i]], bi)
		nw.to[bi], nw.cap[bi] = u[i], w[i]
	}
	clear(deg)
	return nw
}

// ReleaseScratch returns a BuildUndirected network's carved buffers to the
// arena. The network must not be used afterwards.
func (nw *Network) ReleaseScratch(sc *pipeline.Scratch) {
	sc.PutInt32s(nw.to)
	sc.PutInt64s(nw.cap)
	sc.PutInt32s(nw.level)
	sc.PutInt32s(nw.iter)
	sc.PutInt32s(nw.queue)
	sc.PutInt32s(nw.headBack)
	nw.to, nw.cap, nw.level, nw.iter, nw.queue, nw.headBack, nw.head = nil, nil, nil, nil, nil, nil, nil
}

func (nw *Network) bfs(s, t int) bool {
	for i := range nw.level {
		nw.level[i] = -1
	}
	queue := append(nw.queue[:0], int32(s))
	nw.level[s] = 0
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, ei := range nw.head[u] {
			v := nw.to[ei]
			if nw.cap[ei] > 0 && nw.level[v] < 0 {
				nw.level[v] = nw.level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	nw.queue = queue[:0]
	return nw.level[t] >= 0
}

func (nw *Network) dfs(u, t int, f int64) int64 {
	if u == t {
		return f
	}
	for ; nw.iter[u] < int32(len(nw.head[u])); nw.iter[u]++ {
		ei := nw.head[u][nw.iter[u]]
		v := nw.to[ei]
		if nw.cap[ei] <= 0 || nw.level[v] != nw.level[u]+1 {
			continue
		}
		d := nw.dfs(int(v), t, min64(f, nw.cap[ei]))
		if d > 0 {
			nw.cap[ei] -= d
			nw.cap[ei^1] += d
			return d
		}
	}
	return 0
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// MaxFlow computes the maximum s–t flow on the current residual network,
// which starts at the built capacities; a network serves one flow.
func (nw *Network) MaxFlow(s, t int) int64 {
	if s == t {
		panic("maxflow: source equals sink")
	}
	var flow int64
	for nw.bfs(s, t) {
		for i := range nw.iter {
			nw.iter[i] = 0
		}
		for {
			f := nw.dfs(s, t, inf)
			if f == 0 {
				break
			}
			flow += f
		}
	}
	return flow
}

// MinCutSide returns the set of vertices reachable from s in the residual
// network after a MaxFlow(s, t) call: the s-side of a minimum cut. The
// returned slice is a membership mask of length N.
func (nw *Network) MinCutSide(s int) []bool {
	side := make([]bool, nw.n)
	stack := []int32{int32(s)}
	side[s] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range nw.head[u] {
			v := nw.to[ei]
			if nw.cap[ei] > 0 && !side[v] {
				side[v] = true
				stack = append(stack, v)
			}
		}
	}
	return side
}
