package lowerbound

// Hopcroft–Karp maximum bipartite matching, used to extract the adversarial
// permutation demand of Lemma 8.1 (the Hall-criterion step of the proof).

// bipartiteMatch computes a maximum matching in the bipartite graph with
// left vertices 0..nLeft-1 and adjacency adj[l] = right neighbors
// (0..nRight-1). It returns matchL where matchL[l] is the matched right
// vertex or -1.
func bipartiteMatch(nLeft, nRight int, adj [][]int) []int {
	const inf = int(^uint(0) >> 1)
	matchL := make([]int, nLeft)
	matchR := make([]int, nRight)
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}
	dist := make([]int, nLeft)

	bfs := func() bool {
		queue := make([]int, 0, nLeft)
		for l := 0; l < nLeft; l++ {
			if matchL[l] < 0 {
				dist[l] = 0
				queue = append(queue, l)
			} else {
				dist[l] = inf
			}
		}
		found := false
		for len(queue) > 0 {
			l := queue[0]
			queue = queue[1:]
			for _, r := range adj[l] {
				nxt := matchR[r]
				if nxt < 0 {
					found = true
				} else if dist[nxt] == inf {
					dist[nxt] = dist[l] + 1
					queue = append(queue, nxt)
				}
			}
		}
		return found
	}
	var dfs func(l int) bool
	dfs = func(l int) bool {
		for _, r := range adj[l] {
			nxt := matchR[r]
			if nxt < 0 || (dist[nxt] == dist[l]+1 && dfs(nxt)) {
				matchL[l] = r
				matchR[r] = l
				return true
			}
		}
		dist[l] = inf
		return false
	}
	for bfs() {
		for l := 0; l < nLeft; l++ {
			if matchL[l] < 0 {
				dfs(l)
			}
		}
	}
	return matchL
}
