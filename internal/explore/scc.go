package explore

// SCCs computes the strongly connected components of the subgraph induced by
// `within` (nil = all nodes), using an iterative Tarjan algorithm so deep
// graphs do not overflow the goroutine stack. Components are returned in
// reverse topological order (Tarjan's natural output order).
func (g *Graph) SCCs(within *Bitset) [][]int {
	n := g.n
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		counter int
		stack   []int
		comps   [][]int
	)
	inSub := func(id int) bool { return within == nil || within.Has(id) }

	type frame struct {
		node int
		edge int
	}
	for root := 0; root < n; root++ {
		if !inSub(root) || index[root] != unvisited {
			continue
		}
		work := []frame{{node: root}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.node
			if f.edge == 0 {
				index[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			out := g.Out(v)
			for f.edge < len(out) {
				e := out[f.edge]
				f.edge++
				w := e.To
				if !inSub(w) {
					continue
				}
				if index[w] == unvisited {
					work = append(work, frame{node: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// All edges of v processed: pop.
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].node
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}
