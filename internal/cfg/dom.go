package cfg

// Dominator tree construction (Cooper-Harvey-Kennedy "A Simple, Fast
// Dominance Algorithm"). The verifier's sync-protocol pass uses
// dominance to pair RPC replies with the receives that bind their
// requests: a reply that is not dominated by a receive can execute
// with no pending request on some path, so its SYNC record has
// nothing to stitch to.

// DomTree is the dominator tree of a Graph. Blocks unreachable from
// the entry have Idom == -1 and are dominated by nothing (not even
// themselves, as far as Dominates is concerned — they never execute).
type DomTree struct {
	// Idom[b] is the immediate dominator of block b; Idom[entry] is
	// the entry itself, and -1 marks unreachable blocks.
	Idom []int
	// depth[b] is the distance from the entry along the tree, used to
	// answer Dominates without parent-pointer chasing past the root.
	depth []int
}

// Dominators builds the dominator tree rooted at g.Entry.
func (g *Graph) Dominators() *DomTree {
	n := len(g.Blocks)
	dt := &DomTree{Idom: make([]int, n), depth: make([]int, n)}
	for i := range dt.Idom {
		dt.Idom[i] = -1
	}
	if n == 0 {
		return dt
	}

	rpo := g.ReversePostorder()
	// rpoNum[b] = position of b in rpo; -1 for unreachable blocks.
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range rpo {
		rpoNum[b] = i
	}

	dt.Idom[g.Entry] = g.Entry
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = dt.Idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = dt.Idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == g.Entry {
				continue
			}
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if dt.Idom[p] == -1 {
					continue // predecessor not yet processed or unreachable
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != -1 && dt.Idom[b] != newIdom {
				dt.Idom[b] = newIdom
				changed = true
			}
		}
	}

	for _, b := range rpo {
		if b == g.Entry {
			dt.depth[b] = 0
		} else if dt.Idom[b] != -1 {
			dt.depth[b] = dt.depth[dt.Idom[b]] + 1
		}
	}
	return dt
}

// Dominates reports whether block a dominates block b: every path
// from the entry to b passes through a. A block dominates itself.
// Unreachable blocks dominate nothing and are dominated by nothing.
func (dt *DomTree) Dominates(a, b int) bool {
	if dt.Idom[a] == -1 || dt.Idom[b] == -1 {
		return false
	}
	for dt.depth[b] > dt.depth[a] {
		b = dt.Idom[b]
	}
	return a == b
}

// Reachable reports whether block b is reachable from the entry.
func (dt *DomTree) Reachable(b int) bool { return dt.Idom[b] != -1 }

// ReversePostorder returns the IDs of the blocks reachable from the
// entry in reverse postorder of a DFS — the canonical iteration order
// for forward dataflow problems.
func (g *Graph) ReversePostorder() []int {
	n := len(g.Blocks)
	if n == 0 {
		return nil
	}
	seen := make([]bool, n)
	post := make([]int, 0, n)
	type frame struct{ v, si int }
	stack := []frame{{g.Entry, 0}}
	seen[g.Entry] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.si < len(g.Blocks[f.v].Succs) {
			w := g.Blocks[f.v].Succs[f.si]
			f.si++
			if !seen[w] {
				seen[w] = true
				stack = append(stack, frame{w, 0})
			}
			continue
		}
		post = append(post, f.v)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
